/**
 * @file
 * Client-side correlation reservoir: a background thread keeps a
 * per-session COT stock topped up, so consumers (the PPML online
 * phase, or anything drawing through ppml::CotSupply) take from local
 * memory and never stall on extension latency — the service session's
 * round trips and LPN time are paid off the consumer's critical path.
 *
 * One Reservoir wraps one CotClient session and matches its role:
 * takeRecv() on a receiver-role session, takeSend() on a sender-role
 * session. The refill thread extends whenever the stock drops under
 * the low-water mark and parks once it holds maxBatches extensions.
 *
 * Failure handling: the reservoir runs over an EXTERNAL session and
 * treats any refill error as terminal — it surfaces as a typed
 * net::WireError thrown to every blocked and future taker, never as a
 * silent stall. Recovery belongs to the session's owner:
 * infer::InferClient redials its whole transport (channel, both COT
 * sessions, both reservoirs), because the server's operator halves
 * are tied to the old session ids and one session cannot be redialed
 * on its own without breaking lockstep.
 *
 * The stock itself is a ppml::CotBank, the bank svc::OperatorStock
 * keeps per session and ppml::FerretCotEngine keeps per direction.
 *
 * ReservoirCotSupply composes two reservoirs over two sessions of
 * opposite roles into the dual-direction ppml::CotSupply the GMW
 * engine consumes: each take copies straight from the bank into the
 * consumer's storage. The peer holding the matching halves is the
 * service operator (the server's batch sinks carry them).
 */

#ifndef IRONMAN_SVC_RESERVOIR_H
#define IRONMAN_SVC_RESERVOIR_H

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "net/wire_error.h"
#include "ppml/cot_bank.h"
#include "ppml/cot_supply.h"
#include "svc/cot_client.h"

namespace ironman::svc {

class Reservoir
{
  public:
    struct Options
    {
        size_t lowWaterBatches = 1; ///< refill below this many extensions
        size_t maxBatches = 2;      ///< stop refilling at this stock

        /**
         * Watermarks sized from a consumer's known per-request demand
         * (e.g. ppml::MlpModelSpec::cotsPerImage() * batch): keep at
         * least one whole request's worth of stock ahead plus one
         * batch of slack, capped so one session never hoards.
         */
        static Options
        sizedFor(uint64_t cots_per_request,
                 size_t usable_ots_per_extension)
        {
            const uint64_t need =
                (cots_per_request + usable_ots_per_extension - 1) /
                usable_ots_per_extension;
            Options o;
            o.lowWaterBatches =
                size_t(need < 1 ? 1 : (need > 8 ? 8 : need));
            o.maxBatches = 2 * o.lowWaterBatches;
            return o;
        }
    };

    /**
     * Start refilling immediately. @p client must outlive the
     * reservoir and must not be used elsewhere while it runs (the
     * refill thread owns the session). A refill error is terminal for
     * this reservoir (see file comment).
     */
    explicit Reservoir(CotClient &client)
        : Reservoir(client, Options{})
    {
    }
    Reservoir(CotClient &client, Options opt);

    ~Reservoir();

    Reservoir(const Reservoir &) = delete;
    Reservoir &operator=(const Reservoir &) = delete;

    /**
     * Take @p n receiver-role correlations into caller storage
     * (resized; reused storage allocates nothing). Blocks until the
     * refill thread has produced enough; throws net::WireError if the
     * supply failed terminally (see file comment).
     */
    void takeRecv(size_t n, BitVec *bits, std::vector<Block> *t);

    /** Take @p n sender-role strings; see takeRecv. */
    void takeSend(size_t n, std::vector<Block> *q);

    /** Extensions the refill thread has run. */
    uint64_t refills() const;

    /** Correlations handed out. */
    uint64_t taken() const;

    /** Whether the supply failed terminally (takers will throw). */
    bool failedTerminally() const;

    /**
     * Stop the refill thread (it finishes any in-flight extension).
     * Called by the destructor; the session itself stays open for the
     * owner to close.
     */
    void stopRefill();

  private:
    void refillLoop();
    void markFailed(net::WireFault fault, const std::string &what);
    void waitForStockLocked(std::unique_lock<std::mutex> &lock,
                            size_t n);
    /** Count a satisfied take and wake the refiller. */
    void noteTakeLocked(size_t n);

    CotClient &client_;
    Options opt_;
    // Session shape cached at construction: the refill thread owns
    // client_, so takers never touch it.
    Role role_ = Role::Receiver;
    size_t usable_ = 0;

    mutable std::mutex m;
    std::condition_variable stockCv; ///< takers wait for stock
    std::condition_variable needCv;  ///< refiller waits for demand

    ppml::CotBank bank; ///< receiver sessions bank bits + t, senders q
    size_t demand = 0; ///< largest pending take (refiller must cover it)
    bool running = true;
    bool failed = false; ///< terminal: takers throw instead of waiting
    net::WireFault failFault = net::WireFault::Fatal;
    std::string failWhat;
    uint64_t refillCount = 0;
    uint64_t takenCount = 0;

    // Refill staging (thread-local to the refill loop, reused).
    BitVec stageBits;
    std::vector<Block> stageBlocks;

    std::thread refillThread;
};

/** Dual-direction ppml::CotSupply backed by two reservoirs. */
class ReservoirCotSupply final : public ppml::CotSupply
{
  public:
    /**
     * @param send_res Reservoir over a Role::Sender session (this
     *        party holds delta and q there).
     * @param recv_res Reservoir over a Role::Receiver session.
     */
    ReservoirCotSupply(Reservoir &send_res, Reservoir &recv_res,
                       const Block &send_delta)
        : sendRes(send_res), recvRes(recv_res), delta(send_delta)
    {
    }

    const Block &sendDelta() const override { return delta; }

    void
    takeSend(size_t n, std::vector<Block> *q) override
    {
        sendRes.takeSend(n, q);
    }

    void
    takeRecv(size_t n, BitVec *bits, std::vector<Block> *t) override
    {
        recvRes.takeRecv(n, bits, t);
    }

  private:
    Reservoir &sendRes;
    Reservoir &recvRes;
    Block delta;
};

} // namespace ironman::svc

#endif // IRONMAN_SVC_RESERVOIR_H
