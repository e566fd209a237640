/**
 * @file
 * The service operator's retained half of the correlations.
 *
 * A CotServer session's own protocol outputs (sender strings q with
 * delta, or receiver (choice, t)) are delivered through batch sinks
 * and normally dropped. When the OPERATOR is itself the second MPC
 * party — the inference service: the paper's Sec. 5.2 role-switching
 * story served over sockets — those halves are exactly the
 * correlations its GMW engine must consume, in the same order the
 * client consumes the mirror halves from its reservoirs.
 *
 * OperatorStock retains them: attach() registers both sinks and banks
 * each session's batches keyed by session id; takeSend()/takeRecv()
 * are blocking consumers (the stock is produced by COT-session
 * threads, driven by the client's reservoir refills — an extension
 * that satisfied the client's take has, by construction, already run
 * the server half, so a blocked taker only ever waits on thread
 * scheduling, never on protocol progress). Each session banks in a
 * ppml::CotBank, the bank svc::Reservoir and ppml::FerretCotEngine
 * also keep. OperatorCotSupply composes two sessions of opposite roles
 * into the dual-direction ppml::CotSupply the server-side
 * SecureCompute consumes; each take copies straight from the session's
 * bank into SecureCompute's storage.
 *
 * Memory: a session's stock is bounded by its client reservoir's
 * high-water mark plus one in-flight extension, because server-side
 * production is in lockstep with client-side production and the
 * inference session consumes both streams at the same rate. Residue
 * is freed on two paths: the consuming inference session drops its
 * two sids when it ends, and attach() registers the CotServer's
 * session-end sink so a session nobody consumed (a rejected infer
 * hello, a client that died before its hello) is erased the moment
 * its COT session closes and no more batches can arrive. Only point
 * an OperatorStock at a CotServer whose sessions are consumed this
 * way — a plain streaming cot_client against the same daemon would
 * bank stock until its session ends.
 */

#ifndef IRONMAN_SVC_OPERATOR_STOCK_H
#define IRONMAN_SVC_OPERATOR_STOCK_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "ppml/cot_bank.h"
#include "ppml/cot_supply.h"
#include "svc/cot_server.h"

namespace ironman::svc {

/** Thread-safe per-session bank of the server-side halves. */
class OperatorStock
{
  public:
    OperatorStock() = default;
    OperatorStock(const OperatorStock &) = delete;
    OperatorStock &operator=(const OperatorStock &) = delete;

    /**
     * Register this stock as @p server's batch AND session-end sinks.
     * The stock must outlive the server (or server.stop() must run
     * first) — session threads deliver until they are joined.
     */
    void attach(CotServer &server);

    /**
     * Take @p n sender-half strings of session @p sid into @p q
     * (resized) and the session offset into @p delta. Blocks until
     * the session's extensions have produced enough.
     */
    void takeSend(uint64_t sid, size_t n, std::vector<Block> *q,
                  Block *delta);

    /** Take @p n receiver-half correlations of session @p sid. */
    void takeRecv(uint64_t sid, size_t n, BitVec *bits,
                  std::vector<Block> *t);

    /** Correlations currently banked for @p sid. */
    size_t stock(uint64_t sid) const;

    /**
     * Peer address that opened COT session @p sid (recorded by the
     * server's session-start sink, so it is set before the client can
     * quote the sid anywhere). Empty when the sid is unknown or the
     * session already ended — the inference server rejects hellos
     * naming such sessions, and refuses sids owned by a DIFFERENT
     * peer address (same-address granularity as the quotas; binding
     * tokens for co-located clients are a ROADMAP item).
     */
    std::string peerOf(uint64_t sid) const;

    /**
     * Erase a finished session's entry entirely (the map never grows
     * with dead sessions). A taker blocked on the sid is not woken —
     * its entry is simply gone, so it expires through the wait
     * timeout; in the normal protocol no take can be in flight when a
     * drop runs (the consumer drops its own sids, and the session-end
     * sink fires only after the client stopped driving).
     */
    void drop(uint64_t sid);

    /**
     * Permanently retire the stock: every blocked and future take
     * throws. InferServer::stop() calls this so session threads
     * blocked on a dead client's stock unwind and join.
     */
    void shutdown();

    /**
     * Bound on how long a take may wait for production before it
     * throws. A taker only legitimately waits while its client is
     * mid-request and actively stocking, so an expiry means the
     * client died, stalled, or named a session that never produces
     * (a bogus hello sid) — the consuming session unwinds and frees
     * its slot instead of pinning it until shutdown(). Default 2
     * minutes; tests shrink it.
     */
    void setWaitTimeout(std::chrono::milliseconds timeout);

  private:
    struct SessionStock
    {
        std::string peer;   ///< owner; set at session start
        ppml::CotBank bank; ///< receiver sessions bank bits + t, senders q
        Block delta;        ///< sender sessions only
        bool haveDelta = false;
    };

    /**
     * Block until session @p sid banks @p n correlations (and its
     * delta, if @p need_delta), then record the take's wait, size and
     * depth delta. Throws on timeout or shutdown.
     */
    SessionStock &waitForStockLocked(std::unique_lock<std::mutex> &lock,
                                     uint64_t sid, size_t n,
                                     bool need_delta);

    mutable std::mutex m;
    std::condition_variable cv;
    std::map<uint64_t, SessionStock> sessions;
    bool stopped = false;
    std::chrono::milliseconds waitTimeout{net::kDaemonSessionTimeoutMs};
};

/**
 * Dual-direction ppml::CotSupply over the operator halves of two
 * service sessions with opposite client roles:
 *
 *   - @p send_sid: the session whose CLIENT connected Role::Receiver,
 *     so the SERVER holds (delta, q) — this party's send direction;
 *   - @p recv_sid: the session whose client connected Role::Sender,
 *     so the server holds (choice, t) — the recv direction.
 *
 * The inference client's ReservoirCotSupply over the mirror halves of
 * the same two sessions hands out the matching correlations in the
 * same order, which is the lockstep contract CotSupply requires.
 */
class OperatorCotSupply final : public ppml::CotSupply
{
  public:
    OperatorCotSupply(OperatorStock &stock, uint64_t send_sid,
                      uint64_t recv_sid)
        : stock_(stock), sendSid(send_sid), recvSid(recv_sid)
    {
    }

    const Block &
    sendDelta() const override
    {
        if (!haveDelta) {
            // First batch not banked yet: claim zero correlations,
            // which blocks until the delta-carrying batch arrives.
            std::vector<Block> none;
            stock_.takeSend(sendSid, 0, &none, &delta);
            haveDelta = true;
        }
        return delta;
    }

    void
    takeSend(size_t n, std::vector<Block> *q) override
    {
        stock_.takeSend(sendSid, n, q, &delta);
        haveDelta = true;
    }

    void
    takeRecv(size_t n, BitVec *bits, std::vector<Block> *t) override
    {
        stock_.takeRecv(recvSid, n, bits, t);
    }

  private:
    OperatorStock &stock_;
    uint64_t sendSid, recvSid;
    mutable Block delta;
    mutable bool haveDelta = false;
};

} // namespace ironman::svc

#endif // IRONMAN_SVC_OPERATOR_STOCK_H
