/**
 * @file
 * Ferret-style PCG OT extension (Sec. 2.3): the end-to-end protocol
 * that turns a reserve of base COTs into n fresh COT correlations per
 * execution, with sub-linear communication.
 *
 * One extension (both parties):
 *   1. Split the base reserve: k correlations feed the LPN input,
 *      t*log2(l) feed the batched SPCOT.
 *   2. Interactive SPCOT produces t single-point vectors covering the
 *      n output rows (regular noise: row j belongs to bucket
 *      j / bucketSize()).
 *   3. Local LPN encoding: z = r*A ^ w (sender) / x = e*A ^ u,
 *      y = s*A ^ v (receiver).
 *   4. Bootstrap: the first reservedCots() outputs become the next
 *      base reserve; the remaining usableOts() are handed out.
 *
 * The engine overlaps consecutive extensions (the iteration
 * pipeline): iteration i+1's SPCOT transcript crosses the wire before
 * iteration i's LPN encode is done (see DESIGN.md §2, "The iteration
 * pipeline"). The dependency that makes this legal:
 *
 *   - the sender's next transcript needs q' = z_i[k..reserved), so
 *     the reserve prefix of z is encoded first (and the tail's leaves
 *     scattered out, which empties the one leaf slot), the transcript
 *     expanded into that slot and pushed next, and the output tail
 *     encoded last;
 *   - the receiver's next derandomization bits need only the CHOICE
 *     BITS x_i[k..reserved), so it bit-encodes that word-rounded
 *     prefix, sends them, and runs the rest of its LPN on the pool
 *     workers while it reads the returning ciphertexts. Their unmask
 *     — which needs the block reserve y_i — is deferred to the next
 *     call (SpcotRecvSlot holds the pending transcript).
 *
 * Every steady-state call leaves one prefetched transcript in flight,
 * which the peer's next call consumes; the output for given RNG seeds
 * is pinned by a recorded known-answer test
 * (tests/test_ferret_pipeline.cpp). Between calls the channel is fully
 * drained, so engines can be multiplexed (ppml::FerretCotEngine
 * interleaves two directions).
 *
 * Each endpoint owns an OtWorkspace (one SPCOT leaf slot + fixed
 * thread pool + the precomputed LPN index tape), so extendInto()
 * performs zero heap allocations once warm and fans the SPCOT/LPN
 * kernels out over setThreads() workers with bit-identical output.
 * No row is staged: the leaves scatter straight to their final place
 * (the reserve prefix into the next base reserve, the tail into the
 * caller's buffer) and are LPN-encoded in place there.
 *
 * Semi-honest security (the paper's frameworks are semi-honest);
 * Ferret's malicious consistency check is out of scope and noted in
 * DESIGN.md.
 */

#ifndef IRONMAN_OT_FERRET_H
#define IRONMAN_OT_FERRET_H

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/channel.h"
#include "ot/cot.h"
#include "ot/ferret_params.h"
#include "ot/lpn.h"
#include "ot/ot_workspace.h"

namespace ironman::ot {

/** Sender half of the OTE protocol. */
class FerretCotSender
{
  public:
    /**
     * @param base Base-COT sender strings; at least
     *        params.reservedCots() entries (from dealBaseCots() or a
     *        previous run).
     */
    FerretCotSender(net::Channel &ch, const FerretParams &params,
                    const Block &delta, std::vector<Block> base);

    /**
     * Unbound engine for warm pooling (svc::EnginePool): workspace and
     * tape can be prewarm()ed now, channel and base material arrive
     * per session via resetSession(). extendInto() before the first
     * resetSession() is a usage bug (checked).
     */
    explicit FerretCotSender(const FerretParams &params);

    /**
     * Bind this engine to a new session: fresh channel, offset and
     * base reserve; protocol state (tweak, pipeline slots, any
     * prefetched transcript of the previous session) is reset so the
     * engine behaves bit-identically to a freshly constructed one.
     * Allocation-free once the engine has run one warm extension
     * (DESIGN.md invariant 12) — the base reserve is copied into
     * retained storage.
     */
    void resetSession(net::Channel &ch, const Block &delta,
                      const Block *base, size_t n);

    /**
     * Pay the one-time sizing cost now instead of inside the first
     * extension: leaf slot, worker pool spawn, LPN index tape build
     * (the dominant warm-up cost), reserve capacity. Idempotent; an
     * EnginePool calls this so checked-out engines are already warm.
     */
    void prewarm();

    /**
     * Run one extension, writing usableOts() fresh sender strings
     * (each defines the pair (q_i, q_i ^ delta)) to @p out. Performs
     * no heap allocation once the workspace is warm.
     */
    void extendInto(Rng &rng, Block *out);

    const Block &delta() const { return delta_; }
    const FerretParams &params() const { return p; }

    /** Fixed worker-pool width for the SPCOT and LPN kernels. */
    void setThreads(int n) { threads = n > 1 ? n : 1; }

    /** Counters: prg ops, lpn AES ops, per-phase microseconds. */
    const StatSet &stats() const { return stats_; }

  private:
    void ensureTape();

    net::Channel *ch = nullptr; ///< bound per session; never null in extendInto
    FerretParams p;
    Block delta_;
    std::vector<Block> baseQ;
    std::vector<Block> baseNext; ///< next reserve; z[0, reserved) lands here
    LpnEncoder encoder;
    uint64_t tweak = 1;
    int threads = 1;
    bool havePending = false; ///< the leaf slot holds a transcript
    OtWorkspace ws;
    StatSet stats_;
};

/** Receiver half of the OTE protocol. */
class FerretCotReceiver
{
  public:
    FerretCotReceiver(net::Channel &ch, const FerretParams &params,
                      BitVec base_choice, std::vector<Block> base_t);

    /** Unbound engine for warm pooling; see FerretCotSender. */
    explicit FerretCotReceiver(const FerretParams &params);

    /** Bind to a new session; see FerretCotSender::resetSession. */
    void resetSession(net::Channel &ch, const BitVec &base_choice,
                      const Block *base_t, size_t n);

    /** One-time sizing ahead of the first session; see FerretCotSender. */
    void prewarm();

    /**
     * Run one extension: usableOts() choice bits into @p choice_out
     * (resized; storage reused across calls) and as many blocks into
     * @p t_out. Performs no heap allocation once warm.
     */
    void extendInto(Rng &rng, BitVec &choice_out, Block *t_out);

    const FerretParams &params() const { return p; }
    void setThreads(int n) { threads = n > 1 ? n : 1; }

    const StatSet &stats() const { return stats_; }

  private:
    void ensureTape();

    net::Channel *ch = nullptr; ///< bound per session; never null in extendInto
    FerretParams p;
    BitVec baseChoice;
    BitVec choiceNext;       ///< next choice reserve staging
    std::vector<Block> baseT;
    std::vector<Block> baseTNext; ///< next reserve; y[0, reserved) lands here
    LpnEncoder encoder;
    uint64_t tweak = 1;
    int threads = 1;
    bool havePending = false; ///< slots[slotCur] holds a transcript
    int slotCur = 0;
    OtWorkspace ws;
    StatSet stats_;
};

} // namespace ironman::ot

#endif // IRONMAN_OT_FERRET_H
