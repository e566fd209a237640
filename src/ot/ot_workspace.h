/**
 * @file
 * Reusable per-engine workspace of the OT-extension hot path.
 *
 * The historical extension path allocated fresh vector<Block> buffers
 * on every extend() call and copied through nested vector<vector<>>
 * message structures — the software bottleneck the paper's Fig. 1
 * motivation measures. OtWorkspace replaces all of that with one
 * leaf buffer sized once from FerretParams plus grow-only protocol
 * scratch, so a warm FerretCotSender/Receiver::extendInto() performs
 * zero heap allocations (asserted by a counting allocator in
 * tests/test_workspace_engine.cpp).
 *
 * The workspace also owns the engine's fixed ThreadPool: batch-SPCOT
 * tree expansion and the LPN gather-XOR both fan out over it with
 * deterministic range partitions, so multi-threaded output is
 * bit-identical to single-threaded.
 *
 * There are no LPN staging rows: each engine scatters the t x w SPCOT
 * leaves (w = SpcotShape::leaves of spcotConfigOf(p): every tree
 * pruned to its bucket, rounded up to the last arity) straight to
 * where its rows end up — rows [0, reservedCots()) into the engine's
 * next base reserve, the rest into the caller's output buffer — and
 * LPN-encodes them in place there. Both parties need one leaf slot:
 * the sender empties it (every row scattered) before its next
 * transcript expands into it (DESIGN.md invariant 11).
 *
 * prepare() also takes the engine's reference to its set's LPN index
 * tape (sharedLpnTape): one read-only tape per parameter set serves
 * every engine of a process, so index generation happens once per set
 * while some engine of it lives. Above lpn.h's kLpnTapeBytesCap (the
 * 2^23+ sets) the reference is null, and LpnEncoder::encode
 * regenerates the indices with identical output; the engine passes
 * the reference on either way.
 */

#ifndef IRONMAN_OT_OT_WORKSPACE_H
#define IRONMAN_OT_OT_WORKSPACE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/thread_pool.h"
#include "ot/ferret_params.h"
#include "ot/lpn.h"
#include "ot/spcot.h"

namespace ironman::ot {

/**
 * The SPCOT shape of @p p's trees: each yields the bucketSize() leaves
 * its bucket's rows read (a bit_ceil tree pruned to them).
 */
SpcotConfig spcotConfigOf(const FerretParams &p);

/** The LPN code of @p p: n x k, weight lpnWeight, seed lpnSeed. */
LpnParams lpnParamsOf(const FerretParams &p);

/** All per-engine mutable state of one OTE endpoint. */
struct OtWorkspace
{
    /**
     * (Re)size everything for @p p and @p threads and take the set's
     * shared tape (built on the pool when no holder keeps one).
     * Idempotent: a second call with identical arguments does
     * nothing, so the first extend() is the only warm-up.
     */
    void prepare(const FerretParams &p, int threads);

    common::ThreadPool pool{1};
    /// t x w SPCOT leaves, tree-major at stride w = spcot.shape.leaves.
    std::vector<Block> leaf;

    SpcotWorkspace spcot;
    /// The set's shared tape; null above the cap.
    std::shared_ptr<const LpnIndexTape> tape;

    // Receiver-side bit staging.
    BitVec e; ///< LPN input bits
    BitVec x; ///< LPN output bits
    std::vector<size_t> alphas;

  private:
    bool ready = false;
    FerretShape preparedFor{};
    int preparedThreads = 0;
};

} // namespace ironman::ot

#endif // IRONMAN_OT_OT_WORKSPACE_H
