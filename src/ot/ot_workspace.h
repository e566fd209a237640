/**
 * @file
 * Reusable per-engine workspace of the OT-extension hot path.
 *
 * The historical extension path allocated fresh vector<Block> buffers
 * on every extend() call and copied through nested vector<vector<>>
 * message structures — the software bottleneck the paper's Fig. 1
 * motivation measures. OtWorkspace replaces all of that with one
 * arena of Block buffers sized once from FerretParams plus grow-only
 * protocol scratch, so a warm FerretCotSender/Receiver::extendInto()
 * performs zero heap allocations (asserted by a counting allocator in
 * tests/test_workspace_engine.cpp).
 *
 * The workspace also owns the engine's fixed ThreadPool: batch-SPCOT
 * tree expansion and the LPN gather-XOR both fan out over it with
 * deterministic range partitions, so multi-threaded output is
 * bit-identical to single-threaded.
 *
 * For the sender the arena carves TWO leaf-matrix slots:
 * while iteration i's LPN encode reads the rows scattered from slot
 * (i mod 2), iteration i+1's SPCOT transcript expands into slot
 * (i+1 mod 2). The stage-handoff invariant (DESIGN.md invariant 10):
 * transcript slot N is never written while the LPN stage of slot N-1
 * is still reading buffers derived from it.
 *
 * The workspace additionally holds the engine's precomputed LPN index
 * tape (the matrix is fixed by the public seed, so index generation
 * happens once per engine, not once per extension). Tapes above
 * kLpnTapeBytesCap are not built, to bound memory on the 2^23+
 * parameter sets: those engines run the fused streaming encoder,
 * which regenerates 64-row mini-tapes on the stack and feeds the same
 * gather kernels, with identical output.
 */

#ifndef IRONMAN_OT_OT_WORKSPACE_H
#define IRONMAN_OT_OT_WORKSPACE_H

#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/thread_pool.h"
#include "ot/ferret_params.h"
#include "ot/lpn.h"
#include "ot/spcot.h"

namespace ironman::ot {

/** Bump allocator over one contiguous Block buffer. */
class BlockArena
{
  public:
    /** Size the arena (one allocation) and rewind the cursor. */
    void
    reserve(size_t blocks)
    {
        storage.resize(blocks);
        next = 0;
    }

    /** Carve @p n blocks; panics on overflow (sizing bug). */
    Block *alloc(size_t n);

    void rewind() { next = 0; }

    size_t capacity() const { return storage.size(); }
    size_t used() const { return next; }

  private:
    std::vector<Block> storage;
    size_t next = 0;
};

/** All per-engine mutable state of one OTE endpoint. */
struct OtWorkspace
{
    /** Index tapes above this size fall back to streaming encode. */
    static constexpr size_t kLpnTapeBytesCap = size_t(256) << 20;

    /**
     * True when @p p supports the scatter-free LPN feed: every
     * regular-noise bucket is exactly one whole GGM tree, so the
     * t x l leaf matrix IS the first t*l rows of the LPN staging
     * vector and SPCOT can expand/reconstruct straight into it.
     */
    static bool
    scatterFreeFeed(const FerretParams &p)
    {
        return p.bucketSize() == p.treeLeaves();
    }

    /**
     * Arena blocks one engine role needs for @p p. Copy-feed layout:
     * @p leaf_slots t x l leaf matrices plus the n staging rows.
     * Scatter-free layout (bucketSize() == treeLeaves() and
     * @p scatter_free): the separate staging rows disappear —
     * @p leaf_slots row-slots of t*l blocks each (>= n), and the leaf
     * matrix of slot s ALIASES row-slot s. The sender keeps two
     * slots (iteration i's rows encode in place while iteration
     * i+1's transcript expands into the other slot); the receiver
     * needs one.
     */
    static size_t requiredBlocks(const FerretParams &p,
                                 int leaf_slots = 1,
                                 bool scatter_free = false);

    /**
     * (Re)size everything for @p p and @p threads. Idempotent: a
     * second call with identical arguments does nothing, so the first
     * extend() is the only warm-up. @p scatter_free requests the
     * aliased arena layout (ignored unless scatterFreeFeed(p)).
     */
    void prepare(const FerretParams &p, int threads, int leaf_slots = 1,
                 bool scatter_free = false);

    /** True when prepare() selected the scatter-free (aliased) layout. */
    bool scatterFree() const { return scatterFreeActive; }

    common::ThreadPool pool{1};
    BlockArena arena;
    /// t x treeLeaves() slots; scatter-free: leaf[s] == rowSlot(s).
    Block *leaf[2] = {nullptr, nullptr};
    /// n staging rows (z / y); scatter-free: aliases leaf[0].
    Block *rows = nullptr;

    SpcotWorkspace spcot;
    std::vector<LpnEncodeScratch> lpn; ///< tape build, one per thread
    LpnIndexTape tape;                 ///< empty when above the cap

    // Receiver-side bit staging.
    BitVec e; ///< LPN input bits
    BitVec x; ///< LPN output bits
    std::vector<size_t> alphas;

  private:
    bool ready = false;
    bool scatterFreeActive = false;
    FerretParams preparedFor;
    int preparedThreads = 0;
    int preparedSlots = 0;
};

} // namespace ironman::ot

#endif // IRONMAN_OT_OT_WORKSPACE_H
