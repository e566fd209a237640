/**
 * @file
 * Batched SPCOT (single-point correlated OT), Sec. 2.3.1 and 4 of the
 * paper.
 *
 * One SPCOT instance over a tree with l leaves gives:
 *   sender:   w_0..w_{l-1}  (the GGM leaves) and its global Delta
 *   receiver: alpha, v_0..v_{l-1}  with  w_j = v_j ^ (j==alpha)*Delta
 *
 * Per tree level of arity m the receiver obtains all child-slot sums
 * except the one at its path digit:
 *   - m == 2: one chosen 1-of-2 OT on (K_0, K_1), choice = !digit
 *             (consumes 1 base COT);
 *   - m  > 2: an (m-1)-out-of-m OT built from an m-leaf binary
 *             mini-GGM tree (Sec. 4.2): log2(m) chosen OTs deliver the
 *             mini level sums, the mini leaves r_c then pad the real
 *             sums (y_c = K_c ^ H(r_c)). Consumes log2(m) base COTs.
 *
 * Every OT of every level of every tree is batched into a single
 * round: the receiver's choices depend only on its alphas, never on
 * sender data, so the whole batched SPCOT costs one round trip plus
 * one sender->receiver flush (matching Ferret's low-round design —
 * this is what makes the WAN rows of Fig. 7(c) flat in tree depth).
 *
 * Base-COT consumption per tree is exactly log2(l) independent of m.
 *
 * All mini-leaf pads of one tree occupy a contiguous tweak range
 * [sum_base + tr*sumsPerTree, ...), so each tree's hashing is ONE
 * Crhf::hashBatch call (fused 8-wide MMO on AES-NI) instead of a
 * scalar hash per leaf.
 *
 * The protocol is split into pipeline stages:
 *   - sender: spcotSendTranscript() expands the trees and pushes the
 *     whole transcript (chosen-OT ciphertexts + masked sums) — with a
 *     pool, or serially when the pool is busy with the previous
 *     iteration's LPN encode;
 *   - receiver: spcotRecvSendChoices() (derandomization bits out;
 *     needs only choice BITS of the base COTs), then
 *     spcotRecvRecvTranscript() (pull ciphertexts + masked sums into a
 *     SpcotRecvSlot), then spcotRecvFinish() (unmask with the base COT
 *     STRINGS and reconstruct the punctured trees).
 * Two slots let the FERRET engine receive iteration i+1's transcript
 * while iteration i is still being consumed. Every stage is
 * zero-heap-allocation once the workspace is warm.
 */

#ifndef IRONMAN_OT_SPCOT_H
#define IRONMAN_OT_SPCOT_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.h"
#include "common/block.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "crypto/crhf.h"
#include "crypto/prg.h"
#include "net/channel.h"
#include "ot/chosen_ot.h"
#include "ot/ggm_tree.h"

namespace ironman::ot {

/** Shape of every tree in a batched SPCOT execution. */
struct SpcotConfig
{
    size_t numLeaves = 4096;                      ///< l (power of two)
    unsigned arity = 4;                           ///< m (power of two)
    crypto::PrgKind prg = crypto::PrgKind::ChaCha8;

    bool
    operator==(const SpcotConfig &o) const
    {
        return numLeaves == o.numLeaves && arity == o.arity &&
               prg == o.prg;
    }

    /** Per-level arities (mixed radix; see treeArities()). */
    std::vector<unsigned> levelArities() const;

    /** Base COTs consumed per tree: log2(numLeaves). */
    size_t cotsPerTree() const;
};

/**
 * Derived constants of one tree shape: the flattened level-sum layout
 * plus, per level, the offsets of its OT instances, masked sums and
 * hash tweaks within a tree's region of the batched transcript. All
 * offsets are tree-independent, which is what lets every tree be
 * processed in parallel against precomputed transcript positions.
 */
struct SpcotShape
{
    SpcotConfig cfg;
    std::vector<unsigned> arities;
    GgmSumLayout layout;              ///< main-tree level sums
    size_t leaves = 0;
    size_t cotsPerTree = 0;           ///< OT instances per tree
    size_t sumsPerTree = 0;           ///< masked sums (= tweaks) per tree
    size_t extraPerTree = 0;          ///< extra blocks per tree (sums + 1)
    size_t wideLevels = 0;            ///< levels with arity > 2
    std::vector<uint32_t> instOffset; ///< per level: OT-instance offset
    std::vector<uint32_t> sumOffset;  ///< per level: masked-sum offset
    std::vector<int> miniIndex;       ///< per level: wide ordinal or -1
    std::vector<GgmSumLayout> miniLayout; ///< per level (wide only)

    void prepare(const SpcotConfig &config);
};

/**
 * One pending receiver-side transcript: everything pulled off the wire
 * for a batch whose punctured trees have not been reconstructed yet.
 * The FERRET pipeline keeps two of these (in SpcotWorkspace) so slot
 * N can fill while slot N-1 is consumed. Buffers grow once and are
 * reused.
 */
struct SpcotRecvSlot
{
    std::vector<size_t> alphas;   ///< punctured index per tree
    std::vector<unsigned> digits; ///< trees x levels mixed-radix digits
    BitVec choices;               ///< chosen-OT choice bits
    std::vector<Block> extra;     ///< masked sums + recovery blocks
    ChosenOtScratch ot;           ///< d bits + ciphertext staging
    uint64_t tweakBase = 0;       ///< chosen-OT tweaks of this batch
    uint64_t sumBase = 0;         ///< masked-sum tweaks of this batch
};

/**
 * Reusable state of a batched SPCOT endpoint: transcript buffers plus
 * one expansion context per pool worker. Grow-only; prepare() is
 * idempotent for a fixed (config, trees, threads).
 *
 * Trees are processed in cross-tree chunks of kBatchTrees: all trees
 * of a chunk expand/reconstruct level-synchronously (one SeedExpander
 * call per level per chunk, see ggmExpandBatchInto) and hash their
 * mini-leaf pads in ONE Crhf::hashBatch call (the per-tree tweak
 * ranges are contiguous by construction). Chunking bounds the
 * per-worker matrices to kBatchTrees * leaves blocks while still
 * giving the SIMD PRG cores full batches at the narrow top levels.
 */
struct SpcotWorkspace
{
    /** Cross-tree batch width of the level-synchronous GGM paths. */
    static constexpr size_t kBatchTrees = 32;

    /** Per-worker expansion context (expanders carry mutable state). */
    struct Worker
    {
        GgmBatchScratch batch;     ///< main-tree cross-tree matrices
        GgmBatchScratch miniBatch; ///< mini-tree cross-tree matrices
        std::vector<Block> levelSums;  ///< sender: chunk x main K keys
        std::vector<Block> leafSums;   ///< sender: chunk leaf sums
        std::vector<Block> knownSums;  ///< receiver: chunk x unmasked sums
        std::vector<Block> miniSums;   ///< sender: chunk x mini K keys
        std::vector<Block> miniKnown;  ///< receiver: chunk x mini sums
        std::vector<Block> miniSeedStage;  ///< sender: gathered seeds
        std::vector<size_t> miniAlphaStage; ///< receiver: per-level digits
        std::vector<Block> miniLeavesAll; ///< chunk x all mini leaves
        std::vector<Block> hashPads;      ///< batched H of miniLeavesAll
        std::unique_ptr<crypto::SeedExpander> mainPrg;
        std::unique_ptr<crypto::SeedExpander> miniPrg;
    };

    /**
     * Size everything one endpoint role needs (@p for_sender picks
     * the sender or receiver buffer set; the shared buffers are
     * always sized). Idempotent per (config, trees, threads, role).
     */
    void prepare(const SpcotConfig &config, size_t num_trees,
                 int threads, bool for_sender);

    /** Sum of all workers' PRG operation counters. */
    uint64_t prgOps() const;

    SpcotShape shape;
    crypto::Crhf crhf;

    std::vector<Block> seeds;     ///< sender: per-tree main seeds
    std::vector<Block> miniSeeds; ///< sender: per-tree mini seeds
    std::vector<Block> otM0, otM1; ///< sender OT messages
    std::vector<Block> otOut;     ///< receiver OT results (transient)
    std::vector<Block> extra;     ///< sender: masked sums + recovery
    ChosenOtScratch ot;           ///< sender chosen-OT staging

    SpcotRecvSlot slots[2];       ///< receiver transcript slots

    std::vector<Worker> workers;

  private:
    bool ready = false;
    bool senderReady = false;
    bool receiverReady = false;
    size_t preparedTrees = 0;
    int preparedThreads = 0;
};

/**
 * Sender side of a batched SPCOT over @p num_trees trees, writing tree
 * tr's leaves to w[tr*cfg.numLeaves ...] and pushing the whole
 * transcript. Zero heap allocation once @p ws is warm.
 *
 * @param q Base-COT sender strings, num_trees*cotsPerTree() entries,
 *          consumed in traversal order (must mirror the receiver).
 * @param rng Source of the tree and mini-tree seeds.
 * @param tweak In/out hash-tweak counter shared by both parties.
 * @param pool Worker pool splitting trees into contiguous ranges, or
 *             nullptr to expand serially on the calling thread (used
 *             while the pool runs the previous iteration's LPN).
 *             Output is bit-identical either way.
 * @param prg_ops If non-null, receives the PRG invocation count.
 */
void spcotSendTranscript(net::Channel &ch, const SpcotConfig &cfg,
                         size_t num_trees, const Block &delta,
                         const Block *q, Rng &rng, uint64_t &tweak,
                         common::ThreadPool *pool, SpcotWorkspace &ws,
                         Block *w, uint64_t *prg_ops);

/**
 * Receiver stage 1: derive the mixed-radix digits and chosen-OT
 * choices from @p alphas, send the derandomization bits (consuming
 * base-COT choice bits b[b_offset ...]), and advance the shared tweak
 * counter. Records everything stage 3 needs in @p slot. @p ws must be
 * prepared for the receiver role.
 */
void spcotRecvSendChoices(net::Channel &ch, const SpcotConfig &cfg,
                          size_t num_trees, const size_t *alphas,
                          const BitVec &b, size_t b_offset,
                          uint64_t &tweak, SpcotWorkspace &ws,
                          SpcotRecvSlot &slot);

/** Receiver stage 2: pull ciphertexts + masked sums into @p slot. */
void spcotRecvRecvTranscript(net::Channel &ch, const SpcotConfig &cfg,
                             size_t num_trees, SpcotWorkspace &ws,
                             SpcotRecvSlot &slot);

/**
 * Receiver stage 3: unmask the chosen-OT outputs with the base-COT
 * strings @p t (num_trees*cotsPerTree() entries), reconstruct every
 * punctured tree, and write tree tr's leaf vector to
 * v[tr*cfg.numLeaves ...].
 */
void spcotRecvFinish(const SpcotConfig &cfg, size_t num_trees,
                     const Block *t, common::ThreadPool &pool,
                     SpcotWorkspace &ws, SpcotRecvSlot &slot, Block *v,
                     uint64_t *prg_ops);

} // namespace ironman::ot

#endif // IRONMAN_OT_SPCOT_H
