/**
 * @file
 * GGM puncturable-PRF trees with mixed-radix m-ary expansion.
 *
 * The sender expands a seed level by level; at every level it records,
 * for each child-slot residue c, the XOR of all nodes occupying slot c
 * (the K^i_c "keys" of Sec. 2.3.1 / Fig. 3(b), generalized from
 * even/odd to m residues). The receiver, holding for each level all
 * sums except the one at its punctured digit, reconstructs every leaf
 * except the one at index alpha.
 *
 * Tree shapes are mixed-radix: a leaf count of 8192 with target arity
 * 4 becomes level arities [2, 4, 4, 4, 4, 4, 4]. This is how the
 * paper's Table 4 trees (l = 8192, 4-ary) are realizable.
 *
 * Trees are pruned to a leaf prefix: a layout of width w expands only
 * the nodes with a leaf in [0, w) below them — level i keeps the first
 * ceil(w / leaves-below-a-level-i-node) nodes — so the FERRET engines
 * pay for the ceil(n/t) leaves a regular-noise bucket reads, not for
 * the bit_ceil tree around it. Every child of a kept parent is
 * expanded and enters the level's slot sums (at most m-1 per level lie
 * past the prefix and are dropped after summing), so the receiver,
 * whose punctured path stays inside the prefix (alpha < w), derives
 * the same sums. A full tree is the case w == leaves. The leaves
 * [0, w) equal the full tree's; the slot sums do not.
 *
 * The entry points are span-based and allocation-free: callers
 * provide the output leaf span, a flattened level-sum span described
 * by GgmSumLayout, and a reusable GgmScratch.
 */

#ifndef IRONMAN_OT_GGM_TREE_H
#define IRONMAN_OT_GGM_TREE_H

#include <cstdint>
#include <vector>

#include "common/block.h"
#include "crypto/seed_expander.h"

namespace ironman::ot {

/**
 * Per-level arities for a tree with @p leaves leaves (power of two)
 * and target arity @p m (power of two, >= 2). Lower-arity levels, if
 * any, are placed at the top so the wide levels get the bulk of the
 * nodes.
 */
std::vector<unsigned> treeArities(size_t leaves, unsigned m);

/**
 * @p width rounded up to the last level's arity of treeArities(@p
 * leaves, @p m), min(m, leaves): the narrowest prefix of at least
 * @p width leaves whose last level a pruned expansion writes exactly.
 */
size_t alignedTreeWidth(size_t width, size_t leaves, unsigned m);

/** Digits of @p alpha in the mixed radix of @p arities (MSD first). */
std::vector<unsigned> alphaDigits(size_t alpha,
                                  const std::vector<unsigned> &arities);

/** Same, writing into caller storage (arities.size() entries). */
void alphaDigitsInto(size_t alpha, const std::vector<unsigned> &arities,
                     unsigned *digits);

/**
 * Shape of one (pruned) tree plus the flattened storage layout of its
 * per-level slot sums: level i's arities[i] sums live at
 * [offset[i], offset[i] + arities[i]).
 */
struct GgmSumLayout
{
    std::vector<unsigned> arities; ///< per-level arities (MSD first)
    std::vector<uint32_t> offset;  ///< per-level start into the flat span
    size_t leaves = 0;             ///< product of arities
    size_t total = 0;              ///< flat span length (sum of arities)
    size_t width = 0;              ///< leaves kept: the prefix [0, width)
    /// Kept nodes per depth (levels + 1 entries, nodes[0] == 1 root,
    /// nodes.back() == width); level i expands nodes[i] parents.
    std::vector<size_t> nodes;

    /** Layout over the first @p width leaves (0: every leaf). */
    static GgmSumLayout of(const std::vector<unsigned> &arities,
                           size_t width = 0);

    /** Parent expansions per tree: the sum of nodes[0 .. levels). */
    size_t expansions() const;
};

/**
 * Reusable scratch for allocation-free expansion/reconstruction.
 * Buffers grow on demand and are retained, so steady-state use
 * performs no heap allocation. One instance per thread.
 */
struct GgmScratch
{
    std::vector<Block> ping;     ///< level ping-pong buffer
    std::vector<Block> pong;     ///< level ping-pong buffer
    std::vector<Block> parents;  ///< reconstruction: packed known parents
    std::vector<Block> children; ///< reconstruction: their children
    std::vector<Block> acc;      ///< reconstruction: per-slot partial sums

    /** Pre-size every buffer for one tree of @p layout. */
    void reserve(const GgmSumLayout &layout);
};

/**
 * Expand @p seed through the levels of @p layout.
 *
 * @param leaves Receives layout.width blocks (the kept leaves).
 * @param level_sums Receives layout.total blocks (the flattened K keys).
 * @param leaf_sum Receives the XOR of every expanded last-level child
 *        (the XOR of the kept leaves when layout.width is a multiple
 *        of the last arity, as SPCOT's stride always is).
 */
void ggmExpandInto(crypto::SeedExpander &prg, const Block &seed,
                   const GgmSumLayout &layout, GgmScratch &scratch,
                   Block *leaves, Block *level_sums, Block *leaf_sum);

/**
 * Reconstruct all kept leaves except @p alpha < layout.width into
 * @p leaves (layout.width blocks; the entry at alpha is set to zero).
 *
 * @param known_sums Flat span per @p layout; the entry at level i's
 *        punctured digit is ignored.
 */
void ggmReconstructInto(crypto::SeedExpander &prg, size_t alpha,
                        const GgmSumLayout &layout, const Block *known_sums,
                        GgmScratch &scratch, Block *leaves);

/**
 * Reusable scratch of the level-synchronous cross-tree batch path:
 * ping-pong matrices holding ALL trees' level-i nodes lane-contiguous
 * (tree-major), so each level of the whole batch is ONE SeedExpander
 * call. A pruned level is compacted in place (each tree's kept prefix
 * moved down to stride nodes[i+1]) before the next level expands it.
 * Grow-only; one instance per thread.
 */
struct GgmBatchScratch
{
    std::vector<Block> ping;      ///< cross-tree level matrix
    std::vector<Block> pong;      ///< cross-tree level matrix
    std::vector<Block> seeds;     ///< gathered/zero root seeds
    std::vector<Block> acc;       ///< per-slot partial sums (max arity)
    std::vector<unsigned> digits; ///< reconstruction: trees x levels
    std::vector<size_t> holes;    ///< reconstruction: per-tree hole path

    /**
     * Pre-size for @p trees trees of @p layout. @p staged_leaves must
     * be true when the final level cannot be written straight into the
     * caller's span (see ggmExpandBatchInto), which stages the last
     * level in the ping-pong matrices too.
     */
    void reserve(size_t trees, const GgmSumLayout &layout,
                 bool staged_leaves);
};

/**
 * Level-synchronous expansion of @p num_trees trees through @p layout:
 * every level of the whole batch is ONE prg.expand() call over the
 * lane-contiguous cross-tree node matrix (the matrix layout is
 * self-preserving: seed i's children land at i*m..i*m+m-1, so
 * tree-major stays tree-major). Bit-identical to ggmExpandInto() per
 * tree.
 *
 * When @p leaf_stride == layout.width and the last level expands
 * exactly width children (width a multiple of the last arity), the
 * final level is expanded DIRECTLY into @p leaves (tree tr at
 * leaves + tr*leaf_stride), as the FERRET engines' leaf slot does;
 * otherwise the last level is staged and its kept prefix copied per
 * tree.
 *
 * @param leaf_sums Receives each tree's leaf sum as ggmExpandInto()
 *        defines it (num_trees entries); may be nullptr.
 */
void ggmExpandBatchInto(crypto::SeedExpander &prg, const Block *seeds,
                        size_t num_trees, const GgmSumLayout &layout,
                        GgmBatchScratch &scratch, Block *leaves,
                        size_t leaf_stride, Block *level_sums,
                        size_t sums_stride, Block *leaf_sums);

/**
 * Level-synchronous reconstruction of @p num_trees punctured trees:
 * one prg.expand() call per level over the cross-tree matrix (the
 * punctured node of each tree rides along as a zero seed whose
 * children are discarded and recovered from the known sums, so no
 * parent packing/unpacking pass is needed). Bit-identical leaf output
 * to ggmReconstructInto() per tree; tree tr's known sums are read at
 * known_sums + tr*sums_stride, its layout.width leaves written at
 * leaves + tr*leaf_stride (direct or staged final level, by the same
 * rule as ggmExpandBatchInto).
 */
void ggmReconstructBatchInto(crypto::SeedExpander &prg,
                             const size_t *alphas, size_t num_trees,
                             const GgmSumLayout &layout,
                             const Block *known_sums, size_t sums_stride,
                             GgmBatchScratch &scratch, Block *leaves,
                             size_t leaf_stride);

} // namespace ironman::ot

#endif // IRONMAN_OT_GGM_TREE_H
