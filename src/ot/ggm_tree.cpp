#include "ot/ggm_tree.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace ironman::ot {

std::vector<unsigned>
treeArities(size_t leaves, unsigned m)
{
    IRONMAN_CHECK(leaves >= 2 && std::has_single_bit(leaves),
                  "leaf count must be a power of two");
    IRONMAN_CHECK(m >= 2 && std::has_single_bit(uint64_t(m)),
                  "arity must be a power of two");

    unsigned total_bits = std::countr_zero(leaves);
    unsigned m_bits = std::countr_zero(uint64_t(m));

    std::vector<unsigned> arities;
    unsigned rem = total_bits % m_bits;
    if (rem)
        arities.push_back(1u << rem);
    for (unsigned i = 0; i < total_bits / m_bits; ++i)
        arities.push_back(m);
    return arities;
}

size_t
alignedTreeWidth(size_t width, size_t leaves, unsigned m)
{
    const size_t m_last = std::min<size_t>(m, leaves);
    return (width + m_last - 1) / m_last * m_last;
}

void
alphaDigitsInto(size_t alpha, const std::vector<unsigned> &arities,
                unsigned *digits)
{
    size_t leaves = 1;
    for (unsigned a : arities)
        leaves *= a;
    IRONMAN_CHECK(alpha < leaves);

    for (size_t i = arities.size(); i-- > 0;) {
        digits[i] = unsigned(alpha % arities[i]);
        alpha /= arities[i];
    }
}

std::vector<unsigned>
alphaDigits(size_t alpha, const std::vector<unsigned> &arities)
{
    std::vector<unsigned> digits(arities.size());
    alphaDigitsInto(alpha, arities, digits.data());
    return digits;
}

GgmSumLayout
GgmSumLayout::of(const std::vector<unsigned> &arities, size_t width)
{
    GgmSumLayout layout;
    layout.arities = arities;
    layout.offset.reserve(arities.size());
    layout.leaves = 1;
    for (unsigned m : arities) {
        layout.offset.push_back(uint32_t(layout.total));
        layout.total += m;
        layout.leaves *= m;
    }
    layout.width = width ? width : layout.leaves;
    IRONMAN_CHECK(layout.width <= layout.leaves,
                  "tree width exceeds its leaf count");

    // Depth d keeps every node with a kept leaf below it.
    layout.nodes.resize(arities.size() + 1);
    size_t below = layout.leaves;
    for (size_t d = 0; d <= arities.size(); ++d) {
        layout.nodes[d] = (layout.width + below - 1) / below;
        if (d < arities.size())
            below /= arities[d];
    }
    return layout;
}

size_t
GgmSumLayout::expansions() const
{
    size_t total = 0;
    for (size_t d = 0; d < arities.size(); ++d)
        total += nodes[d];
    return total;
}

namespace {

/** Children level @p lvl expands per tree (before pruning). */
size_t
bornAt(const GgmSumLayout &layout, size_t lvl)
{
    return layout.nodes[lvl] * layout.arities[lvl];
}

/** Widest level one tree's expansion writes, over levels [0, upto). */
size_t
widestLevel(const GgmSumLayout &layout, size_t upto)
{
    size_t widest = 1;
    for (size_t lvl = 0; lvl < upto; ++lvl)
        widest = std::max(widest, bornAt(layout, lvl));
    return widest;
}

/**
 * Whether the last level can be expanded straight into a caller span
 * of stride @p leaf_stride: it must produce exactly the kept leaves.
 */
bool
directFinalLevel(const GgmSumLayout &layout, size_t leaf_stride)
{
    return leaf_stride == layout.width &&
           bornAt(layout, layout.arities.size() - 1) == layout.width;
}

/** XOR of the last level's slot sums: every expanded leaf. */
Block
lastLevelXor(const GgmSumLayout &layout, const Block *level_sums)
{
    const size_t last = layout.arities.size() - 1;
    const Block *sums = level_sums + layout.offset[last];
    Block total = Block::zero();
    for (unsigned c = 0; c < layout.arities[last]; ++c)
        total ^= sums[c];
    return total;
}

/**
 * Move each tree's first @p keep of @p born nodes down to stride
 * @p keep, in place (tree 0 is already there; every destination lies
 * below its source, so a forward copy never reads a moved node).
 */
void
compactTrees(Block *matrix, size_t num_trees, size_t born, size_t keep)
{
    if (keep == born)
        return;
    for (size_t tr = 1; tr < num_trees; ++tr)
        std::copy(matrix + tr * born, matrix + tr * born + keep,
                  matrix + tr * keep);
}

} // namespace

void
GgmScratch::reserve(const GgmSumLayout &layout)
{
    // Every level, the staged last one included, fits the widest;
    // reconstruction packs up to a full level of parents/children.
    const size_t cap = widestLevel(layout, layout.arities.size());
    const unsigned max_arity = *std::max_element(layout.arities.begin(),
                                                 layout.arities.end());
    if (ping.size() < cap)
        ping.resize(cap);
    if (pong.size() < cap)
        pong.resize(cap);
    if (parents.size() < cap)
        parents.resize(cap);
    if (children.size() < cap)
        children.resize(cap);
    if (acc.size() < max_arity)
        acc.resize(max_arity);
}

void
ggmExpandInto(crypto::SeedExpander &prg, const Block &seed,
              const GgmSumLayout &layout, GgmScratch &scratch,
              Block *leaves, Block *level_sums, Block *leaf_sum)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1);
    scratch.reserve(layout);

    Block *cur = scratch.ping.data();
    cur[0] = seed;

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const size_t count = layout.nodes[lvl];
        Block *next = lvl + 1 == num_levels &&
                              directFinalLevel(layout, layout.width)
                          ? leaves
                          : (cur == scratch.ping.data()
                                 ? scratch.pong.data()
                                 : scratch.ping.data());
        prg.expand(cur, next, count, m);

        Block *sums = level_sums + layout.offset[lvl];
        std::fill(sums, sums + m, Block::zero());
        for (size_t j = 0; j < count; ++j)
            for (unsigned c = 0; c < m; ++c)
                sums[c] ^= next[j * m + c];

        cur = next;
    }

    if (cur != leaves)
        std::copy_n(cur, layout.width, leaves);
    *leaf_sum = lastLevelXor(layout, level_sums);
}

void
GgmBatchScratch::reserve(size_t trees, const GgmSumLayout &layout,
                         bool staged_leaves)
{
    const size_t num_levels = layout.arities.size();
    // Non-final levels ping-pong through the matrices; a staged final
    // level does too.
    const size_t cap =
        widestLevel(layout, staged_leaves ? num_levels : num_levels - 1);
    const unsigned max_arity = *std::max_element(layout.arities.begin(),
                                                 layout.arities.end());
    if (ping.size() < trees * cap)
        ping.resize(trees * cap);
    if (pong.size() < trees * cap)
        pong.resize(trees * cap);
    if (seeds.size() < trees)
        seeds.resize(trees);
    if (acc.size() < max_arity)
        acc.resize(max_arity);
    if (digits.size() < trees * num_levels)
        digits.resize(trees * num_levels);
    if (holes.size() < trees)
        holes.resize(trees);
}

void
ggmExpandBatchInto(crypto::SeedExpander &prg, const Block *seeds,
                   size_t num_trees, const GgmSumLayout &layout,
                   GgmBatchScratch &scratch, Block *leaves,
                   size_t leaf_stride, Block *level_sums,
                   size_t sums_stride, Block *leaf_sums)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && num_trees >= 1);
    const bool staged = !directFinalLevel(layout, leaf_stride);
    scratch.reserve(num_trees, layout, staged);

    std::copy(seeds, seeds + num_trees, scratch.seeds.data());
    const Block *cur = scratch.seeds.data();
    Block *pa = scratch.ping.data();
    Block *pb = scratch.pong.data();

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const size_t count = layout.nodes[lvl];
        const size_t born = count * m;
        const bool final_lvl = lvl + 1 == num_levels;
        Block *next = final_lvl && !staged ? leaves
                                           : (cur == pa ? pb : pa);
        // ONE expander call covers this level of every tree: the
        // tree-major matrix is self-preserving under expansion (seed
        // i's children land at i*m .. i*m+m-1).
        prg.expand(cur, next, num_trees * count, m);

        for (size_t tr = 0; tr < num_trees; ++tr) {
            Block *sums =
                level_sums + tr * sums_stride + layout.offset[lvl];
            const Block *kids = next + tr * born;
            std::fill(sums, sums + m, Block::zero());
            for (size_t j = 0; j < count; ++j)
                for (unsigned c = 0; c < m; ++c)
                    sums[c] ^= kids[j * m + c];
        }

        compactTrees(next, num_trees, born, layout.nodes[lvl + 1]);
        cur = next;
    }

    if (staged)
        for (size_t tr = 0; tr < num_trees; ++tr)
            std::copy_n(cur + tr * layout.width, layout.width,
                        leaves + tr * leaf_stride);

    if (leaf_sums)
        for (size_t tr = 0; tr < num_trees; ++tr)
            leaf_sums[tr] =
                lastLevelXor(layout, level_sums + tr * sums_stride);
}

void
ggmReconstructBatchInto(crypto::SeedExpander &prg, const size_t *alphas,
                        size_t num_trees, const GgmSumLayout &layout,
                        const Block *known_sums, size_t sums_stride,
                        GgmBatchScratch &scratch, Block *leaves,
                        size_t leaf_stride)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && num_trees >= 1);
    const bool staged = !directFinalLevel(layout, leaf_stride);
    scratch.reserve(num_trees, layout, staged);

    for (size_t tr = 0; tr < num_trees; ++tr) {
        IRONMAN_CHECK(alphas[tr] < layout.width);
        alphaDigitsInto(alphas[tr], layout.arities,
                        scratch.digits.data() + tr * num_levels);
        scratch.holes[tr] = 0;
    }

    // The punctured node of every tree rides through the batched
    // expansion as a zero seed: its children are garbage, excluded
    // from the slot sums and overwritten by the recovery below — so
    // each level stays ONE expander call with no parent packing.
    std::fill(scratch.seeds.data(), scratch.seeds.data() + num_trees,
              Block::zero());
    const Block *cur = scratch.seeds.data();
    Block *pa = scratch.ping.data();
    Block *pb = scratch.pong.data();
    Block *acc = scratch.acc.data();

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const size_t count = layout.nodes[lvl];
        const size_t born = count * m;
        const bool final_lvl = lvl + 1 == num_levels;
        Block *next = final_lvl && !staged ? leaves
                                           : (cur == pa ? pb : pa);
        prg.expand(cur, next, num_trees * count, m);

        for (size_t tr = 0; tr < num_trees; ++tr) {
            const unsigned digit =
                scratch.digits[tr * num_levels + lvl];
            const size_t hole = scratch.holes[tr];
            Block *kids = next + tr * born;

            std::fill(acc, acc + m, Block::zero());
            for (size_t j = 0; j < count; ++j) {
                if (j == hole)
                    continue;
                for (unsigned c = 0; c < m; ++c)
                    acc[c] ^= kids[j * m + c];
            }

            // Recover the punctured parent's children at every slot
            // except the path digit: child = K_c ^ (known slot-c sum).
            const Block *sums =
                known_sums + tr * sums_stride + layout.offset[lvl];
            for (unsigned c = 0; c < m; ++c)
                kids[hole * m + c] =
                    c == digit ? Block::zero() : sums[c] ^ acc[c];

            scratch.holes[tr] = hole * m + digit;
        }

        compactTrees(next, num_trees, born, layout.nodes[lvl + 1]);
        cur = next;
    }

    if (staged)
        for (size_t tr = 0; tr < num_trees; ++tr)
            std::copy_n(cur + tr * layout.width, layout.width,
                        leaves + tr * leaf_stride);
}

void
ggmReconstructInto(crypto::SeedExpander &prg, size_t alpha,
                   const GgmSumLayout &layout, const Block *known_sums,
                   GgmScratch &scratch, Block *leaves)
{
    const size_t num_levels = layout.arities.size();
    IRONMAN_CHECK(num_levels >= 1 && alpha < layout.width);
    constexpr size_t kMaxLevels = 64;
    IRONMAN_CHECK(num_levels <= kMaxLevels);
    unsigned digits[kMaxLevels];
    alphaDigitsInto(alpha, layout.arities, digits);
    scratch.reserve(layout);

    // cur holds the kept nodes of the current level; the entry at the
    // path index `hole` is unknown (kept zero and never read as a
    // parent).
    Block *cur = scratch.ping.data();
    cur[0] = Block::zero();
    size_t hole = 0;

    for (size_t lvl = 0; lvl < num_levels; ++lvl) {
        const unsigned m = layout.arities[lvl];
        const unsigned digit = digits[lvl];
        const size_t count = layout.nodes[lvl];
        Block *next = lvl + 1 == num_levels &&
                              directFinalLevel(layout, layout.width)
                          ? leaves
                          : (cur == scratch.ping.data()
                                 ? scratch.pong.data()
                                 : scratch.ping.data());

        // Expand every *known* parent (batched, skipping the hole);
        // accumulate per-slot sums over the children we just derived.
        Block *packed = scratch.parents.data();
        for (size_t j = 0; j < count; ++j)
            if (j != hole)
                *packed++ = cur[j];
        const size_t known = count - 1;
        prg.expand(scratch.parents.data(), scratch.children.data(),
                   known, m);

        Block *acc = scratch.acc.data();
        std::fill(acc, acc + m, Block::zero());
        size_t src = 0;
        for (size_t j = 0; j < count; ++j) {
            if (j == hole)
                continue;
            for (unsigned c = 0; c < m; ++c) {
                Block child = scratch.children[src * m + c];
                next[j * m + c] = child;
                acc[c] ^= child;
            }
            ++src;
        }

        // Recover the punctured parent's children at every slot except
        // the path digit: child = K_c ^ (sum of known slot-c children).
        const Block *sums = known_sums + layout.offset[lvl];
        for (unsigned c = 0; c < m; ++c)
            next[hole * m + c] =
                c == digit ? Block::zero() : sums[c] ^ acc[c];

        hole = hole * m + digit;
        cur = next;
    }

    IRONMAN_CHECK(hole == alpha);
    if (cur != leaves)
        std::copy_n(cur, layout.width, leaves);
}

} // namespace ironman::ot
