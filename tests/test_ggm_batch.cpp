/**
 * @file
 * Cross-tree level-synchronous GGM tests: ggmExpandBatchInto /
 * ggmReconstructBatchInto must be bit-identical to the per-tree
 * reference path (ggmExpandInto / ggmReconstructInto) across the
 * Table-4 tree shapes — including the mixed-radix ones — PRGs, batch
 * sizes, and both the direct (leaf_stride == leaves) and staged
 * (strided destination) final-level write, on full and pruned trees.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/ggm_tree.h"

namespace ironman::ot {
namespace {

using crypto::PrgKind;

struct BatchCase
{
    PrgKind kind;
    unsigned arity;
    size_t leaves;
    size_t trees;
    const char *name;
};

class GgmBatchParamTest : public ::testing::TestWithParam<BatchCase>
{};

TEST_P(GgmBatchParamTest, BatchExpandMatchesPerTree)
{
    const auto c = GetParam();
    const auto arities = treeArities(c.leaves, c.arity);
    const GgmSumLayout layout = GgmSumLayout::of(arities);

    Rng rng(1000);
    std::vector<Block> seeds = rng.nextBlocks(c.trees);

    // Per-tree reference.
    auto ref_prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmScratch ref_scratch;
    std::vector<Block> ref_leaves(c.trees * layout.leaves);
    std::vector<Block> ref_sums(c.trees * layout.total);
    std::vector<Block> ref_leaf_sums(c.trees);
    for (size_t tr = 0; tr < c.trees; ++tr)
        ggmExpandInto(*ref_prg, seeds[tr], layout, ref_scratch,
                      ref_leaves.data() + tr * layout.leaves,
                      ref_sums.data() + tr * layout.total,
                      &ref_leaf_sums[tr]);

    // Cross-tree batch, direct final-level write.
    auto prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmBatchScratch scratch;
    std::vector<Block> leaves(c.trees * layout.leaves);
    std::vector<Block> sums(c.trees * layout.total);
    std::vector<Block> leaf_sums(c.trees);
    ggmExpandBatchInto(*prg, seeds.data(), c.trees, layout, scratch,
                       leaves.data(), layout.leaves, sums.data(),
                       layout.total, leaf_sums.data());

    EXPECT_EQ(leaves, ref_leaves);
    EXPECT_EQ(sums, ref_sums);
    EXPECT_EQ(leaf_sums, ref_leaf_sums);
    EXPECT_EQ(prg->ops(), ref_prg->ops())
        << "batching must not change the PRG operation count";

    // Staged write at a wider stride (the copying-feed layout).
    const size_t stride = layout.leaves + 7;
    std::vector<Block> strided(c.trees * stride, Block::ones());
    GgmBatchScratch scratch2;
    auto prg2 = crypto::makeTreeExpander(c.kind, c.arity);
    ggmExpandBatchInto(*prg2, seeds.data(), c.trees, layout, scratch2,
                       strided.data(), stride, sums.data(), layout.total,
                       nullptr);
    for (size_t tr = 0; tr < c.trees; ++tr)
        for (size_t j = 0; j < layout.leaves; ++j)
            ASSERT_EQ(strided[tr * stride + j],
                      ref_leaves[tr * layout.leaves + j])
                << "tree " << tr << " leaf " << j;
}

TEST_P(GgmBatchParamTest, BatchReconstructMatchesPerTree)
{
    const auto c = GetParam();
    const auto arities = treeArities(c.leaves, c.arity);
    const GgmSumLayout layout = GgmSumLayout::of(arities);
    const size_t num_levels = arities.size();

    Rng rng(2000);
    std::vector<Block> seeds = rng.nextBlocks(c.trees);
    std::vector<size_t> alphas(c.trees);
    for (size_t tr = 0; tr < c.trees; ++tr)
        alphas[tr] = rng.nextBelow(layout.leaves);
    alphas[0] = 0;                                  // edges
    alphas[c.trees - 1] = layout.leaves - 1;

    // Sender expansion provides the known sums (punctured digit
    // zeroed to prove it is never read).
    auto send_prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmScratch send_scratch;
    std::vector<Block> w(c.trees * layout.leaves);
    std::vector<Block> sums(c.trees * layout.total);
    Block leaf_sum;
    for (size_t tr = 0; tr < c.trees; ++tr)
        ggmExpandInto(*send_prg, seeds[tr], layout, send_scratch,
                      w.data() + tr * layout.leaves,
                      sums.data() + tr * layout.total, &leaf_sum);
    for (size_t tr = 0; tr < c.trees; ++tr) {
        auto digits = alphaDigits(alphas[tr], arities);
        for (size_t lvl = 0; lvl < num_levels; ++lvl)
            sums[tr * layout.total + layout.offset[lvl] + digits[lvl]] =
                Block::zero();
    }

    // Per-tree reference reconstruction.
    auto ref_prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmScratch ref_scratch;
    std::vector<Block> ref_v(c.trees * layout.leaves);
    for (size_t tr = 0; tr < c.trees; ++tr)
        ggmReconstructInto(*ref_prg, alphas[tr], layout,
                           sums.data() + tr * layout.total, ref_scratch,
                           ref_v.data() + tr * layout.leaves);

    // Cross-tree batch, direct.
    auto prg = crypto::makeTreeExpander(c.kind, c.arity);
    GgmBatchScratch scratch;
    std::vector<Block> v(c.trees * layout.leaves);
    ggmReconstructBatchInto(*prg, alphas.data(), c.trees, layout,
                            sums.data(), layout.total, scratch, v.data(),
                            layout.leaves);
    EXPECT_EQ(v, ref_v);

    // And against the sender truth: equal everywhere except alpha.
    for (size_t tr = 0; tr < c.trees; ++tr)
        for (size_t j = 0; j < layout.leaves; ++j) {
            const Block expect = j == alphas[tr]
                                     ? Block::zero()
                                     : w[tr * layout.leaves + j];
            ASSERT_EQ(v[tr * layout.leaves + j], expect)
                << "tree " << tr << " leaf " << j;
        }

    // Staged write at a wider stride.
    const size_t stride = layout.leaves + 3;
    std::vector<Block> strided(c.trees * stride, Block::ones());
    GgmBatchScratch scratch2;
    auto prg2 = crypto::makeTreeExpander(c.kind, c.arity);
    ggmReconstructBatchInto(*prg2, alphas.data(), c.trees, layout,
                            sums.data(), layout.total, scratch2,
                            strided.data(), stride);
    for (size_t tr = 0; tr < c.trees; ++tr)
        for (size_t j = 0; j < layout.leaves; ++j)
            ASSERT_EQ(strided[tr * stride + j],
                      ref_v[tr * layout.leaves + j])
                << "tree " << tr << " leaf " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GgmBatchParamTest,
    ::testing::Values(
        // The four Table-4 tree shapes (l = bit_ceil(ceil(n/t))).
        BatchCase{PrgKind::ChaCha8, 4, 4096, 9, "t4_2e20"},   // 2^20/2^21
        BatchCase{PrgKind::ChaCha8, 4, 8192, 5, "t4_2e22"},   // mixed [2,4^6]
        BatchCase{PrgKind::ChaCha8, 4, 16384, 3, "t4_2e23"},  // 2^23/2^24
        BatchCase{PrgKind::ChaCha8, 4, 1024, 20, "t4_tiny"},  // tiny set
        // Mixed radix with wide levels + AES + single tree + odd batch.
        BatchCase{PrgKind::ChaCha8, 32, 2048, 7, "m32_mixed"}, // [2,32,32]
        BatchCase{PrgKind::Aes, 2, 64, 13, "aes_binary"},
        BatchCase{PrgKind::Aes, 4, 256, 1, "aes_single_tree"},
        BatchCase{PrgKind::ChaCha20, 8, 512, 6, "cc20_m8"}),
    [](const auto &info) { return std::string(info.param.name); });

struct PrunedBatchCase
{
    unsigned arity;
    size_t leaves;
    const char *name;
};

class GgmPrunedBatchTest : public ::testing::TestWithParam<PrunedBatchCase>
{};

/**
 * Pruned trees (only the leaf prefix [0, width) expanded): the batch
 * paths, compacting the cross-tree matrix after every cut level, equal
 * the per-tree paths for widths on and off the last arity, through
 * both the direct (stride == width) and the staged final level.
 */
TEST_P(GgmPrunedBatchTest, BatchMatchesPerTree)
{
    const auto [m, leaves, name] = GetParam();
    const auto arities = treeArities(leaves, m);
    const size_t trees = 5;
    Rng rng(3000);
    const std::vector<Block> seeds = rng.nextBlocks(trees);

    for (size_t width : {size_t(1), size_t(m - 1), size_t(m + 1),
                         leaves / 2 + 1, leaves - 1, leaves}) {
        const GgmSumLayout layout = GgmSumLayout::of(arities, width);
        std::vector<size_t> alphas(trees);
        for (size_t tr = 0; tr < trees; ++tr)
            alphas[tr] = rng.nextBelow(width);
        alphas[0] = 0;
        alphas[trees - 1] = width - 1;

        // Per-tree reference expansion and reconstruction.
        auto ref_prg = crypto::makeTreeExpander(PrgKind::ChaCha8, m);
        GgmScratch ref_scratch;
        std::vector<Block> ref_w(trees * width), ref_v(trees * width);
        std::vector<Block> ref_sums(trees * layout.total);
        std::vector<Block> ref_leaf_sums(trees);
        for (size_t tr = 0; tr < trees; ++tr)
            ggmExpandInto(*ref_prg, seeds[tr], layout, ref_scratch,
                          ref_w.data() + tr * width,
                          ref_sums.data() + tr * layout.total,
                          &ref_leaf_sums[tr]);
        std::vector<Block> known = ref_sums;
        for (size_t tr = 0; tr < trees; ++tr) {
            const auto digits = alphaDigits(alphas[tr], arities);
            for (size_t lvl = 0; lvl < arities.size(); ++lvl)
                known[tr * layout.total + layout.offset[lvl] +
                      digits[lvl]] = Block::zero();
            ggmReconstructInto(*ref_prg, alphas[tr], layout,
                               known.data() + tr * layout.total,
                               ref_scratch, ref_v.data() + tr * width);
        }

        for (size_t stride : {width, width + 3}) {
            auto prg = crypto::makeTreeExpander(PrgKind::ChaCha8, m);
            GgmBatchScratch scratch;
            std::vector<Block> w(trees * stride, Block::ones());
            std::vector<Block> sums(trees * layout.total);
            std::vector<Block> leaf_sums(trees);
            ggmExpandBatchInto(*prg, seeds.data(), trees, layout, scratch,
                               w.data(), stride, sums.data(),
                               layout.total, leaf_sums.data());
            EXPECT_EQ(sums, ref_sums) << name << " width " << width;
            EXPECT_EQ(leaf_sums, ref_leaf_sums)
                << name << " width " << width;
            EXPECT_EQ(prg->ops(), trees * layout.expansions() *
                                      ((m + 3) / 4))
                << name << " width " << width;

            std::vector<Block> v(trees * stride, Block::ones());
            ggmReconstructBatchInto(*prg, alphas.data(), trees, layout,
                                    known.data(), layout.total, scratch,
                                    v.data(), stride);
            for (size_t tr = 0; tr < trees; ++tr)
                for (size_t j = 0; j < width; ++j) {
                    ASSERT_EQ(w[tr * stride + j], ref_w[tr * width + j])
                        << name << " width " << width << " stride "
                        << stride << " tree " << tr << " leaf " << j;
                    ASSERT_EQ(v[tr * stride + j], ref_v[tr * width + j])
                        << name << " width " << width << " stride "
                        << stride << " tree " << tr << " leaf " << j;
                }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GgmPrunedBatchTest,
    ::testing::Values(PrunedBatchCase{2, 64, "m2_l64"},
                      PrunedBatchCase{4, 8192, "m4_l8192"}, // [2, 4^6]
                      PrunedBatchCase{8, 512, "m8_l512"}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace ironman::ot
