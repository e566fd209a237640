/**
 * @file
 * GGM tree tests: the punctured reconstruction must agree with the
 * sender's expansion on every leaf except alpha, across arities, PRGs
 * and tree sizes, full and pruned to a leaf prefix (invariant 3 of
 * DESIGN.md). Exercises the span-based workspace API (ggmExpandInto /
 * ggmReconstructInto) directly.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/ggm_tree.h"

namespace ironman::ot {
namespace {

using crypto::PrgKind;

/** Test-local expansion mirror of the deleted vector wrapper. */
struct Expansion
{
    std::vector<Block> leaves;
    std::vector<std::vector<Block>> levelSums;
    Block leafSum;
};

Expansion
expand(crypto::SeedExpander &prg, const Block &seed,
       const std::vector<unsigned> &arities)
{
    GgmSumLayout layout = GgmSumLayout::of(arities);
    GgmScratch scratch;
    std::vector<Block> flat(layout.total);

    Expansion out;
    out.leaves.resize(layout.leaves);
    ggmExpandInto(prg, seed, layout, scratch, out.leaves.data(),
                  flat.data(), &out.leafSum);

    out.levelSums.resize(arities.size());
    for (size_t lvl = 0; lvl < arities.size(); ++lvl)
        out.levelSums[lvl].assign(flat.begin() + layout.offset[lvl],
                                  flat.begin() + layout.offset[lvl] +
                                      arities[lvl]);
    return out;
}

std::vector<Block>
reconstruct(crypto::SeedExpander &prg, size_t alpha,
            const std::vector<unsigned> &arities,
            const std::vector<std::vector<Block>> &known_sums)
{
    GgmSumLayout layout = GgmSumLayout::of(arities);
    std::vector<Block> flat(layout.total);
    for (size_t lvl = 0; lvl < arities.size(); ++lvl)
        std::copy(known_sums[lvl].begin(), known_sums[lvl].end(),
                  flat.begin() + layout.offset[lvl]);

    GgmScratch scratch;
    std::vector<Block> leaves(layout.leaves);
    ggmReconstructInto(prg, alpha, layout, flat.data(), scratch,
                       leaves.data());
    return leaves;
}

TEST(TreeAritiesTest, UniformAndMixedRadix)
{
    EXPECT_EQ(treeArities(4096, 2), std::vector<unsigned>(12, 2));
    EXPECT_EQ(treeArities(4096, 4), std::vector<unsigned>(6, 4));
    // 8192 = 2 * 4^6: one binary level on top.
    std::vector<unsigned> expect8192{2, 4, 4, 4, 4, 4, 4};
    EXPECT_EQ(treeArities(8192, 4), expect8192);
    // 32-ary over 1024 leaves = 2 levels of 32.
    EXPECT_EQ(treeArities(1024, 32), std::vector<unsigned>(2, 32));
    // 2048 with 32-ary: 2048 = 2 * 32^2.
    std::vector<unsigned> expect2048{2, 32, 32};
    EXPECT_EQ(treeArities(2048, 32), expect2048);
}

TEST(TreeAritiesTest, ProductAlwaysMatchesLeafCount)
{
    for (unsigned m : {2u, 4u, 8u, 16u, 32u}) {
        for (size_t lg = 1; lg <= 14; ++lg) {
            size_t leaves = size_t(1) << lg;
            if (leaves < m && leaves < 2)
                continue;
            auto arities = treeArities(leaves, m);
            size_t prod = 1;
            for (unsigned a : arities)
                prod *= a;
            EXPECT_EQ(prod, leaves) << "m=" << m << " leaves=" << leaves;
        }
    }
}

TEST(AlphaDigitsTest, MixedRadixDecomposition)
{
    // arities [2, 4]: index = d0*4 + d1.
    std::vector<unsigned> arities{2, 4};
    auto d = alphaDigits(6, arities); // 6 = 1*4 + 2
    EXPECT_EQ(d[0], 1u);
    EXPECT_EQ(d[1], 2u);
    d = alphaDigits(0, arities);
    EXPECT_EQ(d[0], 0u);
    EXPECT_EQ(d[1], 0u);
    d = alphaDigits(7, arities);
    EXPECT_EQ(d[0], 1u);
    EXPECT_EQ(d[1], 3u);
}

TEST(GgmExpandTest, SumsAndLeafSumConsistent)
{
    auto prg = crypto::makeTreeExpander(PrgKind::ChaCha8, 4);
    auto arities = treeArities(64, 4);
    Expansion exp = expand(*prg, Block::fromUint64(5), arities);

    ASSERT_EQ(exp.leaves.size(), 64u);
    ASSERT_EQ(exp.levelSums.size(), 3u);

    // Last level sums: XOR of leaves by child-slot residue.
    std::vector<Block> slot(4, Block::zero());
    Block total = Block::zero();
    for (size_t j = 0; j < exp.leaves.size(); ++j) {
        slot[j % 4] ^= exp.leaves[j];
        total ^= exp.leaves[j];
    }
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(exp.levelSums.back()[c], slot[c]);
    EXPECT_EQ(exp.leafSum, total);
}

struct GgmCase
{
    PrgKind kind;
    unsigned arity;
    size_t leaves;
};

class GgmParamTest : public ::testing::TestWithParam<GgmCase>
{};

TEST_P(GgmParamTest, ReconstructionMatchesExceptAlpha)
{
    const auto [kind, arity, leaves] = GetParam();
    auto arities = treeArities(leaves, arity);

    auto sender_prg = crypto::makeTreeExpander(kind, arity);
    auto receiver_prg = crypto::makeTreeExpander(kind, arity);
    Rng rng(1234);

    Block seed = rng.nextBlock();
    Expansion exp = expand(*sender_prg, seed, arities);

    // Exercise alphas at the edges and a few random interior points.
    std::vector<size_t> alphas{0, leaves - 1, leaves / 2};
    for (int i = 0; i < 3; ++i)
        alphas.push_back(rng.nextBelow(leaves));

    for (size_t alpha : alphas) {
        // The receiver knows every level sum except at its digit; the
        // punctured entries are zeroed to prove they are not read.
        auto digits = alphaDigits(alpha, arities);
        auto known = exp.levelSums;
        for (size_t lvl = 0; lvl < known.size(); ++lvl)
            known[lvl][digits[lvl]] = Block::zero();

        std::vector<Block> rec =
            reconstruct(*receiver_prg, alpha, arities, known);
        ASSERT_EQ(rec.size(), leaves);
        for (size_t j = 0; j < leaves; ++j) {
            if (j == alpha) {
                EXPECT_EQ(rec[j], Block::zero());
            } else {
                EXPECT_EQ(rec[j], exp.leaves[j])
                    << "alpha=" << alpha << " leaf=" << j;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GgmParamTest,
    ::testing::Values(GgmCase{PrgKind::Aes, 2, 64},
                      GgmCase{PrgKind::Aes, 4, 256},
                      GgmCase{PrgKind::Aes, 4, 512},
                      GgmCase{PrgKind::ChaCha8, 2, 64},
                      GgmCase{PrgKind::ChaCha8, 4, 256},
                      GgmCase{PrgKind::ChaCha8, 4, 8192},
                      GgmCase{PrgKind::ChaCha8, 8, 512},
                      GgmCase{PrgKind::ChaCha8, 16, 256},
                      GgmCase{PrgKind::ChaCha8, 32, 2048},
                      GgmCase{PrgKind::ChaCha20, 4, 64}),
    [](const auto &info) {
        return prgKindName(info.param.kind) + "_m" +
               std::to_string(info.param.arity) + "_l" +
               std::to_string(info.param.leaves);
    });

struct PrunedCase
{
    unsigned arity;
    size_t leaves;
    const char *name;
};

class PrunedGgmTest : public ::testing::TestWithParam<PrunedCase>
{};

TEST_P(PrunedGgmTest, PrefixMatchesFullTreeAndReconstructs)
{
    const auto [arity, leaves, name] = GetParam();
    const auto arities = treeArities(leaves, arity);
    const GgmSumLayout full = GgmSumLayout::of(arities);
    Rng rng(4321);
    const Block seed = rng.nextBlock();

    auto prg = crypto::makeTreeExpander(PrgKind::ChaCha8, arity);
    GgmScratch scratch;
    std::vector<Block> full_leaves(leaves), full_sums(full.total);
    Block full_sum;
    ggmExpandInto(*prg, seed, full, scratch, full_leaves.data(),
                  full_sums.data(), &full_sum);

    for (size_t width : {size_t(1), size_t(arity - 1), size_t(arity + 1),
                         leaves / 2 + 1, leaves - 1, leaves}) {
        const GgmSumLayout layout = GgmSumLayout::of(arities, width);
        ASSERT_EQ(layout.width, width);
        ASSERT_EQ(layout.nodes.front(), 1u);
        ASSERT_EQ(layout.nodes.back(), width);

        // (a) The kept leaves are the full tree's prefix, at exactly
        // the layout's expansion count.
        auto sender_prg =
            crypto::makeTreeExpander(PrgKind::ChaCha8, arity);
        std::vector<Block> w(width), sums(layout.total);
        Block leaf_sum;
        ggmExpandInto(*sender_prg, seed, layout, scratch, w.data(),
                      sums.data(), &leaf_sum);
        for (size_t j = 0; j < width; ++j)
            ASSERT_EQ(w[j], full_leaves[j])
                << name << " width " << width << " leaf " << j;
        EXPECT_EQ(sender_prg->ops(),
                  layout.expansions() * ((arity + 3) / 4))
            << name << " width " << width;
        if (width == leaves) {
            EXPECT_EQ(sums, full_sums);
            EXPECT_EQ(leaf_sum, full_sum);
        }

        // (b) Reconstruction matches the sender on every kept leaf
        // but alpha; the punctured sums are zeroed to prove they are
        // not read.
        for (size_t alpha : {size_t(0), width - 1, rng.nextBelow(width)}) {
            std::vector<Block> known = sums;
            const auto digits = alphaDigits(alpha, arities);
            for (size_t lvl = 0; lvl < arities.size(); ++lvl)
                known[layout.offset[lvl] + digits[lvl]] = Block::zero();
            auto receiver_prg =
                crypto::makeTreeExpander(PrgKind::ChaCha8, arity);
            GgmScratch rscratch;
            std::vector<Block> v(width, Block::ones());
            ggmReconstructInto(*receiver_prg, alpha, layout, known.data(),
                               rscratch, v.data());
            for (size_t j = 0; j < width; ++j)
                ASSERT_EQ(v[j], j == alpha ? Block::zero() : w[j])
                    << name << " width " << width << " alpha " << alpha
                    << " leaf " << j;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PrunedGgmTest,
    ::testing::Values(PrunedCase{2, 64, "m2_l64"},
                      PrunedCase{4, 8192, "m4_l8192"}, // [2, 4^6]
                      PrunedCase{8, 512, "m8_l512"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(PrunedLayoutTest, TableFourBucketWidths)
{
    // 2^24: bucket 8221 rounds to w = 8224 of l = 16384; the kept
    // nodes per depth are ceil(8224 / leaves below).
    EXPECT_EQ(alignedTreeWidth(8221, 16384, 4), 8224u);
    EXPECT_EQ(alignedTreeWidth(2545, 4096, 4), 2548u);
    EXPECT_EQ(alignedTreeWidth(1, 2, 4), 2u); // one binary level
    GgmSumLayout l24 = GgmSumLayout::of(treeArities(16384, 4), 8224);
    EXPECT_EQ(l24.nodes,
              (std::vector<size_t>{1, 3, 9, 33, 129, 514, 2056, 8224}));
    EXPECT_EQ(l24.expansions(), 2745u);
    EXPECT_EQ(GgmSumLayout::of(treeArities(16384, 4)).expansions(), 5461u);
    // 2^20: bucket 2545 rounds to w = 2548 of l = 4096.
    EXPECT_EQ(GgmSumLayout::of(treeArities(4096, 4), 2548).expansions(),
              1 + 3 + 10 + 40 + 160 + 637u);
}

TEST(GgmOpsTest, OperationCountsMatchFig7Model)
{
    // To produce l leaves, an m-ary tree expands (l-1)/(m-1) internal
    // nodes; AES costs m per node, ChaCha ceil(m/4) per node.
    const size_t leaves = 4096;
    struct Row
    {
        PrgKind kind;
        unsigned m;
        uint64_t expect;
    };
    const Row rows[] = {
        {PrgKind::Aes, 2, 2 * (leaves - 1)},        // 8190
        {PrgKind::Aes, 4, 4 * (leaves - 1) / 3},    // 5460
        {PrgKind::ChaCha8, 2, leaves - 1},          // 4095
        {PrgKind::ChaCha8, 4, (leaves - 1) / 3},    // 1365
    };
    for (const Row &row : rows) {
        auto prg = crypto::makeTreeExpander(row.kind, row.m);
        expand(*prg, Block::fromUint64(1), treeArities(leaves, row.m));
        EXPECT_EQ(prg->ops(), row.expect)
            << prgKindName(row.kind) << " m=" << row.m;
    }
    // Headline claim of Sec. 4: 4-ary ChaCha vs 2-ary AES is ~6x.
    EXPECT_NEAR(double(rows[0].expect) / double(rows[3].expect), 6.0, 0.01);
}

} // namespace
} // namespace ironman::ot
