/**
 * @file
 * Bit-transpose tests: the 64x64 kernel against its naive definition,
 * and round-trip and known-answer coverage for
 * transposeColumnsToBlocks — the core data movement of IKNP-style OT
 * extension — including non-multiple-of-128 widths and the span-based
 * allocation-free entry point.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ot/bit_transpose.h"

namespace ironman::ot {
namespace {

/** Test-local wrapper over the span API. */
std::vector<Block>
transposeToVector(const std::vector<BitVec> &cols, size_t n)
{
    std::vector<Block> rows(n);
    transposeColumnsToBlocks(cols, n, rows.data());
    return rows;
}

std::vector<BitVec>
randomColumns(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<BitVec> cols(128);
    for (auto &c : cols)
        c = rng.nextBits(n);
    return cols;
}

TEST(Transpose64Test, MatchesNaive)
{
    Rng rng(61);
    uint64_t a[64], orig[64];
    for (int i = 0; i < 64; ++i)
        orig[i] = a[i] = rng.nextUint64();
    transpose64(a);
    for (int i = 0; i < 64; ++i)
        for (int j = 0; j < 64; ++j)
            ASSERT_EQ((a[i] >> j) & 1, (orig[j] >> i) & 1)
                << "i=" << i << " j=" << j;
}

TEST(Transpose64Test, IsAnInvolution)
{
    Rng rng(1);
    uint64_t a[64], orig[64];
    for (int i = 0; i < 64; ++i)
        orig[i] = a[i] = rng.nextUint64();
    transpose64(a);
    transpose64(a);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a[i], orig[i]) << "row " << i;
}

TEST(Transpose64Test, KnownAnswerDiagonalAndRow)
{
    // A single set row becomes a single set column and vice versa.
    uint64_t a[64] = {};
    a[3] = ~0ULL; // row 3 all ones
    transpose64(a);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(a[i], 1ULL << 3) << "row " << i;
}

TEST(BitTransposeTest, DefinitionHoldsOnRandomInput)
{
    const size_t n = 256;
    auto cols = randomColumns(n, 2);
    std::vector<Block> rows = transposeToVector(cols, n);
    ASSERT_EQ(rows.size(), n);
    for (size_t i = 0; i < n; ++i)
        for (unsigned j = 0; j < 128; ++j)
            ASSERT_EQ(rows[i].getBit(j), cols[j].get(i))
                << "row " << i << " bit " << j;
}

TEST(BitTransposeTest, NonMultipleOf128Width)
{
    // n only needs to be a multiple of 64; 192 exercises the odd
    // 64-row tail tile.
    const size_t n = 192;
    auto cols = randomColumns(n, 3);
    std::vector<Block> rows = transposeToVector(cols, n);
    ASSERT_EQ(rows.size(), n);
    for (size_t i = 0; i < n; ++i)
        for (unsigned j = 0; j < 128; ++j)
            ASSERT_EQ(rows[i].getBit(j), cols[j].get(i))
                << "row " << i << " bit " << j;
}

TEST(BitTransposeTest, KnownAnswerUnitColumns)
{
    // Column j = e_j (bit j set, j < 128): row i is then the unit
    // block e_i for i < 128 and zero beyond.
    const size_t n = 192;
    std::vector<BitVec> cols(128, BitVec(n));
    for (unsigned j = 0; j < 128; ++j)
        cols[j].set(j, true);
    std::vector<Block> rows = transposeToVector(cols, n);
    for (size_t i = 0; i < n; ++i) {
        Block expect = Block::zero();
        if (i < 128)
            expect.setBit(unsigned(i), true);
        EXPECT_EQ(rows[i], expect) << "row " << i;
    }
}

TEST(BitTransposeTest, SpanVariantMatchesVectorVariant)
{
    const size_t n = 320;
    auto cols = randomColumns(n, 4);
    std::vector<Block> expect = transposeToVector(cols, n);

    std::vector<Block> got(n, Block::ones()); // pre-filled garbage
    transposeColumnsToBlocks(cols, n, got.data());
    EXPECT_EQ(got, expect);
}

TEST(BitTransposeTest, RoundTripThroughTranspose)
{
    // Transposing the rows back as columns recovers the original
    // columns (128 x 128 round trip embedded in a taller matrix).
    const size_t n = 128;
    auto cols = randomColumns(n, 5);
    std::vector<Block> rows = transposeToVector(cols, n);

    std::vector<BitVec> back_cols(128, BitVec(n));
    for (unsigned j = 0; j < 128; ++j)
        for (size_t i = 0; i < n; ++i)
            back_cols[j].set(i, rows[i].getBit(j));
    std::vector<Block> back = transposeToVector(back_cols, n);

    for (size_t i = 0; i < n; ++i) {
        Block expect;
        for (unsigned j = 0; j < 128; ++j)
            expect.setBit(j, cols[j].get(i));
        // back[i] bit j == back_cols[j].get(i) == rows[i].getBit(j)
        // == cols[j].get(i): double transpose is the identity here.
        EXPECT_EQ(back[i], expect) << "row " << i;
    }
}

} // namespace
} // namespace ironman::ot
