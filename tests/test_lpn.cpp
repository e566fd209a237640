/**
 * @file
 * LPN encoder tests: determinism, agreement with a dense GF(2)
 * reference, parallel == serial, SIMD/tape == scalar streaming, and
 * preservation of the COT correlation through the encoding
 * (invariant 4 of DESIGN.md).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "ot/base_cot.h"
#include "ot/lpn.h"

namespace ironman::ot {
namespace {

LpnParams
smallParams()
{
    LpnParams p;
    p.n = 4096;
    p.k = 512;
    p.d = 10;
    p.seed = 77;
    return p;
}

TEST(LpnTest, IndicesDeterministicAndInRange)
{
    LpnEncoder a(smallParams());
    LpnEncoder b(smallParams());
    std::vector<uint32_t> ia(10), ib(10);
    for (uint64_t row : {0ULL, 1ULL, 4095ULL}) {
        a.rowIndices(row, ia.data());
        b.rowIndices(row, ib.data());
        EXPECT_EQ(ia, ib);
        for (uint32_t idx : ia)
            EXPECT_LT(idx, 512u);
    }
}

TEST(LpnTest, SeedChangesMatrix)
{
    LpnParams p1 = smallParams();
    LpnParams p2 = smallParams();
    p2.seed = 78;
    LpnEncoder a(p1), b(p2);
    std::vector<uint32_t> ia(10), ib(10);
    int diffs = 0;
    for (uint64_t row = 0; row < 64; ++row) {
        a.rowIndices(row, ia.data());
        b.rowIndices(row, ib.data());
        diffs += (ia != ib);
    }
    EXPECT_GT(diffs, 60);
}

TEST(LpnTest, BatchIndicesMatchSingle)
{
    LpnEncoder enc(smallParams());
    const size_t rows = 300;
    std::vector<uint32_t> batch(rows * 10);
    LpnEncodeScratch scratch;
    enc.rowIndicesBatch(5, rows, batch.data(), scratch);
    std::vector<uint32_t> one(10);
    for (size_t r = 0; r < rows; ++r) {
        enc.rowIndices(5 + r, one.data());
        for (unsigned i = 0; i < 10; ++i)
            EXPECT_EQ(batch[r * 10 + i], one[i]) << "row " << r;
    }
}

TEST(LpnTest, IndicesRoughlyUniformOverColumns)
{
    LpnParams p = smallParams();
    LpnEncoder enc(p);
    std::vector<uint32_t> hist(p.k, 0);
    std::vector<uint32_t> idx(p.n * p.d);
    LpnEncodeScratch scratch;
    enc.rowIndicesBatch(0, p.n, idx.data(), scratch);
    for (uint32_t i : idx)
        hist[i]++;
    // n*d / k = 80 expected hits per column.
    double expect = double(p.n) * p.d / p.k;
    size_t extreme = 0;
    for (uint32_t h : hist)
        extreme += (h < expect / 3 || h > expect * 3);
    EXPECT_LT(extreme, p.k / 100); // <1% pathological columns
}

TEST(LpnTest, EncodeMatchesDenseReference)
{
    LpnParams p;
    p.n = 256;
    p.k = 64;
    p.d = 10;
    p.seed = 5;
    LpnEncoder enc(p);

    Rng rng(50);
    std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> base = rng.nextBlocks(p.n); // SPCOT contribution

    // Dense reference: build A explicitly (note duplicate indices in a
    // row cancel over GF(2) — the reference must reproduce that).
    std::vector<Block> expect = base;
    std::vector<uint32_t> idx(p.d);
    for (size_t j = 0; j < p.n; ++j) {
        enc.rowIndices(j, idx.data());
        std::vector<int> col_count(p.k, 0);
        for (uint32_t i : idx)
            col_count[i] ^= 1;
        for (size_t c = 0; c < p.k; ++c)
            if (col_count[c])
                expect[j] ^= in[c];
    }

    std::vector<Block> got = base;
    LpnEncodeScratch scratch;
    enc.encodeBlocks(in.data(), got.data(), 0, p.n, scratch);
    EXPECT_EQ(got, expect);
}

TEST(LpnTest, PartitionedEncodeMatchesSerial)
{
    // The engine splits the row range over pool workers; any split,
    // each part with its own scratch, must be bit-identical to the
    // serial encode.
    LpnParams p = smallParams();
    LpnEncoder enc(p);
    Rng rng(51);
    std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> serial = rng.nextBlocks(p.n);
    std::vector<Block> parts = serial;

    LpnEncodeScratch scratch;
    enc.encodeBlocks(in.data(), serial.data(), 0, p.n, scratch);

    const size_t cuts[] = {0, 1, p.n / 3, p.n / 3 + 7, p.n};
    for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
        LpnEncodeScratch own;
        enc.encodeBlocks(in.data(), parts.data() + cuts[c], cuts[c],
                         cuts[c + 1] - cuts[c], own);
    }
    EXPECT_EQ(serial, parts);
}

// ---------------------------------------------------------------------------
// Tape + SIMD kernels
// ---------------------------------------------------------------------------

/**
 * The tape path (precomputed transposed indices + runtime-dispatched
 * SIMD gather-XOR) must be bit-identical to the streaming scalar
 * encoder under randomized seeds, including with the SIMD kernel
 * forced off (scalar tape walk), at unaligned row offsets, and
 * split into contiguous parts.
 */
TEST(LpnTapeTest, TapeEncodeMatchesStreamingUnderRandomSeeds)
{
    Rng meta_rng(900);
    common::ThreadPool pool(3);
    for (int trial = 0; trial < 6; ++trial) {
        LpnParams p;
        p.n = 1000 + meta_rng.nextBelow(3000);
        p.k = 128 + meta_rng.nextBelow(900);
        p.d = 4 + unsigned(meta_rng.nextBelow(8));
        p.seed = meta_rng.nextUint64();
        LpnEncoder enc(p);

        Rng rng(901 + trial);
        std::vector<Block> in = rng.nextBlocks(p.k);
        std::vector<Block> base = rng.nextBlocks(p.n);

        std::vector<Block> expect = base;
        LpnEncodeScratch scratch;
        enc.encodeBlocks(in.data(), expect.data(), 0, p.n, scratch);

        std::vector<LpnEncodeScratch> scratches(pool.threads());
        LpnIndexTape tape;
        enc.buildTape(tape, p.n, pool, scratches.data());

        // SIMD kernel (whatever the CPU dispatches to).
        std::vector<Block> simd = base;
        enc.encodeBlocksTape(in.data(), simd.data(), 0, p.n, tape);
        EXPECT_EQ(simd, expect) << "trial " << trial;

        // Forced-scalar tape walk.
        LpnEncoder::forceScalarKernel(true);
        std::vector<Block> scalar = base;
        enc.encodeBlocksTape(in.data(), scalar.data(), 0, p.n, tape);
        LpnEncoder::forceScalarKernel(false);
        EXPECT_EQ(scalar, expect) << "trial " << trial;

        // Pinned SSE2 (falls back off x86, which must still be
        // bit-identical).
        LpnEncoder::setKernel(LpnKernel::Sse2);
        std::vector<Block> sse2 = base;
        enc.encodeBlocksTape(in.data(), sse2.data(), 0, p.n, tape);
        LpnEncoder::setKernel(LpnKernel::Auto);
        EXPECT_EQ(sse2, expect) << "trial " << trial;

        // Unaligned sub-range (exercises the head/tail handling).
        size_t row0 = 1 + meta_rng.nextBelow(61);
        size_t count = p.n - row0 - meta_rng.nextBelow(7);
        std::vector<Block> sub(base.begin() + row0,
                               base.begin() + row0 + count);
        enc.encodeBlocksTape(in.data(), sub.data(), row0, count, tape);
        for (size_t j = 0; j < count; ++j)
            ASSERT_EQ(sub[j], expect[row0 + j])
                << "trial " << trial << " row " << row0 + j;

        // Split over contiguous parts, as the engine's workers do.
        std::vector<Block> parts = base;
        const size_t cut = meta_rng.nextBelow(p.n);
        enc.encodeBlocksTape(in.data(), parts.data(), 0, cut, tape);
        enc.encodeBlocksTape(in.data(), parts.data() + cut, cut,
                             p.n - cut, tape);
        EXPECT_EQ(parts, expect) << "trial " << trial;
    }
}

TEST(LpnTapeTest, TapeBuildDeterministicAcrossThreadCounts)
{
    LpnParams p = smallParams();
    LpnEncoder enc(p);

    common::ThreadPool pool1(1), pool4(4);
    std::vector<LpnEncodeScratch> s1(pool1.threads());
    std::vector<LpnEncodeScratch> s4(pool4.threads());
    LpnIndexTape t1, t4;
    enc.buildTape(t1, p.n, pool1, s1.data());
    enc.buildTape(t4, p.n, pool4, s4.data());
    EXPECT_EQ(t1.idx, t4.idx);
}

/**
 * Auto resolves by CPUID alone: AVX2-insert exactly when the CPU has
 * AVX2, else SSE2 on x86 — never a timing verdict.
 */
TEST(LpnTapeTest, AutoKernelIsTheCpuidChoice)
{
    LpnEncoder::setKernel(LpnKernel::Auto);
    const std::string first = LpnEncoder::activeKernelName();
#if defined(__x86_64__) || defined(__i386__)
    EXPECT_EQ(first, detail::lpnAvx2Supported() ? "avx2-insert" : "sse2");
#else
    EXPECT_EQ(first, "scalar");
#endif
    EXPECT_EQ(LpnEncoder::activeKernelName(), first);
}

TEST(LpnTapeTest, BitEncodeTapeMatchesStreaming)
{
    LpnParams p;
    p.n = 2048;
    p.k = 256;
    p.seed = 21;
    LpnEncoder enc(p);

    Rng rng(55);
    BitVec in = rng.nextBits(p.k);
    BitVec base = rng.nextBits(p.n);

    BitVec expect = base;
    LpnEncodeScratch scratch;
    enc.encodeBits(in, expect, scratch);

    common::ThreadPool pool(1);
    LpnIndexTape tape;
    enc.buildTape(tape, p.n, pool, &scratch);
    BitVec got = base;
    enc.encodeBitsTape(in, got, tape);
    EXPECT_EQ(got, expect);
}

/**
 * The SIMD bit kernels (word-at-a-time groups + AVX2 vpgatherdd) must
 * be bit-identical to the streaming scalar bit encode under random
 * seeds and sizes, including n % 8 != 0 tails and through every
 * pinnable kernel.
 */
TEST(LpnTapeTest, BitEncodeSimdMatchesScalarUnderRandomSeeds)
{
    Rng meta_rng(910);
    common::ThreadPool pool(2);
    for (int trial = 0; trial < 6; ++trial) {
        LpnParams p;
        p.n = 500 + meta_rng.nextBelow(4000); // tails exercised
        p.k = 64 + meta_rng.nextBelow(700);
        p.d = 4 + unsigned(meta_rng.nextBelow(8));
        p.seed = meta_rng.nextUint64();
        LpnEncoder enc(p);

        Rng rng(911 + trial);
        BitVec in = rng.nextBits(p.k);
        BitVec base = rng.nextBits(p.n);

        BitVec expect = base;
        LpnEncodeScratch scratch;
        enc.encodeBits(in, expect, scratch);

        std::vector<LpnEncodeScratch> scratches(pool.threads());
        LpnIndexTape tape;
        enc.buildTape(tape, p.n, pool, scratches.data());

        BitVec simd = base;
        enc.encodeBitsTape(in, simd, tape);
        EXPECT_EQ(simd, expect) << "trial " << trial;

        for (LpnKernel k : {LpnKernel::Scalar, LpnKernel::Sse2}) {
            LpnEncoder::setKernel(k);
            BitVec pinned = base;
            enc.encodeBitsTape(in, pinned, tape);
            LpnEncoder::setKernel(LpnKernel::Auto);
            EXPECT_EQ(pinned, expect)
                << "trial " << trial << " kernel " << int(k);
        }
    }
}

TEST(LpnTest, BitEncodeMatchesBlockEncodeOnLsb)
{
    // Encoding bits must be the GF(2) projection of encoding blocks.
    LpnParams p;
    p.n = 512;
    p.k = 128;
    p.seed = 9;
    LpnEncoder enc(p);

    Rng rng(52);
    BitVec in_bits = rng.nextBits(p.k);
    BitVec base_bits = rng.nextBits(p.n);

    std::vector<Block> in_blocks(p.k), base_blocks(p.n);
    for (size_t i = 0; i < p.k; ++i)
        in_blocks[i] = Block::fromUint64(in_bits.get(i));
    for (size_t j = 0; j < p.n; ++j)
        base_blocks[j] = Block::fromUint64(base_bits.get(j));

    BitVec got_bits = base_bits;
    LpnEncodeScratch scratch;
    enc.encodeBits(in_bits, got_bits, scratch);
    enc.encodeBlocks(in_blocks.data(), base_blocks.data(), 0, p.n,
                     scratch);

    for (size_t j = 0; j < p.n; ++j)
        EXPECT_EQ(got_bits.get(j), base_blocks[j].lsb()) << "row " << j;
}

TEST(LpnTest, EncodingPreservesCotCorrelation)
{
    // r = s ^ e*Delta per entry  =>  r*A ^ w = (s*A ^ v) ^ (e*A ^ u)*Delta
    // when w = v ^ u*Delta: the linearity invariant Ferret relies on.
    LpnParams p;
    p.n = 2048;
    p.k = 256;
    p.seed = 13;
    LpnEncoder enc(p);

    Rng rng(53);
    Block delta = rng.nextBlock();

    // LPN inputs: k COTs.
    auto [in_s, in_r] = dealBaseCots(rng, delta, p.k);

    // SPCOT outputs: a synthetic one-hot-free correlation w = v ^ u*Delta.
    BitVec u = rng.nextBits(p.n);
    std::vector<Block> v = rng.nextBlocks(p.n);
    std::vector<Block> w(p.n);
    for (size_t j = 0; j < p.n; ++j)
        w[j] = v[j] ^ scalarMul(u.get(j), delta);

    // Sender: z = r*A ^ w.
    LpnEncodeScratch scratch;
    std::vector<Block> z = w;
    enc.encodeBlocks(in_s.q.data(), z.data(), 0, p.n, scratch);

    // Receiver: x = e*A ^ u, y = s*A ^ v.
    BitVec x = u;
    enc.encodeBits(in_r.choice, x, scratch);
    std::vector<Block> y = v;
    enc.encodeBlocks(in_r.t.data(), y.data(), 0, p.n, scratch);

    for (size_t j = 0; j < p.n; ++j)
        EXPECT_EQ(z[j] ^ scalarMul(x.get(j), delta), y[j]) << "row " << j;
}

} // namespace
} // namespace ironman::ot
