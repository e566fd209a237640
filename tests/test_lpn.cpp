/**
 * @file
 * LPN encoder tests: recorded matrix digests, determinism, agreement
 * of the fused streaming and tape encoders with a dense GF(2)
 * reference under every kernel, parallel == serial, and preservation
 * of the COT correlation through the encoding (invariant 4 of
 * DESIGN.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "ot/base_cot.h"
#include "ot/ferret_params.h"
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

/**
 * Dense reference of the block encode: rows[j] ^= sum of in[c] over
 * the columns c that row j names an odd number of times (duplicate
 * indices cancel over GF(2)).
 */
std::vector<Block>
denseEncode(const LpnEncoder &enc, const std::vector<Block> &in,
            std::vector<Block> rows)
{
    std::vector<uint32_t> idx(enc.params().d);
    for (size_t j = 0; j < rows.size(); ++j) {
        enc.rowIndices(j, idx.data());
        std::sort(idx.begin(), idx.end());
        for (size_t i = 0; i < idx.size(); ++i) {
            size_t run = 1;
            while (i + 1 < idx.size() && idx[i + 1] == idx[i])
                ++i, ++run;
            if (run % 2)
                rows[j] ^= in[idx[i]];
        }
    }
    return rows;
}

/** Dense reference of the bit encode (the block one on lsbs). */
BitVec
denseEncodeBits(const LpnEncoder &enc, const BitVec &in, BitVec rows)
{
    std::vector<Block> in_blocks(in.size()), row_blocks(rows.size());
    for (size_t i = 0; i < in.size(); ++i)
        in_blocks[i] = Block::fromUint64(in.get(i));
    row_blocks = denseEncode(enc, in_blocks, std::move(row_blocks));
    for (size_t j = 0; j < rows.size(); ++j)
        rows.set(j, rows.get(j) ^ row_blocks[j].lsb());
    return rows;
}

LpnParams
paperLpnParams(int log_ots)
{
    const FerretParams f = paperParamSet(log_ots);
    LpnParams p;
    p.n = f.n;
    p.k = f.k;
    p.d = f.lpnWeight;
    p.seed = f.lpnSeed;
    return p;
}

// ---------------------------------------------------------------------------
// Matrix known answers
// ---------------------------------------------------------------------------

/**
 * FNV-1a 64 over rowIndices() of rows [row0, row0+count), each index
 * as 4 little-endian bytes. The recorded values pin matrix A itself,
 * on the streaming sets as well as the tape ones.
 */
uint64_t
rowIndexDigest(const LpnEncoder &enc, uint64_t row0, size_t count)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    std::vector<uint32_t> idx(enc.params().d);
    for (uint64_t r = row0; r < row0 + count; ++r) {
        enc.rowIndices(r, idx.data());
        for (uint32_t v : idx)
            for (int i = 0; i < 4; ++i)
                h = (h ^ uint8_t(v >> (8 * i))) * 0x100000001b3ULL;
    }
    return h;
}

TEST(LpnKatTest, RowIndicesMatchRecordedDigests)
{
    struct Window
    {
        int logOts;
        uint64_t row0; ///< counted back from n when fromEnd
        bool fromEnd;
        uint64_t digest; ///< recorded with a hardware `%` reduction
    };
    // Rows 0..63, an unaligned mid-range window, rows n-64..n-1.
    const Window windows[] = {
        {20, 0, false, 0x0a31771564289b53ULL},
        {20, 500029, false, 0x427204d1e5456902ULL},
        {20, 64, true, 0x2145066d5a34f963ULL},
        {24, 0, false, 0x83fecc42ebead6c6ULL},
        {24, 8000029, false, 0x13560b8e765fbbdfULL},
        {24, 64, true, 0xfbed215a00785e1bULL},
    };
    for (const Window &w : windows) {
        const LpnEncoder enc(paperLpnParams(w.logOts));
        const uint64_t row0 =
            w.fromEnd ? enc.params().n - w.row0 : w.row0;
        const uint64_t got = rowIndexDigest(enc, row0, 64);
        EXPECT_EQ(got, w.digest) << "2^" << w.logOts << " row " << row0;
    }
}

/** The multiply-shift reduction equals % on edge values. */
TEST(LpnKatTest, FastModMatchesRemainder)
{
    for (uint32_t k : {2u, 480000u, 2147483647u}) {
        const detail::FastMod mod(k);
        const uint32_t top = UINT32_MAX / k * k; // largest multiple
        const uint32_t as[] = {0,       1,       UINT32_MAX,
                               k - 1,   k,       k + 1,
                               2 * k,   2 * k - 1, 3 * k,
                               top - k, top - 1, top,
                               top + (UINT32_MAX - top)};
        for (uint32_t a : as)
            EXPECT_EQ(mod(a), a % k) << "a " << a << " k " << k;
        Rng rng(k);
        for (int i = 0; i < 10000; ++i) {
            const uint32_t a = uint32_t(rng.nextUint64());
            ASSERT_EQ(mod(a), a % k) << "a " << a << " k " << k;
        }
    }
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
    enc.rowIndicesBatch(5, rows, batch.data());
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
    enc.rowIndicesBatch(0, p.n, idx.data());
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

    std::vector<Block> expect = denseEncode(enc, in, base);

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
// Fused streaming kernel
// ---------------------------------------------------------------------------

/** Every kernel setting the encoders can be pinned to. */
constexpr LpnKernel kAllKernels[] = {LpnKernel::Auto, LpnKernel::Scalar,
                                     LpnKernel::Sse2};

/** n % 64 != 0, so the last 64-row block is partial. */
LpnParams
raggedParams()
{
    LpnParams p;
    p.n = 1000;
    p.k = 300;
    p.d = 10;
    p.seed = 31;
    return p;
}

/**
 * The fused block encode generates whole 64-row mini-tapes and uses
 * part of them: unaligned heads, short counts and the ragged tail
 * must all match the dense reference under every kernel.
 */
TEST(LpnFusedTest, UnalignedBlockRangesMatchDenseReference)
{
    const LpnParams p = raggedParams();
    const LpnEncoder enc(p);
    Rng rng(60);
    const std::vector<Block> in = rng.nextBlocks(p.k);
    const std::vector<Block> base = rng.nextBlocks(p.n);
    const std::vector<Block> expect = denseEncode(enc, in, base);

    struct Range
    {
        size_t row0, count;
    };
    const Range ranges[] = {{0, p.n},   {3, 1},       {5, 7},
                            {1, 63},    {61, 65},     {64, 65},
                            {130, 7},   {p.n - 65, 65}, {p.n - 1, 1},
                            {37, p.n - 37}};
    LpnEncodeScratch scratch;
    for (LpnKernel kernel : kAllKernels) {
        LpnEncoder::setKernel(kernel);
        for (const Range &r : ranges) {
            std::vector<Block> got(base.begin() + r.row0,
                                   base.begin() + r.row0 + r.count);
            enc.encodeBlocks(in.data(), got.data(), r.row0, r.count,
                             scratch);
            for (size_t j = 0; j < r.count; ++j)
                ASSERT_EQ(got[j], expect[r.row0 + j])
                    << "kernel " << int(kernel) << " rows " << r.row0
                    << "+" << r.count << " row " << r.row0 + j;
        }
    }
    LpnEncoder::setKernel(LpnKernel::Auto);
}

/**
 * Ranged bit encodes (row0 on a 64-row word) touch exactly their rows
 * and match the dense reference, streaming and tape, under every
 * kernel — including counts 1, 7, 63, 65 and the ragged last word.
 */
TEST(LpnFusedTest, BitRangesMatchDenseReference)
{
    const LpnParams p = raggedParams();
    const LpnEncoder enc(p);
    Rng rng(61);
    const BitVec in = rng.nextBits(p.k);
    const BitVec base = rng.nextBits(p.n);
    const BitVec expect = denseEncodeBits(enc, in, base);

    common::ThreadPool pool(1);
    LpnEncodeScratch scratch;
    LpnIndexTape tape;
    enc.buildTape(tape, p.n, pool, &scratch);

    const size_t last = p.n - p.n % 64;
    struct Range
    {
        size_t row0, count;
    };
    const Range ranges[] = {{0, p.n},   {0, 1},     {64, 7},
                            {128, 63},  {192, 65},  {last, p.n - last},
                            {last - 64, p.n - last + 64}};
    for (LpnKernel kernel : kAllKernels) {
        LpnEncoder::setKernel(kernel);
        for (const Range &r : ranges)
            for (bool use_tape : {false, true}) {
                BitVec got = base;
                if (use_tape)
                    enc.encodeBitsTape(in, got, r.row0, r.count, tape);
                else
                    enc.encodeBits(in, got, r.row0, r.count);
                for (size_t j = 0; j < p.n; ++j) {
                    const bool inside =
                        j >= r.row0 && j < r.row0 + r.count;
                    ASSERT_EQ(got.get(j),
                              inside ? expect.get(j) : base.get(j))
                        << "kernel " << int(kernel) << " tape "
                        << use_tape << " rows " << r.row0 << "+"
                        << r.count << " row " << j;
                }
            }
    }
    LpnEncoder::setKernel(LpnKernel::Auto);
}

/**
 * encodeBlocksAndBits() — one mini-tape per 64-row block feeding both
 * kernels — equals separate encodeBlocks() + encodeBits() calls and
 * the dense references, touches only its rows, under every kernel:
 * word-aligned starts, short and long counts and the ragged last word.
 */
TEST(LpnFusedTest, BlocksAndBitsMatchSeparateEncodes)
{
    LpnParams p;
    p.n = 1700; // n % 64 != 0
    p.k = 300;
    p.seed = 64;
    const LpnEncoder enc(p);
    Rng rng(65);
    const std::vector<Block> in = rng.nextBlocks(p.k);
    const std::vector<Block> base = rng.nextBlocks(p.n);
    const BitVec bits_in = rng.nextBits(p.k);
    const BitVec bits_base = rng.nextBits(p.n);
    const std::vector<Block> dense = denseEncode(enc, in, base);
    const BitVec dense_bits = denseEncodeBits(enc, bits_in, bits_base);

    struct Range
    {
        size_t row0, count;
    };
    std::vector<Range> ranges;
    for (size_t row0 : {size_t(0), size_t(64), size_t(640)})
        for (size_t count : {1, 63, 64, 65, 1000})
            ranges.push_back({row0, count});
    const size_t last = p.n - p.n % 64;
    ranges.push_back({last, p.n - last});

    LpnEncodeScratch scratch;
    for (LpnKernel kernel : kAllKernels) {
        LpnEncoder::setKernel(kernel);
        for (const Range &r : ranges) {
            SCOPED_TRACE(testing::Message()
                         << "kernel " << int(kernel) << " rows " << r.row0
                         << "+" << r.count);
            std::vector<Block> sep(base.begin() + r.row0,
                                   base.begin() + r.row0 + r.count);
            BitVec sep_bits = bits_base;
            enc.encodeBlocks(in.data(), sep.data(), r.row0, r.count,
                             scratch);
            enc.encodeBits(bits_in, sep_bits, r.row0, r.count);

            std::vector<Block> got(base.begin() + r.row0,
                                   base.begin() + r.row0 + r.count);
            BitVec got_bits = bits_base;
            enc.encodeBlocksAndBits(in.data(), got.data(), bits_in,
                                    got_bits, r.row0, r.count);

            ASSERT_EQ(got, sep);
            ASSERT_EQ(got_bits, sep_bits);
            for (size_t j = 0; j < r.count; ++j)
                ASSERT_EQ(got[j], dense[r.row0 + j]) << "row " << r.row0 + j;
            for (size_t j = 0; j < p.n; ++j) {
                const bool inside = j >= r.row0 && j < r.row0 + r.count;
                ASSERT_EQ(got_bits.get(j),
                          inside ? dense_bits.get(j) : bits_base.get(j))
                    << "bit row " << j;
            }
        }
    }
    LpnEncoder::setKernel(LpnKernel::Auto);
}

/**
 * Invariant 9 for the receiver's bit-LPN: split on 64-row words over
 * pools of 1-4 threads, the ranged encode is bit-identical to the
 * whole-vector call, on both paths.
 */
TEST(LpnFusedTest, PooledBitEncodeMatchesWholeVector)
{
    LpnParams p;
    p.n = 64 * 37 + 29;
    p.k = 500;
    p.seed = 62;
    const LpnEncoder enc(p);
    Rng rng(63);
    const BitVec in = rng.nextBits(p.k);
    const BitVec base = rng.nextBits(p.n);

    LpnEncodeScratch scratch;
    BitVec whole = base;
    enc.encodeBits(in, whole);
    EXPECT_EQ(whole, denseEncodeBits(enc, in, base));

    common::ThreadPool build_pool(1);
    LpnIndexTape tape;
    enc.buildTape(tape, p.n, build_pool, &scratch);

    for (int threads = 1; threads <= 4; ++threads) {
        common::ThreadPool pool(threads);
        for (bool use_tape : {false, true}) {
            BitVec got = base;
            pool.parallelFor((p.n + 63) / 64,
                             [&](int, size_t wlo, size_t whi) {
                const size_t row0 = wlo * 64;
                const size_t count = std::min(whi * 64, p.n) - row0;
                if (use_tape)
                    enc.encodeBitsTape(in, got, row0, count, tape);
                else
                    enc.encodeBits(in, got, row0, count);
            });
            EXPECT_EQ(got, whole)
                << threads << " threads, tape " << use_tape;
        }
    }
}

// ---------------------------------------------------------------------------
// Tape + SIMD kernels
// ---------------------------------------------------------------------------

/**
 * The tape path (precomputed transposed indices + runtime-dispatched
 * SIMD gather-XOR) and the fused streaming encoder must both be
 * bit-identical to the dense reference under randomized seeds,
 * including with the SIMD kernel forced off (scalar tape walk), at
 * unaligned row offsets, and split into contiguous parts.
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

        const std::vector<Block> expect = denseEncode(enc, in, base);
        std::vector<Block> streamed = base;
        LpnEncodeScratch scratch;
        enc.encodeBlocks(in.data(), streamed.data(), 0, p.n, scratch);
        EXPECT_EQ(streamed, expect) << "trial " << trial;

        std::vector<LpnEncodeScratch> scratches(pool.threads());
        LpnIndexTape tape;
        enc.buildTape(tape, p.n, pool, scratches.data());

        // SIMD kernel (whatever the CPU dispatches to).
        std::vector<Block> simd = base;
        enc.encodeBlocksTape(in.data(), simd.data(), 0, p.n, tape);
        EXPECT_EQ(simd, expect) << "trial " << trial;

        // Forced-scalar tape walk.
        LpnEncoder::setKernel(LpnKernel::Scalar);
        std::vector<Block> scalar = base;
        enc.encodeBlocksTape(in.data(), scalar.data(), 0, p.n, tape);
        LpnEncoder::setKernel(LpnKernel::Auto);
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
    enc.encodeBits(in, expect);

    common::ThreadPool pool(1);
    LpnIndexTape tape;
    enc.buildTape(tape, p.n, pool, &scratch);
    BitVec got = base;
    enc.encodeBitsTape(in, got, tape);
    EXPECT_EQ(got, expect);
}

/**
 * The SIMD bit kernels (word-at-a-time groups + AVX2 vpgatherdd) must
 * be bit-identical to the dense reference under random seeds and
 * sizes, including n % 8 != 0 tails and through every pinnable
 * kernel.
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

        const BitVec expect = denseEncodeBits(enc, in, base);
        BitVec streamed = base;
        LpnEncodeScratch scratch;
        enc.encodeBits(in, streamed);
        EXPECT_EQ(streamed, expect) << "trial " << trial;

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
    enc.encodeBits(in_bits, got_bits);
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
    enc.encodeBits(in_r.choice, x);
    std::vector<Block> y = v;
    enc.encodeBlocks(in_r.t.data(), y.data(), 0, p.n, scratch);

    for (size_t j = 0; j < p.n; ++j)
        EXPECT_EQ(z[j] ^ scalarMul(x.get(j), delta), y[j]) << "row " << j;
}

} // namespace
} // namespace ironman::ot
