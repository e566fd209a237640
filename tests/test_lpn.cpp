/**
 * @file
 * LPN encoder tests: recorded matrix digests, determinism, every
 * encode path (streaming and tape, block, bit and one-pass block + bit,
 * under every kernel, whole, ranged and split over pool threads)
 * against a dense GF(2) reference in one grid (LpnGridTest), one
 * shared index tape per parameter set (sharedLpnTape), and
 * preservation of the COT correlation through the encoding
 * (invariant 4 of DESIGN.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <string>
#include <thread>

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
 * indices cancel over GF(2)). The columns come from rowIndicesBatch,
 * which BatchIndicesMatchSingle ties to the digest-pinned rowIndices.
 */
std::vector<Block>
denseEncode(const LpnEncoder &enc, const std::vector<Block> &in,
            std::vector<Block> rows)
{
    const size_t d = enc.params().d;
    std::vector<uint32_t> all(rows.size() * d);
    enc.rowIndicesBatch(0, rows.size(), all.data());
    for (size_t j = 0; j < rows.size(); ++j) {
        const auto idx = all.begin() + j * d;
        std::sort(idx, idx + d);
        for (size_t i = 0; i < d; ++i) {
            size_t run = 1;
            while (i + 1 < d && idx[i + 1] == idx[i])
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

// ---------------------------------------------------------------------------
// Reference grid: every encode path against the dense reference
// ---------------------------------------------------------------------------

/** n % 64 != 0, so the last 64-row word is partial. */
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

/** Every kernel setting the encoders can be pinned to. */
constexpr LpnKernel kAllKernels[] = {LpnKernel::Auto, LpnKernel::Scalar,
                                     LpnKernel::Sse2};

/**
 * The encode entry points. The last three write bits, so their row0
 * must sit on a 64-row word.
 */
enum class Entry
{
    Blocks,
    BlocksTape,
    Bits,
    BitsTape,
    BlocksAndBits,
};

constexpr Entry kAllEntries[] = {Entry::Blocks, Entry::BlocksTape,
                                 Entry::Bits, Entry::BitsTape,
                                 Entry::BlocksAndBits};

constexpr const char *kEntryNames[] = {"encodeBlocks", "encodeBlocksTape",
                                       "encodeBits", "encodeBitsTape",
                                       "encodeBlocksAndBits"};

bool
writesBits(Entry e)
{
    return e >= Entry::Bits;
}

bool
writesBlocks(Entry e)
{
    return e != Entry::Bits && e != Entry::BitsTape;
}

/** One code shape and the seed of its inputs and base rows. */
struct LpnCell
{
    std::string name;
    LpnParams p;
    uint64_t dataSeed;
};

void
PrintTo(const LpnCell &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<LpnCell>
lpnCells()
{
    std::vector<LpnCell> cells = {{"small", smallParams(), 50},
                                  {"ragged", raggedParams(), 60}};
    // Seeded-random n, k and d, n % 8 != 0 tails included.
    Rng meta(900);
    for (uint64_t i = 0; i < 6; ++i) {
        LpnParams p;
        p.n = 500 + meta.nextBelow(2000);
        p.k = 64 + meta.nextBelow(900);
        p.d = 4 + unsigned(meta.nextBelow(8));
        p.seed = meta.nextUint64();
        cells.push_back({"random_" + std::to_string(i), p, 901 + i});
    }
    return cells;
}

/**
 * One cell's encoder, inputs and dense references, and its index tape
 * built on one thread. The test runs every encode path on copies of
 * the base rows.
 */
class LpnGridTest : public testing::TestWithParam<LpnCell>
{
  protected:
    LpnGridTest() : p(GetParam().p), enc(p)
    {
        Rng rng(GetParam().dataSeed);
        in = rng.nextBlocks(p.k);
        base = rng.nextBlocks(p.n);
        bitsIn = rng.nextBits(p.k);
        bitsBase = rng.nextBits(p.n);
        dense = denseEncode(enc, in, base);
        denseBits = denseEncodeBits(enc, bitsIn, bitsBase);
        common::ThreadPool pool(1);
        LpnEncodeScratch scratch;
        enc.buildTape(tape, p.n, pool, &scratch);
    }

    ~LpnGridTest() override { LpnEncoder::setKernel(LpnKernel::Auto); }

    /** Run @p e on rows [row0, row0 + count); @p rows is row row0. */
    void
    encode(Entry e, size_t row0, size_t count, Block *rows,
           BitVec &bits) const
    {
        LpnEncodeScratch scratch;
        switch (e) {
          case Entry::Blocks:
            enc.encodeBlocks(in.data(), rows, row0, count, scratch);
            break;
          case Entry::BlocksTape:
            enc.encodeBlocksTape(in.data(), rows, row0, count, tape);
            break;
          case Entry::Bits:
            enc.encodeBits(bitsIn, bits, row0, count);
            break;
          case Entry::BitsTape:
            enc.encodeBitsTape(bitsIn, bits, row0, count, tape);
            break;
          case Entry::BlocksAndBits:
            enc.encodeBlocksAndBits(in.data(), rows, bitsIn, bits, row0,
                                    count);
            break;
        }
    }

    /**
     * After @p e encoded rows [row0, row0 + count): the block rows it
     * writes (@p rows is row row0) hold the dense reference, and so do
     * the bits it writes, while every other bit keeps its base.
     */
    testing::AssertionResult
    matchesDense(Entry e, size_t row0, size_t count, const Block *rows,
                 const BitVec &bits) const
    {
        for (size_t j = row0; writesBlocks(e) && j < row0 + count; ++j)
            if (rows[j - row0] != dense[j])
                return testing::AssertionFailure() << "block row " << j;
        for (size_t j = 0; writesBits(e) && j < p.n; ++j) {
            const bool inside = j >= row0 && j < row0 + count;
            if (bits.get(j) != (inside ? denseBits : bitsBase).get(j))
                return testing::AssertionFailure() << "bit row " << j;
        }
        return testing::AssertionSuccess();
    }

    const LpnParams p;
    const LpnEncoder enc;
    std::vector<Block> in, base, dense;
    BitVec bitsIn, bitsBase, denseBits;
    LpnIndexTape tape;
};

TEST_P(LpnGridTest, EveryEncodePathMatchesDenseReference)
{
    // Ranges under every kernel: whole, unaligned heads and short
    // counts, unaligned tails, and the last (ragged when n % 64 != 0)
    // word. The fused streaming encoders generate whole 64-row
    // mini-tapes and use part of them; the bit entry points take the
    // word-aligned ranges.
    const size_t n = p.n;
    const size_t last = (n - 1) / 64 * 64;
    struct Range
    {
        size_t row0, count;
    };
    const Range ranges[] = {
        {0, n},      {3, 1},      {5, 7},           {1, 63},
        {61, 65},    {130, 7},    {37, n - 37},     {n - 65, 65},
        {n - 1, 1},  {0, 1},      {64, 7},          {128, 63},
        {192, 65},   {last, n - last}, {last - 64, n - last + 64}};
    for (LpnKernel kernel : kAllKernels) {
        LpnEncoder::setKernel(kernel);
        for (Entry e : kAllEntries)
            for (const Range &r : ranges) {
                if (writesBits(e) && r.row0 % 64 != 0)
                    continue;
                std::vector<Block> rows(base.begin() + r.row0,
                                        base.begin() + r.row0 + r.count);
                BitVec bits = bitsBase;
                encode(e, r.row0, r.count, rows.data(), bits);
                EXPECT_TRUE(matchesDense(e, r.row0, r.count, rows.data(),
                                         bits))
                    << "kernel " << int(kernel) << ", "
                    << kEntryNames[int(e)] << ", rows " << r.row0 << "+"
                    << r.count;
            }
    }
    LpnEncoder::setKernel(LpnKernel::Auto);

    // All n rows in contiguous parts cut at any row, one call each.
    const size_t cuts[] = {0, 1, n / 3, n / 3 + 7, n};
    for (Entry e : {Entry::Blocks, Entry::BlocksTape}) {
        std::vector<Block> rows = base;
        BitVec bits = bitsBase;
        for (size_t c = 0; c + 1 < std::size(cuts); ++c)
            encode(e, cuts[c], cuts[c + 1] - cuts[c], rows.data() + cuts[c],
                   bits);
        EXPECT_TRUE(matchesDense(e, 0, n, rows.data(), bits))
            << kEntryNames[int(e)] << " in contiguous parts";
    }

    // Invariant 9 for the receiver's bit LPN: 64-row words split over
    // pools of 1-4 threads and encoded concurrently. The tape built on
    // 4 threads equals the one built on 1.
    common::ThreadPool pool;
    for (int threads = 1; threads <= 4; ++threads) {
        pool.resize(threads);
        for (Entry e : {Entry::Bits, Entry::BitsTape}) {
            BitVec bits = bitsBase;
            pool.parallelFor((n + 63) / 64, [&](int, size_t wlo, size_t whi) {
                const size_t row0 = wlo * 64;
                encode(e, row0, std::min(whi * 64, n) - row0, nullptr, bits);
            });
            EXPECT_TRUE(matchesDense(e, 0, n, nullptr, bits))
                << kEntryNames[int(e)] << " over " << threads << " threads";
        }
    }
    std::vector<LpnEncodeScratch> scratch(pool.threads());
    LpnIndexTape four;
    enc.buildTape(four, n, pool, scratch.data());
    EXPECT_EQ(four.idx, tape.idx);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LpnGridTest, testing::ValuesIn(lpnCells()),
    [](const testing::TestParamInfo<LpnCell> &info) {
        return info.param.name;
    });

/** sharedLpnTape() on its own pool, as an engine calls it. */
std::shared_ptr<const LpnIndexTape>
acquireTape(const LpnParams &p, int threads = 2)
{
    common::ThreadPool pool(threads);
    std::vector<LpnEncodeScratch> scratch(pool.threads());
    return sharedLpnTape(LpnEncoder(p), pool, scratch.data());
}

TEST(LpnSharedTapeTest, OneTapePerParameterSet)
{
    const LpnParams p = smallParams();
    const auto a = acquireTape(p);
    const auto b = acquireTape(p, 1);
    ASSERT_TRUE(a && a->ready());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a->builtFor, p);
    EXPECT_EQ(a->rows, p.n);

    LpnParams other_seed = p;
    other_seed.seed += 1;
    LpnParams other_k = p;
    other_k.k += 1;
    const auto c = acquireTape(other_seed);
    const auto d = acquireTape(other_k);
    EXPECT_NE(c, a);
    EXPECT_NE(d, a);
    EXPECT_NE(c, d);
    EXPECT_EQ(c->builtFor, other_seed);
    EXPECT_EQ(d->builtFor, other_k);
}

/**
 * The registry holds no strong reference: once every holder lets go
 * the tape is freed, and the next acquisition builds a new one.
 */
TEST(LpnSharedTapeTest, ReleasedTapeIsRebuilt)
{
    const LpnParams p = smallParams();
    std::weak_ptr<const LpnIndexTape> first;
    {
        const auto t = acquireTape(p);
        first = t;
        EXPECT_EQ(acquireTape(p), t);
    }
    EXPECT_TRUE(first.expired());
    const auto again = acquireTape(p);
    ASSERT_TRUE(again && again->ready());
    EXPECT_TRUE(first.expired());
    EXPECT_EQ(again.use_count(), 1);
}

/** Concurrent first callers of one set wait for a single build. */
TEST(LpnSharedTapeTest, ConcurrentFirstCallersShareOneBuild)
{
    LpnParams p = smallParams();
    p.n = size_t(1) << 16; // a build long enough for the callers to meet
    constexpr int kCallers = 4;
    std::vector<std::shared_ptr<const LpnIndexTape>> got(kCallers);
    std::latch start(kCallers);
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
        callers.emplace_back([&, i] {
            start.arrive_and_wait();
            got[size_t(i)] = acquireTape(p);
        });
    for (std::thread &t : callers)
        t.join();
    ASSERT_TRUE(got[0] && got[0]->ready());
    for (int i = 1; i < kCallers; ++i)
        EXPECT_EQ(got[size_t(i)], got[0]) << "caller " << i;
}

TEST(LpnSharedTapeTest, SharedTapeEqualsPrivateBuild)
{
    const LpnParams p = smallParams();
    const LpnEncoder enc(p);
    common::ThreadPool pool(1);
    LpnEncodeScratch scratch;
    LpnIndexTape own;
    enc.buildTape(own, p.n, pool, &scratch);

    const auto shared = acquireTape(p, 4);
    EXPECT_EQ(shared->rows, own.rows);
    EXPECT_EQ(shared->idx, own.idx);
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
