/**
 * @file
 * Index-sorting tests (invariant 5 of DESIGN.md): the sorted layout is
 * a pure schedule transformation — results bit-identical, locality
 * strictly better on the traces we measure.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nmp/index_sort.h"
#include "ot/lpn.h"
#include "sim/cache.h"

namespace ironman::nmp {
namespace {

ot::LpnParams
lpnParams(size_t n, size_t k, uint64_t seed = 3)
{
    ot::LpnParams p;
    p.n = n;
    p.k = k;
    p.d = 10;
    p.seed = seed;
    return p;
}

struct SortCase
{
    bool columnSwap;
    bool rowLookahead;
    bool zigzag;
    const char *name;
};

class SortParamTest : public ::testing::TestWithParam<SortCase>
{};

TEST_P(SortParamTest, EncodeIsBitIdentical)
{
    const auto c = GetParam();
    ot::LpnEncoder enc(lpnParams(3000, 700));

    SortOptions opt;
    opt.columnSwap = c.columnSwap;
    opt.rowLookahead = c.rowLookahead;
    opt.zigzag = c.zigzag;
    opt.windowRows = 256;

    SortedLpnLayout layout = buildSortedLayout(enc, 0, 3000, opt);

    Rng rng(9);
    std::vector<Block> in = rng.nextBlocks(700);
    std::vector<Block> base = rng.nextBlocks(3000);

    std::vector<Block> reference = base;
    enc.encode(nullptr, 0, 3000, in.data(), reference.data(), nullptr,
               nullptr);

    std::vector<Block> sorted = base;
    encodeWithLayout(layout, in.data(), sorted.data());

    EXPECT_EQ(sorted, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SortParamTest,
    ::testing::Values(SortCase{false, false, false, "baseline"},
                      SortCase{true, false, false, "colswap"},
                      SortCase{false, true, true, "lookahead"},
                      SortCase{true, true, false, "both_nozigzag"},
                      SortCase{true, true, true, "full"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(IndexSortTest, LaneTapeReplayIsBitIdentical)
{
    // n % 8 != 0 exercises the scalar tail of the software order.
    const size_t n = 3003, k = 700;
    ot::LpnEncoder enc(lpnParams(n, k));
    SortedLpnLayout layout =
        buildSortedLayout(enc, 0, n, softwareTapeOrder());
    ASSERT_EQ(layout.accesses(), n * 10);

    Rng rng(19);
    std::vector<Block> in = rng.nextBlocks(k);
    std::vector<Block> base = rng.nextBlocks(n);

    std::vector<Block> reference = base;
    enc.encode(nullptr, 0, n, in.data(), reference.data(), nullptr,
               nullptr);

    std::vector<Block> replayed = base;
    encodeWithLayout(layout, in.data(), replayed.data());
    EXPECT_EQ(replayed, reference);
}

TEST(IndexSortTest, LaneTapeReplayMatchesSoftwareTapeWalk)
{
    // The replay's service order must be exactly the order the SIMD
    // gather-XOR kernels read the lane-transposed LpnIndexTape:
    // per 8-row group, tap-major, each tap's 8 lanes in row order.
    const size_t n = 1029, k = 500; // 128 full groups + 5 tail rows
    ot::LpnEncoder enc(lpnParams(n, k));
    SortedLpnLayout layout =
        buildSortedLayout(enc, 0, n, softwareTapeOrder());

    common::ThreadPool pool(1);
    ot::LpnIndexTape tape;
    enc.buildTape(tape, n, pool);

    constexpr size_t lane = ot::LpnIndexTape::kLane;
    const unsigned d = enc.params().d;
    size_t a = 0;
    for (size_t g = 0; g + lane <= n; g += lane)
        for (unsigned i = 0; i < d; ++i)
            for (size_t x = 0; x < lane; ++x, ++a) {
                // Tap i's lane x of group g is one contiguous tape
                // read in the kernel.
                ASSERT_EQ(layout.colidx[a],
                          tape.idx[(g / lane) * d * lane + i * lane + x])
                    << "access " << a;
                ASSERT_EQ(layout.rowidx[a], g + x);
            }
    // Tail rows row-major.
    for (size_t r = n - n % lane; r < n; ++r)
        for (unsigned i = 0; i < d; ++i, ++a)
            ASSERT_EQ(layout.rowidx[a], r);
    EXPECT_EQ(a, layout.accesses());
}

TEST(IndexSortTest, LayoutCoversEveryAccessExactlyOnce)
{
    ot::LpnEncoder enc(lpnParams(1024, 300));
    SortOptions opt;
    SortedLpnLayout layout = buildSortedLayout(enc, 0, 1024, opt);
    ASSERT_EQ(layout.accesses(), 1024u * 10);

    // Multiset of (row, original col) must match the raw matrix.
    std::vector<std::vector<uint32_t>> per_row(1024);
    for (size_t a = 0; a < layout.accesses(); ++a)
        per_row[layout.rowidx[a]].push_back(
            layout.newToOld[layout.colidx[a]]);

    std::vector<uint32_t> raw(10);
    for (size_t r = 0; r < 1024; ++r) {
        enc.rowIndices(r, raw.data());
        std::vector<uint32_t> expect(raw.begin(), raw.end());
        std::sort(expect.begin(), expect.end());
        std::sort(per_row[r].begin(), per_row[r].end());
        EXPECT_EQ(per_row[r], expect) << "row " << r;
    }
}

TEST(IndexSortTest, ColumnPermutationIsABijection)
{
    ot::LpnEncoder enc(lpnParams(512, 2000));
    SortOptions opt;
    SortedLpnLayout layout = buildSortedLayout(enc, 0, 512, opt);
    ASSERT_EQ(layout.newToOld.size(), 2000u);
    std::vector<bool> seen(2000, false);
    for (uint32_t old_col : layout.newToOld) {
        ASSERT_LT(old_col, 2000u);
        EXPECT_FALSE(seen[old_col]);
        seen[old_col] = true;
    }
}

TEST(IndexSortTest, RowLookaheadSortsWithinWindows)
{
    ot::LpnEncoder enc(lpnParams(512, 600));
    SortOptions opt;
    opt.windowRows = 128;
    opt.zigzag = false;
    SortedLpnLayout layout = buildSortedLayout(enc, 0, 512, opt);
    const size_t window_accesses = 128 * 10;
    for (size_t w = 0; w < 4; ++w) {
        for (size_t a = 1; a < window_accesses; ++a) {
            size_t idx = w * window_accesses + a;
            EXPECT_LE(layout.colidx[idx - 1], layout.colidx[idx])
                << "window " << w << " access " << a;
        }
    }
}

TEST(IndexSortTest, SortingImprovesCacheHitRate)
{
    // k = 8192 blocks = 128 KB vector, 32 KB cache: the cache holds a
    // quarter of the vector.
    const size_t n = 60000, k = 8192;
    ot::LpnEncoder enc(lpnParams(n, k));

    sim::CacheConfig cache_cfg;
    cache_cfg.sizeBytes = 32 * 1024;

    auto hit_rate = [&](bool swap, bool lookahead) {
        SortOptions opt;
        opt.columnSwap = swap;
        opt.rowLookahead = lookahead;
        SortedLpnLayout layout = buildSortedLayout(enc, 0, n, opt);
        sim::CacheSim cache(cache_cfg);
        return simulateLayoutCache(layout, cache).hitRate();
    };

    double baseline = hit_rate(false, false);
    double swapped = hit_rate(true, false);
    double full = hit_rate(true, true);

    // Unsorted random access hits ~ cache/vector fraction; column
    // swapping helps a little, look-ahead a lot (Sec. 5.3's "Column
    // Swapping alone achieves a maximum cache hit rate of only 20%").
    EXPECT_GE(swapped, baseline * 0.95);
    EXPECT_GT(full, swapped + 0.15);
    EXPECT_GT(full, 0.5);
}

TEST(IndexSortTest, ZigzagBeatsOneDirectionAcrossWindows)
{
    const size_t n = 60000, k = 8192;
    ot::LpnEncoder enc(lpnParams(n, k));
    sim::CacheConfig cache_cfg;
    cache_cfg.sizeBytes = 64 * 1024; // half the vector resident

    auto hit_rate = [&](bool zigzag) {
        SortOptions opt;
        opt.zigzag = zigzag;
        SortedLpnLayout layout = buildSortedLayout(enc, 0, n, opt);
        sim::CacheSim cache(cache_cfg);
        return simulateLayoutCache(layout, cache).hitRate();
    };
    EXPECT_GT(hit_rate(true), hit_rate(false));
}

TEST(IndexSortTest, MissStreamMatchesStats)
{
    ot::LpnEncoder enc(lpnParams(4000, 1200));
    SortOptions opt;
    SortedLpnLayout layout = buildSortedLayout(enc, 0, 4000, opt);
    sim::CacheSim cache(sim::CacheConfig{});
    std::vector<uint64_t> misses;
    auto stats = simulateLayoutCache(layout, cache, &misses);
    EXPECT_EQ(misses.size(), stats.misses);
    for (uint64_t line : misses)
        EXPECT_EQ(line % 64, 0u);
}

} // namespace
} // namespace ironman::nmp
