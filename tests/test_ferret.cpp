/**
 * @file
 * End-to-end Ferret OTE tests: output correlations hold across
 * iterations (bootstrap included), arities, PRGs, the streaming LPN
 * set and a randomized parameter sweep, and are independent of the
 * worker count (FerretPairGrid over tests/ferret_pair.h);
 * concurrently prewarmed engines share one LPN index tape; and the
 * parameter sets are self-consistent (invariants 1, 7 and 9 of
 * DESIGN.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "ferret_pair.h"
#include "ot/security.h"

namespace ironman::ot {
namespace {

/** Leaves each engine tree of @p p expands (SPCOT's leaf stride). */
size_t
expandedLeaves(const FerretParams &p)
{
    SpcotShape shape;
    shape.prepare(spcotConfigOf(p));
    return shape.leaves;
}

/** @p p with its GGM arity and PRG replaced. */
FerretParams
withTrees(FerretParams p, unsigned arity, crypto::PrgKind prg)
{
    p.arity = arity;
    p.prg = prg;
    return p;
}

/**
 * One engine pair of the correlation grid, and the thread counts
 * (besides the pair's own) that must reproduce its outputs bit for
 * bit.
 */
struct FerretCell
{
    std::string name;
    FerretPair pair;
    std::vector<int> alsoAt = {};
};

void
PrintTo(const FerretCell &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<FerretCell>
ferretCells()
{
    using crypto::PrgKind;
    const FerretParams tiny = tinyTestParams();
    std::vector<FerretCell> cells = {
        {"tiny", {.params = tiny, .seed = 1000}},
        // Bootstrapping: each extension runs on the reserve the
        // previous one produced.
        {"tiny_3_iterations",
         {.params = tiny, .seed = 2000, .iterations = 3}},
        {"tiny_aes_2ary",
         {.params = withTrees(tiny, 2, PrgKind::Aes), .seed = 5000}},
        {"tiny_chacha8_8ary",
         {.params = withTrees(tiny, 8, PrgKind::ChaCha8), .seed = 6000}},
        {"tiny_4_threads", {.params = tiny, .seed = 8000, .threads = 4}},
        // Invariant 9: the pooled SPCOT and LPN paths at 2 and 4
        // workers reproduce the single-threaded outputs.
        {"tiny_1_2_4_threads",
         {.params = tiny, .seed = 7100, .iterations = 2},
         {2, 4}},
        // 2^23 is the smallest Table-4 set whose index tape is over the
        // cap, so its engines run the fused streaming LPN encoder; the
        // second extension encodes from the reserve the first one
        // bootstrapped.
        {"stream_2e23",
         {.params = paperParamSet(23), .seed = 9000, .iterations = 2,
          .threads = 2}},
    };
    // Randomized sweep: the correlation holds for arbitrary (n, k, t,
    // arity, prg), not just the published sets.
    struct Sweep
    {
        size_t n, k, t;
        unsigned arity;
        PrgKind prg;
    };
    const Sweep sweeps[] = {
        {5000, 512, 8, 4, PrgKind::ChaCha8},
        {5000, 512, 8, 2, PrgKind::Aes},
        {9001, 777, 13, 4, PrgKind::ChaCha8},
        {9001, 777, 13, 8, PrgKind::ChaCha8},
        {20000, 2048, 31, 4, PrgKind::ChaCha20},
        {16384, 1000, 16, 16, PrgKind::ChaCha8},
        {33000, 4096, 64, 4, PrgKind::ChaCha8},
        {12345, 999, 7, 2, PrgKind::ChaCha8},
    };
    uint64_t seed = 1;
    for (const Sweep &s : sweeps) {
        FerretParams p;
        p.name = "sweep";
        p.n = s.n;
        p.k = s.k;
        p.t = s.t;
        p.lpnSeed = seed;
        cells.push_back(
            {"n" + std::to_string(s.n) + "_k" + std::to_string(s.k) +
                 "_t" + std::to_string(s.t) + "_m" +
                 std::to_string(s.arity) + "_" +
                 crypto::prgKindName(s.prg),
             {.params = withTrees(p, s.arity, s.prg), .seed = seed++}});
    }
    return cells;
}

class FerretPairGrid : public testing::TestWithParam<FerretCell>
{
};

TEST_P(FerretPairGrid, OutputsCorrelate)
{
    const FerretCell &cell = GetParam();
    ASSERT_GT(cell.pair.params.usableOts(), 0u);
    const FerretPairRun run = cell.pair.run();
    EXPECT_TRUE(correlated(run));
    for (int threads : cell.alsoAt) {
        FerretPair at = cell.pair;
        at.threads = threads;
        const FerretPairRun other = at.run();
        EXPECT_EQ(other.q, run.q) << threads << " threads";
        EXPECT_EQ(other.t, run.t) << threads << " threads";
        EXPECT_EQ(other.choice, run.choice) << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, FerretPairGrid, testing::ValuesIn(ferretCells()),
    [](const testing::TestParamInfo<FerretCell> &info) {
        return info.param.name;
    });

TEST(FerretTest, TreesExpandOnlyTheBucketWidth)
{
    // tinyTestParams: t = 20 trees of l = 1024 (arities 4^5), each
    // pruned to its w = 640 bucket leaves: 1 + 3 + 10 + 40 + 160 = 214
    // main-tree expansions plus 5 wide levels x 3 mini-tree ones, so
    // 20 x 229 = 4580 PRG ops per transcript (full trees: 7120). Three
    // extensions send four transcripts (the first call's own plus one
    // prefetch per call).
    FerretParams p = tinyTestParams();
    ASSERT_EQ(expandedLeaves(p), 640u);
    FerretPairRun run =
        FerretPair{.params = p, .seed = 2500, .iterations = 3}.run();
    EXPECT_TRUE(correlated(run));
    EXPECT_EQ(run.senderStats.get("spcot_prg_ops"), 4u * 4580u);
}

TEST(FerretTest, OutputsDifferAcrossIterations)
{
    FerretParams p = tinyTestParams();
    FerretPairRun run =
        FerretPair{.params = p, .seed = 3000, .iterations = 2}.run();
    // Fresh correlations each round: overlapping values would mean the
    // bootstrap reused outputs.
    size_t same = 0;
    for (size_t i = 0; i < 100; ++i)
        same += (run.q[i] == run.q[p.usableOts() + i]);
    EXPECT_EQ(same, 0u);
}

TEST(FerretTest, ChoiceBitsLookRandom)
{
    FerretPairRun run =
        FerretPair{.params = tinyTestParams(), .seed = 4000}.run();
    double frac = double(run.choice.popcount()) / run.choice.size();
    EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(FerretTest, CommunicationIsSublinear)
{
    FerretParams p = tinyTestParams();
    FerretPairRun run = FerretPair{.params = p, .seed = 7000}.run();
    // IKNP-style OTE moves >= 16 bytes per OT; PCG-style must be far
    // below that (sub-linear: only the SPCOT messages cross the wire).
    double bytes_per_ot = double(run.wire.totalBytes) / p.usableOts();
    EXPECT_LT(bytes_per_ot, 4.0);
}

/**
 * A sender and a receiver of the 2^20 set prewarm at the same time on
 * their own pools: both end up holding the set's one shared tape, and
 * the pair then extends correctly from it.
 */
TEST(FerretTest, ConcurrentPrewarmSharesOneTape)
{
    const FerretParams p = paperParamSet(20);
    FerretCotSender sender(p);
    FerretCotReceiver receiver(p);
    sender.setThreads(2);
    receiver.setThreads(2);
    std::thread warm_s([&] { sender.prewarm(); });
    std::thread warm_r([&] { receiver.prewarm(); });
    warm_s.join();
    warm_r.join();

    // The registry keeps weak references only, so the two engines and
    // this acquisition are the tape's only owners.
    LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    common::ThreadPool pool(1);
    LpnEncodeScratch scratch;
    EXPECT_EQ(sharedLpnTape(LpnEncoder(lp), pool, &scratch).use_count(), 3);

    const FerretPair pair{.params = p, .seed = 9100, .threads = 2};
    EXPECT_TRUE(correlated(pair.run(pair.deal(), &sender, &receiver)));
}

TEST(FerretParamsTest, Table4SelfConsistency)
{
    auto sets = allPaperParamSets();
    for (size_t i = 0; i < sets.size(); ++i) {
        const FerretParams &p = sets[i];
        // Trees cover every bucket, and expand no more than it needs
        // rounded up to the last arity.
        const size_t w = expandedLeaves(p);
        EXPECT_GE(p.treeLeaves(), w) << p.name;
        EXPECT_GE(w, p.bucketSize()) << p.name;
        EXPECT_LT(w, p.bucketSize() + p.arity) << p.name;
        EXPECT_GE(p.t * p.bucketSize(), p.n) << p.name;
        // The extension is productive.
        EXPECT_GT(p.usableOts(), 0u) << p.name;
        // Index tapes up to 2^22; 2^23 and up stream their LPN.
        EXPECT_EQ(LpnIndexTape::bytesFor(p.n, p.lpnWeight) >
                      OtWorkspace::kLpnTapeBytesCap,
                  i >= 3)
            << p.name;
        // Usable output is within 1% of the nominal 2^(20+i) target.
        double target = std::pow(2.0, 20.0 + double(i));
        EXPECT_NEAR(double(p.usableOts()) / target, 1.0, 0.01) << p.name;
    }
}

TEST(FerretParamsTest, TreeSizesMatchPaperWhereCoverable)
{
    EXPECT_EQ(paperParamSet(20).treeLeaves(), 4096u);
    EXPECT_EQ(paperParamSet(21).treeLeaves(), 4096u);
    EXPECT_EQ(paperParamSet(22).treeLeaves(), 8192u);
    // 2^23/2^24: bucket > 8192, we grow to 16384 (see EXPERIMENTS.md).
    EXPECT_EQ(paperParamSet(23).treeLeaves(), 16384u);
    EXPECT_EQ(paperParamSet(24).treeLeaves(), 16384u);
    // Each tree expands its bucket, rounded up to the last arity.
    EXPECT_EQ(expandedLeaves(paperParamSet(20)), 2548u);
    EXPECT_EQ(expandedLeaves(paperParamSet(24)), 8224u);
}

TEST(LpnSecurityTest, Table4SetsNear128Bit)
{
    for (const FerretParams &p : allPaperParamSets()) {
        auto est = estimateLpnSecurity(p.n, p.k, p.t);
        // Our estimator should land within ~8 bits of Table 4 and
        // always certify >= 124-bit security.
        EXPECT_NEAR(est.bits(), p.paperBitSec, 8.0) << p.name;
        EXPECT_GE(est.bits(), 124.0) << p.name;
    }
}

TEST(LpnSecurityTest, MonotoneInNoiseWeight)
{
    auto low = estimateLpnSecurity(1 << 20, 100000, 100);
    auto high = estimateLpnSecurity(1 << 20, 100000, 400);
    EXPECT_GT(high.bits(), low.bits());
}

} // namespace
} // namespace ironman::ot
