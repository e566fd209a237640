/**
 * @file
 * End-to-end Ferret OTE tests: output correlations hold, bootstrapping
 * works across iterations, concurrently prewarmed engines share one
 * LPN index tape, and the parameter sets are self-consistent
 * (invariants 1 and 7 of DESIGN.md).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "common/rng.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/security.h"

namespace ironman::ot {
namespace {

/** Receiver output of one extension (test-local). */
struct RecvOut
{
    BitVec choice;
    std::vector<Block> t;
};

/** Run one or more extensions and return all outputs. */
struct FerretRun
{
    Block delta;
    std::vector<std::vector<Block>> sender_out;
    std::vector<RecvOut> receiver_out;
    net::WireStats wire;
    uint64_t sender_spcot_ops = 0;
};

FerretRun
runFerret(const FerretParams &p, int iterations, uint64_t seed,
          unsigned arity = 4,
          crypto::PrgKind kind = crypto::PrgKind::ChaCha8,
          int threads = 1)
{
    FerretParams params = p;
    params.arity = arity;
    params.prg = kind;

    Rng dealer(seed);
    FerretRun run;
    run.delta = dealer.nextBlock();
    auto [base_s, base_r] =
        dealBaseCots(dealer, run.delta, params.reservedCots());

    run.wire = net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, params, run.delta,
                                   std::move(base_s.q));
            sender.setThreads(threads);
            Rng rng(seed + 1);
            for (int it = 0; it < iterations; ++it) {
                std::vector<Block> out(params.usableOts());
                sender.extendInto(rng, out.data());
                run.sender_out.push_back(std::move(out));
            }
            run.sender_spcot_ops = sender.stats().get("spcot_prg_ops");
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, params,
                                       std::move(base_r.choice),
                                       std::move(base_r.t));
            receiver.setThreads(threads);
            Rng rng(seed + 2);
            for (int it = 0; it < iterations; ++it) {
                RecvOut out;
                out.t.resize(params.usableOts());
                receiver.extendInto(rng, out.choice, out.t.data());
                run.receiver_out.push_back(std::move(out));
            }
        });
    return run;
}

void
expectValidCots(const FerretRun &run, size_t expect_size)
{
    ASSERT_EQ(run.sender_out.size(), run.receiver_out.size());
    for (size_t it = 0; it < run.sender_out.size(); ++it) {
        const auto &q = run.sender_out[it];
        const auto &out = run.receiver_out[it];
        ASSERT_EQ(q.size(), expect_size) << "iteration " << it;
        ASSERT_EQ(out.t.size(), expect_size);
        ASSERT_EQ(out.choice.size(), expect_size);
        for (size_t i = 0; i < q.size(); ++i) {
            ASSERT_EQ(out.t[i],
                      q[i] ^ scalarMul(out.choice.get(i), run.delta))
                << "iteration " << it << " index " << i;
        }
    }
}

TEST(FerretTest, SingleExtensionCorrelation)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 1, 1000);
    expectValidCots(run, p.usableOts());
}

TEST(FerretTest, ThreeIterationsBootstrapCorrectly)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 3, 2000);
    expectValidCots(run, p.usableOts());
}

/** Leaves each engine tree of @p p expands (SPCOT's leaf stride). */
size_t
expandedLeaves(const FerretParams &p)
{
    SpcotShape shape;
    shape.prepare(spcotConfigOf(p));
    return shape.leaves;
}

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
    FerretRun run = runFerret(p, 3, 2500);
    expectValidCots(run, p.usableOts());
    EXPECT_EQ(run.sender_spcot_ops, 4u * 4580u);
}

TEST(FerretTest, OutputsDifferAcrossIterations)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 2, 3000);
    // Fresh correlations each round: overlapping values would mean the
    // bootstrap reused outputs.
    size_t same = 0;
    for (size_t i = 0; i < 100; ++i)
        same += (run.sender_out[0][i] == run.sender_out[1][i]);
    EXPECT_EQ(same, 0u);
}

TEST(FerretTest, ChoiceBitsLookRandom)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 1, 4000);
    double frac = double(run.receiver_out[0].choice.popcount()) /
                  run.receiver_out[0].choice.size();
    EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(FerretTest, WorksWithAes2aryBaseline)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 1, 5000, 2, crypto::PrgKind::Aes);
    expectValidCots(run, p.usableOts());
}

TEST(FerretTest, WorksWith8aryChaCha)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 1, 6000, 8, crypto::PrgKind::ChaCha8);
    expectValidCots(run, p.usableOts());
}

TEST(FerretTest, CommunicationIsSublinear)
{
    FerretParams p = tinyTestParams();
    FerretRun run = runFerret(p, 1, 7000);
    // IKNP-style OTE moves >= 16 bytes per OT; PCG-style must be far
    // below that (sub-linear: only the SPCOT messages cross the wire).
    double bytes_per_ot = double(run.wire.totalBytes) / p.usableOts();
    EXPECT_LT(bytes_per_ot, 4.0);
}

TEST(FerretTest, MultiThreadedLpnMatches)
{
    FerretParams p = tinyTestParams();

    Rng dealer(8000);
    Block delta = dealer.nextBlock();
    auto [base_s, base_r] = dealBaseCots(dealer, delta, p.reservedCots());

    std::vector<Block> q_out(p.usableOts());
    RecvOut r_out;
    r_out.t.resize(p.usableOts());
    net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, p, delta, std::move(base_s.q));
            sender.setThreads(4);
            Rng rng(8001);
            sender.extendInto(rng, q_out.data());
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, p, std::move(base_r.choice),
                                       std::move(base_r.t));
            receiver.setThreads(4);
            Rng rng(8002);
            receiver.extendInto(rng, r_out.choice, r_out.t.data());
        });

    for (size_t i = 0; i < q_out.size(); ++i)
        ASSERT_EQ(r_out.t[i],
                  q_out[i] ^ scalarMul(r_out.choice.get(i), delta));
}

TEST(FerretTest, StreamingLpnSetBootstrapsCorrectly)
{
    // 2^23 is the smallest Table-4 set whose index tape is over the
    // cap, so its engines run the fused streaming LPN encoder. Two
    // extensions: the second one encodes from the reserve the first
    // one bootstrapped.
    const FerretParams p = paperParamSet(23);
    ASSERT_GT(LpnIndexTape::bytesFor(p.n, p.lpnWeight),
              OtWorkspace::kLpnTapeBytesCap);
    const FerretParams below = paperParamSet(22);
    ASSERT_LE(LpnIndexTape::bytesFor(below.n, below.lpnWeight),
              OtWorkspace::kLpnTapeBytesCap);
    FerretRun run = runFerret(p, 2, 9000, p.arity, p.prg, 2);
    expectValidCots(run, p.usableOts());
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

    Rng dealer(9100);
    const Block delta = dealer.nextBlock();
    auto [base_s, base_r] = dealBaseCots(dealer, delta, p.reservedCots());
    std::vector<Block> q_out(p.usableOts());
    RecvOut r_out;
    r_out.t.resize(p.usableOts());
    net::runTwoParty(
        [&](net::Channel &ch) {
            sender.resetSession(ch, delta, base_s.q.data(), base_s.q.size());
            Rng rng(9101);
            sender.extendInto(rng, q_out.data());
        },
        [&](net::Channel &ch) {
            receiver.resetSession(ch, base_r.choice, base_r.t.data(),
                                  base_r.t.size());
            Rng rng(9102);
            receiver.extendInto(rng, r_out.choice, r_out.t.data());
        });
    for (size_t i = 0; i < q_out.size(); ++i)
        ASSERT_EQ(r_out.t[i],
                  q_out[i] ^ scalarMul(r_out.choice.get(i), delta));
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
