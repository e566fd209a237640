/**
 * @file
 * Ironman-NMP model tests: area/power calibration against Table 6,
 * performance-model trend checks against the paper's headline claims
 * (rank scaling, cache sweet spots, SPCOT-vs-LPN balance), and the
 * unified-unit functional equivalence.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/seed_expander.h"
#include "nmp/area_power.h"
#include "nmp/ironman_model.h"
#include "nmp/reference.h"
#include "nmp/unified_unit.h"
#include "ot/ggm_tree.h"

namespace ironman::nmp {
namespace {

IronmanConfig
config(unsigned dimms, uint64_t cache_bytes)
{
    IronmanConfig cfg;
    cfg.numDimms = dimms;
    cfg.cacheBytes = cache_bytes;
    cfg.sampleRows = 60000; // keep unit tests fast
    return cfg;
}

TEST(AreaPowerTest, Table6Calibration)
{
    PuSpec pu256;
    pu256.cacheBytes = 256 * 1024;
    EXPECT_NEAR(pu256.areaMm2(), 1.482, 0.01);
    EXPECT_NEAR(pu256.powerWatt(), 1.301, 0.01);

    PuSpec pu1m;
    pu1m.cacheBytes = 1024 * 1024;
    EXPECT_NEAR(pu1m.areaMm2(), 2.995, 0.01);
    EXPECT_NEAR(pu1m.powerWatt(), 1.430, 0.01);

    // Far below a DRAM chip / LRDIMM budget (Sec. 6.6).
    EXPECT_LT(pu1m.areaMm2(), ReferencePlatforms::dramChipAreaMm2 / 10);
    EXPECT_LT(pu1m.powerWatt(), ReferencePlatforms::lrdimmPowerWatt / 2);
}

TEST(AreaPowerTest, Table2PerfPerArea)
{
    // ChaCha8: 512 bits/cycle / 0.215 mm^2 vs AES 128 bits / 0.233.
    auto chacha = chaCha8Core();
    auto aes = aes128Core();
    double ratio = (double(chacha.outputBits) / chacha.areaMm2) /
                   (double(aes.outputBits) / aes.areaMm2);
    EXPECT_NEAR(ratio, 4.49, 0.2); // Table 2's 4.491

    // Power per block: ChaCha 45.33mW/4 blocks vs AES 35.05mW/1.
    double power_per_block_ratio =
        (aes.powerWatt / aes.blocksPerOp()) /
        (chacha.powerWatt / chacha.blocksPerOp());
    EXPECT_NEAR(power_per_block_ratio, 3.09, 0.15); // Table 2's 3.092
}

TEST(IronmanModelTest, MoreRanksReduceLpnLatency)
{
    ot::FerretParams p = ot::paperParamSet(20);
    double prev = 1e30;
    for (unsigned dimms : {1u, 2u, 4u, 8u}) {
        IronmanModel model(config(dimms, 256 * 1024), p);
        IronmanReport r = model.simulate();
        EXPECT_LT(r.lpnSeconds, prev) << dimms << " DIMMs";
        prev = r.lpnSeconds;
    }
}

TEST(IronmanModelTest, BiggerCacheRaisesHitRateSmallParams)
{
    // 2^20 set: k = 168000 blocks = 2.6 MB. 1 MB holds far more of it
    // than 256 KB.
    ot::FerretParams p = ot::paperParamSet(20);
    IronmanModel small(config(4, 256 * 1024), p);
    IronmanModel big(config(4, 1024 * 1024), p);
    double hr_small = small.simulate().cache.hitRate();
    double hr_big = big.simulate().cache.hitRate();
    EXPECT_GT(hr_big, hr_small + 0.1);
}

TEST(IronmanModelTest, SpcotStaysBelowLpnWithChaCha4ary)
{
    // Fig. 13(b): 4-ary ChaCha SPCOT latency remains below LPN across
    // rank configurations.
    ot::FerretParams p = ot::paperParamSet(22);
    for (unsigned dimms : {1u, 2u, 4u, 8u}) {
        IronmanModel model(config(dimms, 256 * 1024), p);
        IronmanReport r = model.simulate();
        EXPECT_LT(r.spcotSeconds, r.lpnSeconds) << dimms << " DIMMs";
    }
}

TEST(IronmanModelTest, Aes2aryInvertsTheBalance)
{
    // Fig. 13(a)/(b): 2-ary AES SPCOT dominates; switching to 4-ary
    // ChaCha cuts SPCOT ~6x.
    ot::FerretParams p = ot::paperParamSet(20);
    p.arity = 2;
    p.prg = crypto::PrgKind::Aes;
    IronmanModel aes_model(config(4, 256 * 1024), p);
    IronmanReport aes_r = aes_model.simulate();

    ot::FerretParams q = ot::paperParamSet(20);
    IronmanModel cc_model(config(4, 256 * 1024), q);
    IronmanReport cc_r = cc_model.simulate();

    EXPECT_GT(aes_r.spcotSeconds, aes_r.lpnSeconds);
    EXPECT_NEAR(aes_r.spcotSeconds / cc_r.spcotSeconds, 6.0, 1.5);
}

TEST(IronmanModelTest, SortingLowersLpnTime)
{
    ot::FerretParams p = ot::paperParamSet(20);
    IronmanModel model(config(2, 256 * 1024), p);

    SortOptions none;
    none.columnSwap = false;
    none.rowLookahead = false;
    SortOptions full;

    double unsorted = model.simulateLpn(none).lpnSeconds;
    double sorted = model.simulateLpn(full).lpnSeconds;
    EXPECT_LT(sorted, unsorted * 0.8);
}

TEST(IronmanModelTest, EnergyAndAreaPopulated)
{
    ot::FerretParams p = ot::paperParamSet(20);
    IronmanModel model(config(2, 256 * 1024), p);
    IronmanReport r = model.simulate();
    EXPECT_GT(r.energyJoule, 0.0);
    EXPECT_GT(r.powerWatt, 0.0);
    EXPECT_NEAR(r.areaMm2, 1.482, 0.01);
    EXPECT_GT(r.totalSeconds, 0.0);
    EXPECT_GE(r.totalSeconds,
              std::max(r.spcotSeconds, r.lpnSeconds));
}

TEST(IronmanModelTest, SampledAndScaledAgreeOnSmallInstance)
{
    // With a small n, full simulation and a half sample must land on
    // similar per-row costs (the SMARTS-style scaling assumption).
    ot::FerretParams p = ot::tinyTestParams();
    IronmanConfig full_cfg = config(1, 64 * 1024);
    full_cfg.sampleRows = 0; // everything
    IronmanConfig half_cfg = full_cfg;
    half_cfg.sampleRows = 6400;

    double full = IronmanModel(full_cfg, p).simulate().lpnSeconds;
    double half = IronmanModel(half_cfg, p).simulate().lpnSeconds;
    EXPECT_NEAR(half / full, 1.0, 0.25);
}

TEST(UnifiedUnitTest, LevelSumsMatchGgmExpansion)
{
    auto prg = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
    auto arities = ot::treeArities(256, 4);
    ot::GgmSumLayout layout = ot::GgmSumLayout::of(arities);
    ot::GgmScratch scratch;
    std::vector<Block> leaves(layout.leaves);
    std::vector<Block> sums(layout.total);
    Block leaf_sum;
    ot::ggmExpandInto(*prg, Block::fromUint64(3), layout, scratch,
                      leaves.data(), sums.data(), &leaf_sum);

    // Rebuild each level's nodes by expanding and compare sums.
    std::vector<Block> level{Block::fromUint64(3)};
    for (size_t lvl = 0; lvl < arities.size(); ++lvl) {
        std::vector<Block> next(level.size() * arities[lvl]);
        auto prg2 = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
        prg2->expand(level.data(), next.data(), level.size(),
                     arities[lvl]);
        std::vector<Block> expect(
            sums.begin() + layout.offset[lvl],
            sums.begin() + layout.offset[lvl] + arities[lvl]);
        EXPECT_EQ(UnifiedUnit::levelSums(next, arities[lvl]), expect)
            << "level " << lvl;
        level = std::move(next);
    }
}

TEST(UnifiedUnitTest, SenderCostsMorePassesThanReceiver)
{
    UnifiedUnit unit(4);
    uint64_t kg = unit.treeCycles(4096, 4, UnitRole::KeyGenerator);
    uint64_t md = unit.treeCycles(4096, 4, UnitRole::MessageDecoder);
    EXPECT_GT(kg, md);
    // Same hardware serves both roles — the functional API is shared.
    EXPECT_EQ(unit.fanIn(), 8u);
}

TEST(GpuReferenceTest, ModelConstants)
{
    EXPECT_NEAR(GpuReference::secondsPerExec(5.88), 1.0, 1e-9);
    EXPECT_NEAR(GpuReference::spcotFraction + GpuReference::lpnFraction,
                0.943, 0.01);
}

TEST(CpuReferenceTest, MeasurementRunsOnTinyParams)
{
    ot::FerretParams p = ot::tinyTestParams();
    CpuOteMeasurement m = measureCpuOte(p, 2, 1);
    EXPECT_GT(m.secondsPerExec, 0.0);
    EXPECT_EQ(m.usableOts, p.usableOts());
    EXPECT_GT(m.otsPerSecond(), 0.0);
    EXPECT_GT(m.wireBytes, 0u);
    // The sender's SPCOT and LPN stages run one after the other, so
    // their shares are disjoint parts of the extension.
    EXPECT_GT(m.spcotSeconds, 0.0);
    EXPECT_GT(m.lpnSeconds, 0.0);
    EXPECT_LE(m.spcotSeconds + m.lpnSeconds, m.secondsPerExec);
}

} // namespace
} // namespace ironman::nmp
