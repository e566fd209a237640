/**
 * @file
 * Round-chain guarantees of the Kogge-Stone comparison ladder.
 *
 *  - The ladder DReLU reconstructs the plaintext sign bit across
 *    power-of-two, non-power-of-two, and degenerate widths, and local
 *    forwards stay within the truncation bound of plaintext while
 *    consuming exactly the COTs cotsPerImage() predicts.
 *  - MlpLayerStat reports MEASURED rounds that match the cost model:
 *    ceil(log2(width-1))+2 per ReLU layer (<= 8 at width 32, the
 *    acceptance bound).
 *
 * Served streaming commits (depth-sized groups of the oldest pending
 * requests, bit-identical to the grouped local reference) are cells of
 * test_infer's bit-identity grid; malformed commits are probes of its
 * hostile-peer test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "net/two_party.h"
#include "ot/ferret_params.h"
#include "ppml/cot_engine.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "ppml/secure_compute.h"
#include "served_stack.h"

namespace ironman::infer {
namespace {

using ppml::MlpModelSpec;

constexpr uint64_t kShareSeed = 0x9a11ad;
constexpr uint64_t kSetupSeed = 4321;

/** Two in-process GMW parties at an arbitrary width. */
void
runParties(uint64_t seed, unsigned width,
           const std::function<void(ppml::SecureCompute &)> &party0,
           const std::function<void(ppml::SecureCompute &)> &party1)
{
    net::runTwoParty(
        [&](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, 0, ot::tinyTestParams(),
                                         seed);
            ppml::SecureCompute sc(ch, 0, engine, width);
            party0(sc);
        },
        [&](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, 1, ot::tinyTestParams(),
                                         seed);
            ppml::SecureCompute sc(ch, 1, engine, width);
            party1(sc);
        });
}

// ---------------------------------------------------------------------------
// The carry circuits agree — everywhere
// ---------------------------------------------------------------------------

// Power-of-two, non-power-of-two (m = width-1 = 11 and 16), and the
// degenerate width-2 circuit (m = 1: the ladder has no combine
// levels, the carry IS the lone generate).
constexpr unsigned kWidths[] = {2, 8, 12, 17, 32};

TEST(RoundChainTest, LadderReconstructsTheSignAtEveryWidth)
{
    const size_t n = 33; // odd, to catch stride bugs in the lanes
    for (const unsigned width : kWidths) {
        const uint64_t mask = (uint64_t(1) << width) - 1;
        const uint64_t sign = uint64_t(1) << (width - 1);
        Rng rng(0xd0e0 + width);
        std::vector<uint64_t> values(n), s0(n), s1(n);
        for (size_t i = 0; i < n; ++i) {
            // Dense around the boundaries: 0, -1, min, max included.
            if (i == 0) values[i] = 0;
            else if (i == 1) values[i] = mask;        // -1
            else if (i == 2) values[i] = sign;        // most negative
            else if (i == 3) values[i] = sign - 1;    // most positive
            else values[i] = rng.nextUint64() & mask;
            s0[i] = rng.nextUint64() & mask;
            s1[i] = (values[i] - s0[i]) & mask;
        }

        BitVec b0, b1;
        runParties(77, width,
                   [&](ppml::SecureCompute &sc) { b0 = sc.drelu(s0); },
                   [&](ppml::SecureCompute &sc) { b1 = sc.drelu(s1); });
        for (size_t i = 0; i < n; ++i) {
            const bool nonneg = (values[i] & sign) == 0;
            EXPECT_EQ(b0.get(i) ^ b1.get(i), nonneg)
                << "width " << width << " value " << values[i];
        }
    }
}

TEST(RoundChainTest, LocalForwardsMatchPlainAndCotModel)
{
    struct Case
    {
        const char *model;
        unsigned width;
    };
    // The fracBits-0 width-8 floor model, a non-default width, the
    // acceptance-grid model, and the deep 3-ReLU-layer one.
    constexpr Case kCases[] = {{"mlp-4x3x2", 8},
                               {"mlp-12x6x3", 16},
                               {"mlp-16x8x4", 32},
                               {"mlp-16x16x16x8", 24}};
    for (const Case &c : kCases) {
        const ServedCell cell{.model = c.model, .batch = 2, .count = 2,
                              .firstInput = 8200};
        const MlpModelSpec &spec = cell.spec();
        const auto reqs = cell.inputs();
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec, c.width, reqs, kShareSeed, kSetupSeed,
            ot::tinyTestParams());

        // The estimator matches what was actually consumed
        // (cotsPerImage is per DIRECTION; the party counter sees 2
        // COTs per AND gate) — reservoir sizing relies on it.
        const uint64_t imgs = 2 * 2; // requests x batch
        EXPECT_EQ(local.cotsPerParty,
                  2 * imgs * spec.cotsPerImage(c.width))
            << spec.name << " w" << c.width;

        const int64_t bound = ppml::mlpTruncationErrorBound(spec);
        for (size_t r = 0; r < reqs.size(); ++r) {
            const auto plain = ppml::mlpPlainForward(spec, reqs[r]);
            for (size_t i = 0; i < plain.size(); ++i)
                EXPECT_LE(std::llabs(local.outputs[r][i] - plain[i]),
                          bound)
                    << spec.name << " output " << i;
        }
    }
}

TEST(RoundChainTest, MeasuredRoundsMatchCostModel)
{
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-16x8x4");
    constexpr unsigned kWidth = 32;
    const std::vector<uint64_t> x(spec.inputDim(), 5);

    std::vector<ppml::MlpLayerStat> stats;
    auto party = [&](int id) {
        return [&, id](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, id, ot::tinyTestParams(), 78);
            ppml::SecureCompute sc(ch, id, engine, kWidth);
            ppml::MlpRunner runner(spec, kWidth);
            runner.forward(sc, ch, x);
            if (id == 0)
                stats = runner.layerStats();
        };
    };
    net::runTwoParty(party(0), party(1));

    bool saw_relu = false;
    for (const ppml::MlpLayerStat &st : stats) {
        if (st.label.rfind("relu", 0) != 0)
            continue;
        saw_relu = true;
        // MEASURED interaction batches, not an analytic constant.
        EXPECT_EQ(st.rounds, ppml::reluRounds(kWidth));
        EXPECT_EQ(st.cots, spec.reluElements() *
                               (2 * ppml::dreluAndGates(kWidth) + 2));
    }
    EXPECT_TRUE(saw_relu);
    // The acceptance bound: width-32 DReLU+MUX in <= 8 rounds.
    EXPECT_LE(ppml::reluRounds(kWidth), 8u);
}

} // namespace
} // namespace ironman::infer
