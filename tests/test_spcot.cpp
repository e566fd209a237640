/**
 * @file
 * SPCOT protocol tests: after one batched execution,
 * w[tree] = v[tree] except at alpha where w = v ^ Delta (invariant 2
 * of DESIGN.md), across arities, PRGs and tree sizes. Runs the
 * workspace stages back to back (spcotSendTranscript on one side,
 * the three spcotRecv* stages on the other).
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/spcot.h"

namespace ironman::ot {
namespace {

using crypto::PrgKind;

/** Test-local flat outputs around the workspace entry points. */
struct FlatSend
{
    std::vector<Block> w; ///< trees x leaves, row-major
    uint64_t prgOps = 0;
};

struct FlatRecv
{
    std::vector<Block> v;
};

FlatSend
runSend(net::Channel &ch, const SpcotConfig &cfg, size_t trees,
        const Block &delta, const Block *q, Rng &rng, uint64_t &tweak)
{
    common::ThreadPool pool(1);
    SpcotWorkspace ws;
    FlatSend out;
    out.w.resize(trees * cfg.numLeaves);
    spcotSendTranscript(ch, cfg, trees, delta, q, rng, tweak, &pool, ws,
                        out.w.data(), &out.prgOps);
    return out;
}

FlatRecv
runRecv(net::Channel &ch, const SpcotConfig &cfg,
        const std::vector<size_t> &alphas, const BitVec &b,
        size_t b_offset, const Block *t, uint64_t &tweak)
{
    common::ThreadPool pool(1);
    SpcotWorkspace ws;
    FlatRecv out;
    out.v.resize(alphas.size() * cfg.numLeaves);
    const size_t trees = alphas.size();
    ws.prepare(cfg, trees, pool.threads(), /*for_sender=*/false);
    SpcotRecvSlot &slot = ws.slots[0];
    spcotRecvSendChoices(ch, cfg, trees, alphas.data(), b, b_offset, tweak,
                         ws, slot);
    spcotRecvRecvTranscript(ch, cfg, trees, ws, slot);
    spcotRecvFinish(cfg, trees, t, pool, ws, slot, out.v.data(), nullptr);
    return out;
}

struct SpcotCase
{
    PrgKind kind;
    unsigned arity;
    size_t leaves;
    size_t trees;
};

class SpcotParamTest : public ::testing::TestWithParam<SpcotCase>
{};

TEST_P(SpcotParamTest, CorrelationHolds)
{
    const auto [kind, arity, leaves, trees] = GetParam();

    SpcotConfig cfg;
    cfg.numLeaves = leaves;
    cfg.arity = arity;
    cfg.prg = kind;

    Rng dealer_rng(100);
    Block delta = dealer_rng.nextBlock();
    const size_t n_cots = trees * cfg.cotsPerTree();
    auto [cot_s, cot_r] = dealBaseCots(dealer_rng, delta, n_cots);

    Rng alpha_rng(101);
    std::vector<size_t> alphas(trees);
    for (auto &a : alphas)
        a = alpha_rng.nextBelow(leaves);

    FlatSend sout;
    FlatRecv rout;
    auto wire = net::runTwoParty(
        [&](net::Channel &ch) {
            Rng rng(102);
            uint64_t tweak = 1;
            sout = runSend(ch, cfg, trees, delta, cot_s.q.data(), rng,
                           tweak);
        },
        [&](net::Channel &ch) {
            uint64_t tweak = 1;
            rout = runRecv(ch, cfg, alphas, cot_r.choice, 0,
                           cot_r.t.data(), tweak);
        });

    ASSERT_EQ(sout.w.size(), trees * leaves);
    ASSERT_EQ(rout.v.size(), trees * leaves);
    for (size_t tr = 0; tr < trees; ++tr) {
        for (size_t j = 0; j < leaves; ++j) {
            Block expect = sout.w[tr * leaves + j];
            if (j == alphas[tr])
                expect ^= delta;
            EXPECT_EQ(rout.v[tr * leaves + j], expect)
                << "tree=" << tr << " leaf=" << j;
        }
    }

    // One round trip: receiver bits out, sender blocks back.
    EXPECT_EQ(wire.turns, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpcotParamTest,
    ::testing::Values(SpcotCase{PrgKind::Aes, 2, 64, 4},
                      SpcotCase{PrgKind::Aes, 4, 64, 4},
                      SpcotCase{PrgKind::ChaCha8, 2, 128, 3},
                      SpcotCase{PrgKind::ChaCha8, 4, 256, 5},
                      SpcotCase{PrgKind::ChaCha8, 4, 4096, 2},
                      SpcotCase{PrgKind::ChaCha8, 4, 8192, 2},
                      SpcotCase{PrgKind::ChaCha8, 8, 512, 3},
                      SpcotCase{PrgKind::ChaCha8, 16, 256, 2},
                      SpcotCase{PrgKind::ChaCha8, 32, 1024, 2},
                      SpcotCase{PrgKind::ChaCha20, 4, 64, 2}),
    [](const auto &info) {
        return prgKindName(info.param.kind) + "_m" +
               std::to_string(info.param.arity) + "_l" +
               std::to_string(info.param.leaves) + "_t" +
               std::to_string(info.param.trees);
    });

TEST(SpcotTest, AlphaAtEveryPosition)
{
    // Small tree, exhaustively puncture every leaf.
    SpcotConfig cfg;
    cfg.numLeaves = 16;
    cfg.arity = 4;
    cfg.prg = PrgKind::ChaCha8;

    for (size_t alpha = 0; alpha < cfg.numLeaves; ++alpha) {
        Rng dealer(200 + alpha);
        Block delta = dealer.nextBlock();
        auto [cot_s, cot_r] =
            dealBaseCots(dealer, delta, cfg.cotsPerTree());

        FlatSend sout;
        FlatRecv rout;
        net::runTwoParty(
            [&](net::Channel &ch) {
                Rng rng(300 + alpha);
                uint64_t tweak = 1;
                sout = runSend(ch, cfg, 1, delta, cot_s.q.data(), rng,
                               tweak);
            },
            [&](net::Channel &ch) {
                uint64_t tweak = 1;
                std::vector<size_t> alphas{alpha};
                rout = runRecv(ch, cfg, alphas, cot_r.choice, 0,
                               cot_r.t.data(), tweak);
            });

        for (size_t j = 0; j < cfg.numLeaves; ++j) {
            Block expect = sout.w[j];
            if (j == alpha)
                expect ^= delta;
            ASSERT_EQ(rout.v[j], expect)
                << "alpha=" << alpha << " leaf=" << j;
        }
    }
}

TEST(SpcotTest, CotConsumptionIndependentOfArity)
{
    for (unsigned m : {2u, 4u, 8u}) {
        SpcotConfig cfg;
        cfg.numLeaves = 4096;
        cfg.arity = m;
        EXPECT_EQ(cfg.cotsPerTree(), 12u) << "m=" << m;
    }
}

TEST(SpcotTest, ChaCha4aryUsesFewerPrgOpsThanAes2ary)
{
    const size_t leaves = 1024, trees = 4;
    auto run = [&](PrgKind kind, unsigned m) {
        SpcotConfig cfg;
        cfg.numLeaves = leaves;
        cfg.arity = m;
        cfg.prg = kind;
        Rng dealer(400);
        Block delta = dealer.nextBlock();
        auto [cs, cr] = dealBaseCots(dealer, delta,
                                     trees * cfg.cotsPerTree());
        uint64_t ops = 0;
        net::runTwoParty(
            [&](net::Channel &ch) {
                Rng rng(401);
                uint64_t tweak = 1;
                ops = runSend(ch, cfg, trees, delta, cs.q.data(), rng,
                              tweak).prgOps;
            },
            [&](net::Channel &ch) {
                uint64_t tweak = 1;
                std::vector<size_t> alphas(trees, 5);
                runRecv(ch, cfg, alphas, cr.choice, 0, cr.t.data(),
                        tweak);
            });
        return ops;
    };

    uint64_t aes2 = run(PrgKind::Aes, 2);
    uint64_t chacha4 = run(PrgKind::ChaCha8, 4);
    // Mini trees add a small overhead on top of the main-tree 6x.
    EXPECT_GT(double(aes2) / double(chacha4), 5.0);
}

} // namespace
} // namespace ironman::ot
