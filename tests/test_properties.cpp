/**
 * @file
 * Cross-module property tests and failure injection.
 *
 * - Failure injection: corrupting base COTs or tampering with wire
 *   bytes must break the output correlation (semi-honest protocols
 *   do not *detect* tampering, but the correlation check used by
 *   every consumer must expose it — nothing silently "heals").
 * - Channel fuzz: arbitrary segmentation of sends/recvs is lossless.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ferret_pair.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ggm_tree.h"
#include "ot/spcot.h"

namespace ironman::ot {
namespace {

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST(FailureInjectionTest, CorruptedBaseCotBreaksOutput)
{
    const FerretPair pair{.params = tinyTestParams(), .seed = 500};
    auto base = pair.deal();

    // Flip one bit in one of the receiver's *LPN-input* base COTs:
    // the encoder mixes it into ~n*d/k output rows, so corruption must
    // surface in the usable output (a flipped SPCOT base COT would
    // only poison its own bucket, which may fall entirely inside the
    // bootstrap reserve).
    base.second.t[3].lo ^= 1ULL << 17;
    EXPECT_FALSE(correlated(pair.run(std::move(base))));
}

/**
 * Channel wrapper that flips a bit in a 32-byte window of the carried
 * stream (wide enough to hit both ciphertexts of a chosen-OT pair, so
 * the receiver's selected one is corrupted whichever it is).
 */
class TamperingChannel : public net::Channel
{
  public:
    TamperingChannel(net::Channel &inner, uint64_t target_byte)
        : inner(inner), target(target_byte)
    {}

    void
    sendBytes(const void *data, size_t len) override
    {
        std::vector<uint8_t> copy(
            static_cast<const uint8_t *>(data),
            static_cast<const uint8_t *>(data) + len);
        for (uint64_t b = target; b < target + 32; ++b)
            if (sent <= b && b < sent + len)
                copy[b - sent] ^= 0x40;
        sent += len;
        inner.sendBytes(copy.data(), copy.size());
    }

    void
    recvBytes(void *data, size_t len) override
    {
        inner.recvBytes(data, len);
    }

    uint64_t bytesSent() const override { return inner.bytesSent(); }

  private:
    net::Channel &inner;
    uint64_t target;
    uint64_t sent = 0;
};

TEST(FailureInjectionTest, TamperedWireBreaksSpcotCorrelation)
{
    SpcotConfig cfg;
    cfg.numLeaves = 256;
    cfg.arity = 4;
    cfg.prg = crypto::PrgKind::ChaCha8;
    const size_t trees = 4;

    Rng dealer(600);
    Block delta = dealer.nextBlock();
    auto [cs, cr] = dealBaseCots(dealer, delta,
                                 trees * cfg.cotsPerTree());
    std::vector<size_t> alphas(trees, 37);

    std::vector<Block> w(trees * cfg.numLeaves);
    std::vector<Block> v(trees * cfg.numLeaves);
    net::runTwoParty(
        [&](net::Channel &ch) {
            // Corrupt a byte somewhere inside the sender's ciphertext
            // flush (past the first few OT pairs).
            TamperingChannel evil(ch, 672);
            Rng rng(601);
            uint64_t tweak = 1;
            common::ThreadPool pool(1);
            SpcotWorkspace ws;
            spcotSendTranscript(evil, cfg, trees, delta, cs.q.data(), rng,
                                tweak, pool, ws, w.data(), nullptr);
        },
        [&](net::Channel &ch) {
            uint64_t tweak = 1;
            common::ThreadPool pool(1);
            SpcotWorkspace ws;
            ws.prepare(cfg, trees, pool.threads(), /*for_sender=*/false);
            SpcotRecvSlot &slot = ws.slots[0];
            spcotRecvSendChoices(ch, cfg, trees, alphas.data(), cr.choice,
                                 0, tweak, ws, slot);
            spcotRecvRecvTranscript(ch, cfg, trees, ws, slot);
            spcotRecvFinish(cfg, trees, cr.t.data(), pool, ws, slot,
                            v.data(), nullptr);
        });

    size_t bad = 0;
    for (size_t tr = 0; tr < trees; ++tr)
        for (size_t j = 0; j < cfg.numLeaves; ++j) {
            Block expect = w[tr * cfg.numLeaves + j];
            if (j == alphas[tr])
                expect ^= delta;
            bad += (v[tr * cfg.numLeaves + j] != expect);
        }
    EXPECT_GT(bad, 0u);
}

TEST(FailureInjectionTest, WrongGgmSumsPoisonOnlyThatSubtreePath)
{
    auto prg = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
    auto arities = treeArities(256, 4);
    GgmSumLayout layout = GgmSumLayout::of(arities);
    GgmScratch scratch;
    std::vector<Block> leaves(layout.leaves);
    std::vector<Block> sums(layout.total);
    Block leaf_sum;
    ggmExpandInto(*prg, Block::fromUint64(9), layout, scratch,
                  leaves.data(), sums.data(), &leaf_sum);

    size_t alpha = 77;
    auto digits = alphaDigits(alpha, arities);
    std::vector<Block> known = sums;
    for (size_t lvl = 0; lvl < arities.size(); ++lvl)
        known[layout.offset[lvl] + digits[lvl]] = Block::zero();

    // Corrupt the *last* level's sums only: earlier levels reconstruct
    // fine, so exactly the (arity-1) recovered children of the last
    // level are wrong.
    unsigned last = arities.size() - 1;
    for (unsigned c = 0; c < arities[last]; ++c)
        if (c != digits[last])
            known[layout.offset[last] + c] ^= Block::fromUint64(0xbad);

    auto prg2 = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
    std::vector<Block> rec(layout.leaves);
    GgmScratch scratch2;
    ggmReconstructInto(*prg2, alpha, layout, known.data(), scratch2,
                       rec.data());
    size_t bad = 0;
    for (size_t j = 0; j < rec.size(); ++j) {
        if (j == alpha)
            continue;
        bad += (rec[j] != leaves[j]);
    }
    EXPECT_EQ(bad, arities[last] - 1);
}

// ---------------------------------------------------------------------------
// Channel fuzz
// ---------------------------------------------------------------------------

TEST(ChannelFuzzTest, ArbitrarySegmentationIsLossless)
{
    Rng rng(700);
    const size_t total = 100000;
    std::vector<uint8_t> data(total);
    for (auto &b : data)
        b = uint8_t(rng.nextUint64());

    for (int trial = 0; trial < 5; ++trial) {
        Rng seg_rng(701 + trial);
        std::vector<uint8_t> received(total);
        net::runTwoParty(
            [&](net::Channel &ch) {
                size_t sent = 0;
                Rng local(800 + trial);
                while (sent < total) {
                    size_t chunk = std::min<size_t>(
                        1 + local.nextBelow(4096), total - sent);
                    ch.sendBytes(data.data() + sent, chunk);
                    sent += chunk;
                }
            },
            [&](net::Channel &ch) {
                size_t got = 0;
                while (got < total) {
                    size_t chunk = std::min<size_t>(
                        1 + seg_rng.nextBelow(2048), total - got);
                    ch.recvBytes(received.data() + got, chunk);
                    got += chunk;
                }
            });
        ASSERT_EQ(received, data) << "trial " << trial;
    }
}

} // namespace
} // namespace ironman::ot
