/**
 * @file
 * Iteration-pipeline known-answer test (invariant 10 of DESIGN.md):
 * the FERRET engine — LPN of iteration i overlapped with the SPCOT
 * transcript of iteration i+1, double-buffered transcript slots —
 * must reproduce a recorded 64-bit digest of three bootstrapped
 * extensions for fixed RNG seeds, across parameter sets (different
 * tree shapes, LPN sizes and PRGs) and across worker counts.
 *
 * The digests were recorded from the serial (one extension at a time,
 * no overlap) engine, and the overlapped engine matched them at 1 and
 * 4 workers before the serial mode was retired. A digest change means
 * the protocol output changed, not merely its schedule.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"

namespace ironman::ot {
namespace {

struct RunOutput
{
    std::vector<Block> q;
    std::vector<Block> t;
    BitVec choice;
    Block delta;
};

RunOutput
runExtensions(const FerretParams &p, int threads, int iterations,
              uint64_t seed)
{
    Rng dealer(seed);
    RunOutput out;
    out.delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, out.delta, p.reservedCots());

    const size_t usable = p.usableOts();
    out.q.resize(usable * iterations);
    out.t.resize(usable * iterations);

    net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, p, out.delta, std::move(bs.q));
            sender.setThreads(threads);
            Rng rng(seed + 1);
            for (int it = 0; it < iterations; ++it)
                sender.extendInto(rng, out.q.data() + it * usable);
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, p, std::move(br.choice),
                                       std::move(br.t));
            receiver.setThreads(threads);
            Rng rng(seed + 2);
            BitVec c;
            for (int it = 0; it < iterations; ++it) {
                receiver.extendInto(rng, c, out.t.data() + it * usable);
                for (size_t i = 0; i < c.size(); ++i)
                    out.choice.pushBack(c.get(i));
            }
        });
    return out;
}

/**
 * FNV-1a 64 over q then t (each block as lo then hi, little-endian
 * bytes) then one byte per choice bit: std-only and endian-stable.
 */
uint64_t
digest(const RunOutput &r)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto byte = [&](uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; };
    auto word = [&](uint64_t w) {
        for (int i = 0; i < 8; ++i)
            byte(uint8_t(w >> (8 * i)));
    };
    for (const std::vector<Block> *v : {&r.q, &r.t})
        for (const Block &b : *v) {
            word(b.lo);
            word(b.hi);
        }
    for (size_t i = 0; i < r.choice.size(); ++i)
        byte(r.choice.get(i) ? 1 : 0);
    return h;
}

struct KnownAnswer
{
    FerretParams params;
    uint64_t seed;
    uint64_t digest; ///< of runExtensions(params, *, 3, seed)
};

/** Parameter sets with different tree shapes, arities and PRGs. */
std::vector<KnownAnswer>
knownAnswers()
{
    std::vector<KnownAnswer> kats;
    // 4-ary ChaCha8, l = 1024.
    kats.push_back({tinyTestParams(), 8800, 0x85bc80305158e9c4ULL});

    FerretParams a;
    a.name = "small-binary";
    a.n = 6000;
    a.k = 600;
    a.t = 10;
    a.arity = 2; // no mini trees: the binary-levels-only path
    a.prg = crypto::PrgKind::Aes;
    a.lpnSeed = 0x5151;
    kats.push_back({a, 8817, 0xc26a35a1d2d99ff7ULL});

    FerretParams b;
    b.name = "small-8ary";
    b.n = 9000;
    b.k = 800;
    b.t = 14;
    b.arity = 8; // wide mini trees, non-power-of-arity leaf count
    b.prg = crypto::PrgKind::ChaCha8;
    b.lpnSeed = 0x2323;
    kats.push_back({b, 8834, 0xd4fe17022e2137b0ULL});

    FerretParams c;
    c.name = "small-cc20";
    c.n = 12000;
    c.k = 1500;
    c.t = 24;
    c.arity = 4;
    c.prg = crypto::PrgKind::ChaCha20;
    c.lpnSeed = 0x7777;
    kats.push_back({c, 8851, 0x74ff7cc7ec80faefULL});
    return kats;
}

TEST(FerretPipelineTest, ReproducesRecordedTranscriptDigests)
{
    for (const KnownAnswer &kat : knownAnswers()) {
        const FerretParams &p = kat.params;
        ASSERT_GT(p.usableOts(), 0u) << p.name;
        for (int threads : {1, 4}) {
            RunOutput run = runExtensions(p, threads, 3, kat.seed);
            EXPECT_EQ(digest(run), kat.digest)
                << p.name << " at " << threads << " threads";

            // Valid correlations across every iteration (bootstrap
            // included).
            for (size_t i = 0; i < run.q.size(); ++i)
                ASSERT_EQ(run.t[i],
                          run.q[i] ^ scalarMul(run.choice.get(i),
                                               run.delta))
                    << p.name << " index " << i;
        }
    }
}

} // namespace
} // namespace ironman::ot
