/**
 * @file
 * Test fixture for the FERRET engine pair: deal a base, run N
 * bootstrapped extensions of a FerretCotSender/FerretCotReceiver pair
 * at T worker threads over an in-memory duplex, and return the
 * concatenated outputs with delta, the wire totals and both engines'
 * counters. correlated() is the one output check.
 *
 * Two seedings derive a pair's base and party RNGs from its seed, bit
 * for bit as the suites recorded them:
 *
 *  - Seeding::Dealer: Rng dealer(seed), delta its first block, then
 *    dealBaseCots; the sender's RNG is seeded seed + 1, the
 *    receiver's seed + 2 (test_ferret_pipeline's digests);
 *  - Seeding::Service: svc::dealSessionBase with
 *    svc::senderRngSeed / svc::receiverRngSeed, what one COT service
 *    session of that setup seed runs (test_svc's ground truth).
 */

#ifndef IRONMAN_TESTS_FERRET_PAIR_H
#define IRONMAN_TESTS_FERRET_PAIR_H

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "svc/wire.h"

namespace ironman::ot {

enum class Seeding
{
    Dealer,
    Service,
};

/** Outputs of every extension of one pair run, in call order. */
struct FerretPairRun
{
    Block delta;
    std::vector<Block> q; ///< sender strings
    std::vector<Block> t; ///< receiver strings
    BitVec choice;        ///< receiver choice bits
    net::WireStats wire;
    StatSet senderStats;
    StatSet receiverStats;
};

/**
 * One engine pair: parameters, seed and schedule. Designated
 * initializers name what differs from the defaults.
 */
struct FerretPair
{
    FerretParams params;
    uint64_t seed = 0;
    int iterations = 1;
    int threads = 1;
    Seeding seeding = Seeding::Dealer;

    /** The pair's base COTs; the sender half carries delta. */
    std::pair<CotSenderBatch, CotReceiverBatch>
    deal() const
    {
        if (seeding == Seeding::Dealer) {
            Rng dealer(seed);
            const Block delta = dealer.nextBlock();
            return dealBaseCots(dealer, delta, params.reservedCots());
        }
        std::pair<CotSenderBatch, CotReceiverBatch> base;
        svc::dealSessionBase(params, seed, &base.first, &base.second,
                             &base.first.delta);
        return base;
    }

    FerretPairRun run() const { return run(deal()); }

    /**
     * Run from @p base. Given engines (both or neither) are bound to
     * the pair's session by resetSession(); otherwise fresh ones are
     * constructed.
     */
    FerretPairRun
    run(std::pair<CotSenderBatch, CotReceiverBatch> base,
        FerretCotSender *sender = nullptr,
        FerretCotReceiver *receiver = nullptr) const
    {
        const bool dealer = seeding == Seeding::Dealer;
        const size_t usable = params.usableOts();
        FerretPairRun out;
        out.delta = base.first.delta;
        // Each party zero-fills its own output on its own thread: a
        // 2^23 pair writes 268 MB per side per extension.
        out.wire = net::runTwoParty(
            [&](net::Channel &ch) {
                out.q.resize(usable * size_t(iterations));
                std::optional<FerretCotSender> own;
                FerretCotSender *s = sender;
                if (s)
                    s->resetSession(ch, out.delta, base.first.q.data(),
                                    base.first.q.size());
                else
                    s = &own.emplace(ch, params, out.delta,
                                     std::move(base.first.q));
                s->setThreads(threads);
                Rng rng(dealer ? seed + 1 : svc::senderRngSeed(seed));
                for (int it = 0; it < iterations; ++it)
                    s->extendInto(rng, out.q.data() + size_t(it) * usable);
                out.senderStats = s->stats();
            },
            [&](net::Channel &ch) {
                out.t.resize(usable * size_t(iterations));
                std::optional<FerretCotReceiver> own;
                FerretCotReceiver *r = receiver;
                if (r)
                    r->resetSession(ch, base.second.choice,
                                    base.second.t.data(),
                                    base.second.t.size());
                else
                    r = &own.emplace(ch, params,
                                     std::move(base.second.choice),
                                     std::move(base.second.t));
                r->setThreads(threads);
                Rng rng(dealer ? seed + 2 : svc::receiverRngSeed(seed));
                BitVec c;
                for (int it = 0; it < iterations; ++it) {
                    r->extendInto(rng, c,
                                  out.t.data() + size_t(it) * usable);
                    out.choice.appendRange(c, 0, c.size());
                }
                out.receiverStats = r->stats();
            });
        return out;
    }
};

/**
 * Every output is a COT, t_i = q_i ^ x_i * delta, and there is one
 * choice bit per output.
 */
inline testing::AssertionResult
correlated(const FerretPairRun &run)
{
    if (run.t.size() != run.q.size() || run.choice.size() != run.q.size())
        return testing::AssertionFailure()
               << "sizes differ: q " << run.q.size() << ", t "
               << run.t.size() << ", choice " << run.choice.size();
    size_t bad = 0, first = 0;
    for (size_t i = 0; i < run.q.size(); ++i) {
        if (run.t[i] == (run.q[i] ^ scalarMul(run.choice.get(i), run.delta)))
            continue;
        if (bad++ == 0)
            first = i;
    }
    if (bad == 0)
        return testing::AssertionSuccess()
               << "all " << run.q.size() << " outputs correlate";
    return testing::AssertionFailure()
           << bad << " of " << run.q.size()
           << " outputs break t = q ^ x * delta, the first at index "
           << first;
}

} // namespace ironman::ot

#endif // IRONMAN_TESTS_FERRET_PAIR_H
