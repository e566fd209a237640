/**
 * @file
 * Regression coverage for the PR 4 ASan watch item (ROADMAP.md): one
 * unreproduced heap-buffer-overflow read in SpcotWorkspace teardown
 * pointed at the pipelined engine's destroy-with-pending-transcript
 * path and the ThreadPool async handoff. This file makes those exact
 * paths a permanent part of the (ASan+UBSan-run) suite:
 *
 *  - destroying a pipelined FerretCotSender/Receiver pair right after
 *    1..3 extensions — the receiver then holds a pending deferred
 *    transcript (SpcotRecvSlot) and the sender a prefetched one —
 *    across both LPN feeds and worker-pool widths;
 *  - destroying engines that never ran an extension;
 *  - resetSession() mid-session WITH a pending transcript (both slot
 *    parities), then verifying the rebound engines are bit-identical
 *    to freshly constructed ones — teardown state must not leak into
 *    the next session.
 */

#include <gtest/gtest.h>

#include "ferret_pair.h"
#include "net/channel.h"

namespace ironman::ot {
namespace {

/** A COT service session's pair of setup seed @p seed. */
FerretPair
sessionPair(const FerretParams &p, uint64_t seed, int iters = 1,
            int threads = 1)
{
    return {.params = p,
            .seed = seed,
            .iterations = iters,
            .threads = threads,
            .seeding = Seeding::Service};
}

TEST(EngineTeardownTest, DestroyWithPendingTranscript)
{
    // Odd AND even iteration counts: the pending transcript sits in
    // either pipeline slot at destruction time.
    for (const FerretParams &p :
         {tinyTestParams(), tinyAlignedParams()}) {
        for (int iters : {1, 2, 3}) {
            for (int threads : {1, 3}) {
                // Sanity: the outputs produced right before teardown
                // still correlate.
                EXPECT_TRUE(correlated(
                    sessionPair(p, 0xdead0 + iters, iters, threads).run()))
                    << p.name << " iters " << iters << " threads "
                    << threads;
            }
        }
    }
}

TEST(EngineTeardownTest, DestroyWithoutRunning)
{
    const FerretParams p = tinyTestParams();
    auto [base_s, base_r] = sessionPair(p, 31337).deal();
    net::MemoryDuplex duplex;
    {
        FerretCotSender sender(duplex.a(), p, base_s.delta,
                               std::move(base_s.q));
        FerretCotReceiver receiver(duplex.b(), p, std::move(base_r.choice),
                                   std::move(base_r.t));
        sender.setThreads(2);
        receiver.setThreads(2);
        // Construction only; destroyed with no extension run.
    }
    {
        // The unbound (pool) constructor + prewarm, never bound.
        FerretCotSender sender(p);
        FerretCotReceiver receiver(p);
        sender.prewarm();
        receiver.prewarm();
    }
}

TEST(EngineTeardownTest, MidSessionResetWithPendingTranscript)
{
    const FerretParams p = tinyTestParams();
    const FerretPair session_b = sessionPair(p, 41002, 2, 2);

    // What a FRESH pair produces for session B: the rebound engines
    // must match bit for bit.
    const FerretPairRun want = session_b.run();

    for (int iters_a : {1, 2}) { // pending transcript in either slot
        FerretCotSender sender(p);
        FerretCotReceiver receiver(p);
        const FerretPair session_a = sessionPair(p, 41001, iters_a, 2);
        session_a.run(session_a.deal(), &sender, &receiver);
        // Reset with session A's prefetched transcript pending.
        const FerretPairRun got =
            session_b.run(session_b.deal(), &sender, &receiver);
        EXPECT_EQ(got.q, want.q) << "iters_a " << iters_a;
        EXPECT_EQ(got.choice, want.choice) << "iters_a " << iters_a;
        EXPECT_EQ(got.t, want.t) << "iters_a " << iters_a;
    }
}

} // namespace
} // namespace ironman::ot
