/**
 * @file
 * Microbench: FERRET extension on the workspace engine, thread sweep.
 *
 * extendInto() performs zero heap allocations once warm, overlaps
 * iteration i's LPN gather-XOR with iteration i+1's SPCOT transcript on
 * the wire and replays the precomputed LPN index tape. The 1/2/4
 * thread sweep shows the fixed-pool batch-SPCOT/LPN scaling.
 *
 * Run: ./bench_micro_workspace_reuse   (IRONMAN_BENCH_FAST=1 trims)
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"

using namespace ironman;
using namespace ironman::ot;

namespace {

struct Result
{
    double otsPerSec = 0;
    double usPerExtension = 0;
};

/** One measured configuration: @p iters extensions after one warm-up. */
Result
measure(const FerretParams &p, int threads, int iters)
{
    Rng dealer(1234);
    Block delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, delta, p.reservedCots());

    double seconds = 0;
    net::runTwoParty(
        [&](net::Channel &ch) {
            FerretCotSender sender(ch, p, delta, std::move(bs.q));
            sender.setThreads(threads);
            Rng rng(1);
            std::vector<Block> out(p.usableOts());
            // Warm-up extension (sizes workspaces, faults pages).
            sender.extendInto(rng, out.data());
            Timer timer;
            for (int it = 0; it < iters; ++it)
                sender.extendInto(rng, out.data());
            seconds = timer.seconds();
        },
        [&](net::Channel &ch) {
            FerretCotReceiver receiver(ch, p, std::move(br.choice),
                                       std::move(br.t));
            receiver.setThreads(threads);
            Rng rng(2);
            BitVec choice;
            std::vector<Block> t(p.usableOts());
            receiver.extendInto(rng, choice, t.data());
            for (int it = 0; it < iters; ++it)
                receiver.extendInto(rng, choice, t.data());
        });

    Result r;
    r.usPerExtension = seconds * 1e6 / iters;
    r.otsPerSec = double(p.usableOts()) * iters / seconds;
    return r;
}

void
sweep(const FerretParams &p, int iters)
{
    for (int threads : {1, 2, 4}) {
        Result r = measure(p, threads, iters);
        std::printf("  %2d thr   %9.0f us/ext   %8.2f M OT/s\n", threads,
                    r.usPerExtension, r.otsPerSec / 1e6);
    }
}

} // namespace

int
main()
{
    bench::banner("micro_workspace_reuse",
                  "FERRET extension, thread sweep 1/2/4");

    const bool fast = bench::fastMode();
    const int iters = fast ? 2 : 8;

    FerretParams tiny = tinyTestParams();
    std::printf("%s set: n=%zu k=%zu t=%zu l=%zu, %zu usable OTs/ext\n",
                tiny.name.c_str(), tiny.n, tiny.k, tiny.t,
                tiny.treeLeaves(), tiny.usableOts());
    sweep(tiny, iters);

    if (!fast) {
        FerretParams big = paperParamSet(20);
        std::printf("\n%s set: n=%zu k=%zu t=%zu l=%zu, %zu usable "
                    "OTs/ext\n",
                    big.name.c_str(), big.n, big.k, big.t,
                    big.treeLeaves(), big.usableOts());
        sweep(big, /*iters=*/2);
    }

    bench::note("extendInto() is allocation-free once warm, overlaps "
                "LPN with the next SPCOT transcript and replays the LPN "
                "index tape");
    return 0;
}
