#include "nmp/reference.h"

#include "common/rng.h"
#include "common/stats.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"

namespace ironman::nmp {

CpuOteMeasurement
measureCpuOte(const ot::FerretParams &params, int threads, int executions)
{
    CpuOteMeasurement m;

    Rng dealer(0xC0FFEE);
    Block delta = dealer.nextBlock();

    Timer init_timer;
    auto [base_s, base_r] =
        ot::dealBaseCots(dealer, delta, params.reservedCots());
    m.initSeconds = init_timer.seconds();

    StatSet sender_stats;
    Timer run_timer;
    auto wire = net::runTwoParty(
        [&](net::Channel &ch) {
            ot::FerretCotSender sender(ch, params, delta,
                                       std::move(base_s.q));
            sender.setThreads(threads);
            Rng rng(0xAB01);
            std::vector<Block> out(params.usableOts());
            for (int e = 0; e < executions; ++e) {
                sender.extendInto(rng, out.data());
                m.usableOts = out.size();
            }
            sender_stats = sender.stats();
        },
        [&](net::Channel &ch) {
            ot::FerretCotReceiver receiver(ch, params,
                                           std::move(base_r.choice),
                                           std::move(base_r.t));
            receiver.setThreads(threads);
            Rng rng(0xAB02);
            BitVec choice;
            std::vector<Block> t(params.usableOts());
            for (int e = 0; e < executions; ++e)
                receiver.extendInto(rng, choice, t.data());
        });

    m.secondsPerExec = run_timer.seconds() / executions;
    m.spcotSeconds =
        sender_stats.get("spcot_us") * 1e-6 / executions;
    m.lpnSeconds = (sender_stats.get("lpn_prefix_us") +
                    sender_stats.get("lpn_us")) *
                   1e-6 / executions;
    m.wireBytes = wire.totalBytes / executions;
    m.spcotPrgOps = sender_stats.get("spcot_prg_ops") / executions;
    return m;
}

double
paperCpuSecondsPerExec(const ot::FerretParams &params)
{
    // Read off Fig. 1(b) (Init + SPCOT + LPN stack, full-thread CPU).
    if (params.name == "2^20") return 0.45;
    if (params.name == "2^21") return 0.85;
    if (params.name == "2^22") return 1.35;
    if (params.name == "2^23") return 2.00;
    if (params.name == "2^24") return 2.90;
    return 0.0;
}

} // namespace ironman::nmp
