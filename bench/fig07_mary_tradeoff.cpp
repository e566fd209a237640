/**
 * @file
 * Figure 7 — the m-ary tree trade-off.
 *
 * For m in {2,4,8,16,32} with the ChaCha8 PRG, run one real OTE
 * extension (2^20 set) and report:
 *   (a) PRG operation count (measured through the protocol's
 *       counters),
 *   (b) wire bytes (measured on the in-memory duplex),
 *   (c) protocol latency under WAN (400 Mbps / 20 ms) and LAN
 *       (3 Gbps / 0.15 ms): measured compute + modelled wire time.
 *
 * The paper selects m = 4: nearly all of the op reduction with little
 * of the communication growth.
 */

#include "bench_util.h"
#include "nmp/reference.h"

using namespace ironman;
using namespace ironman::bench;

int
main()
{
    banner("Figure 7", "m-ary GGM trees: operations vs communication "
                       "vs latency (ChaCha8, 2^20 set, measured)");

    net::NetworkModel wan = net::wanNetwork();
    net::NetworkModel lan = net::lanNetwork();
    const double hw_clock = 350e6; // accelerated SPCOT pipeline

    std::printf("%-4s | %12s %9s | %11s | %9s %9s | %9s %9s\n", "m",
                "prg_ops", "vs m=2", "comm (MB)", "cpuWAN(s)",
                "cpuLAN(s)", "hwWAN(ms)", "hwLAN(ms)");

    double ops_m2 = 0;
    for (unsigned m : {2u, 4u, 8u, 16u, 32u}) {
        ot::FerretParams p = ironmanParams(20);
        p.arity = m;

        auto meas = nmp::measureCpuOte(p, 8, 1);

        // Sender PRG invocations, measured through the protocol's
        // expander counters (main trees + (m-1)-of-m mini trees).
        double ops = double(meas.spcotPrgOps);
        if (m == 2)
            ops_m2 = ops;

        double wan_s =
            meas.secondsPerExec + wan.seconds(meas.wireBytes, 2.0);
        double lan_s =
            meas.secondsPerExec + lan.seconds(meas.wireBytes, 2.0);

        // Accelerated view (the paper's Fig. 7(c) regime): SPCOT runs
        // on the pipeline, so wire time dominates and grows with m —
        // the reason m=4 wins over wider trees.
        double hw_wan =
            ops / hw_clock + wan.seconds(meas.wireBytes, 2.0);
        double hw_lan =
            ops / hw_clock + lan.seconds(meas.wireBytes, 2.0);

        std::printf("%-4u | %12.0f %8.2fx | %11.3f | %9.3f %9.3f | "
                    "%9.2f %9.2f\n",
                    m, ops, ops_m2 / ops, meas.wireBytes / 1e6, wan_s,
                    lan_s, hw_wan * 1e3, hw_lan * 1e3);
    }

    std::printf("\npaper: 4-ary reaches 2.99x op reduction over 2-ary "
                "(32-ary only 3.86x) while communication grows with m; "
                "m=4 selected.\n");
    std::printf("note: our per-level (m-1)-of-m OT ships both chosen-OT "
                "ciphertexts, so comm grows faster with m than the "
                "paper's (trend identical; see EXPERIMENTS.md).\n");
    return 0;
}
