/**
 * @file
 * Table 2 — PRG comparison (AES-128 vs ChaCha8).
 *
 * Area/power come from the paper's 45 nm synthesis (inputs to our
 * model); perf/area and power/block ratios are re-derived from them;
 * software throughput of both primitives on this host is measured as
 * a bonus column (the AES-NI advantage that makes AES the CPU choice
 * and ChaCha the ASIC choice).
 */

#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "crypto/aes.h"
#include "crypto/seed_expander.h"
#include "nmp/area_power.h"

using namespace ironman;
using namespace ironman::bench;

namespace {

double
softwareBlocksPerSec(crypto::PrgKind kind)
{
    auto prg = crypto::makeTreeExpander(kind, 4);
    std::vector<Block> out(4);
    Block seed = Block::fromUint64(3);
    Timer t;
    uint64_t blocks = 0;
    while (t.seconds() < 0.2) {
        for (int i = 0; i < 1000; ++i) {
            prg->expand(&seed, out.data(), 1, 4);
            seed = out[0];
            blocks += 4;
        }
    }
    return blocks / t.seconds();
}

} // namespace

int
main()
{
    banner("Table 2", "PRG comparison (hardware numbers: paper's 45nm "
                      "synthesis; software: this host)");

    auto aes = nmp::aes128Core();
    auto chacha = nmp::chaCha8Core();

    double aes_perf_area = aes.outputBits / aes.areaMm2;
    double cc_perf_area = chacha.outputBits / chacha.areaMm2;
    double aes_power_block = aes.powerWatt / aes.blocksPerOp();
    double cc_power_block = chacha.powerWatt / chacha.blocksPerOp();

    std::printf("%-9s | %10s %9s %11s | %9s %13s | %14s\n", "PRG",
                "out(bit)", "area mm2", "perf/area", "power mW",
                "power/block", "sw Mblock/s");
    std::printf("%-9s | %10u %9.3f %11.2f | %9.2f %13.2f | %14.1f\n",
                aes.name, aes.outputBits, aes.areaMm2, 1.0,
                aes.powerWatt * 1e3, 1.0,
                softwareBlocksPerSec(crypto::PrgKind::Aes) / 1e6);
    std::printf("%-9s | %10u %9.3f %11.2f | %9.2f %13.2f | %14.1f\n",
                chacha.name, chacha.outputBits, chacha.areaMm2,
                cc_perf_area / aes_perf_area, chacha.powerWatt * 1e3,
                aes_power_block / cc_power_block,
                softwareBlocksPerSec(crypto::PrgKind::ChaCha8) / 1e6);

    std::printf("\npaper: perf/area ratio 4.491, power/block ratio "
                "3.092 (ChaCha8 normalized to AES)\n");
    std::printf("ours : perf/area ratio %.3f, power/block ratio %.3f\n",
                cc_perf_area / aes_perf_area,
                aes_power_block / cc_power_block);
    std::printf("AES-NI active on this host: %s (why CPUs pick AES "
                "while the ASIC picks ChaCha8)\n",
                crypto::Aes128::usingAesni() ? "yes" : "no");
    return 0;
}
