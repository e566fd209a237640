/**
 * @file
 * Per-stage breakdown of the FERRET steady-state hot path:
 *
 *   SPCOT expand — t GGM tree expansions, each pruned to the w leaves
 *                  its bucket reads (PRG-bound),
 *   CRHF         — every MMO hash of one extension (chosen-OT pads,
 *                  unmask pads, mini-leaf pads), batched vs scalar,
 *   LPN          — the n-row gather-XOR, fused streaming (indices
 *                  regenerated per 64-row block into the tape kernels)
 *                  vs precomputed tape + SIMD,
 *   wire         — measured transcript bytes, converted to LAN/WAN
 *                  seconds with the analytic NetworkModel.
 *
 * plus the end-to-end OT/s of the engine. Cycles are TSC ticks on x86
 * (calibrated against the wall clock so the printed cycles/unit are
 * meaningful on the measuring host); elsewhere the cycle columns fall
 * back to nanoseconds. Record the numbers in EXPERIMENTS.md.
 *
 * Run: ./bench_micro_hotpath_stages   (IRONMAN_BENCH_FAST=1 trims)
 */

#include <cstdio>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define IRONMAN_HAVE_TSC 1
#endif

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "crypto/crhf.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/ggm_tree.h"
#include "ot/lpn.h"
#include "ot/ot_workspace.h"
#include "ot/spcot.h"

using namespace ironman;
using namespace ironman::ot;

namespace {

uint64_t
ticks()
{
#ifdef IRONMAN_HAVE_TSC
    return __rdtsc();
#else
    return uint64_t(Timer().seconds()); // unused fallback path
#endif
}

/** TSC ticks per second (calibrated once). */
double
ticksPerSecond()
{
    static const double tps = [] {
#ifdef IRONMAN_HAVE_TSC
        Timer t;
        uint64_t c0 = ticks();
        while (t.seconds() < 0.05) {
        }
        return double(ticks() - c0) / t.seconds();
#else
        return 1e9; // report nanoseconds
#endif
    }();
    return tps;
}

struct StageRow
{
    const char *name;
    double cycles;       ///< per extension
    double per_unit;     ///< cycles per item
    const char *unit;
};

/** Stage rows collected for the machine-readable BENCH json. */
std::vector<StageRow> g_rows;

void
printRow(const StageRow &r)
{
    std::printf("  %-26s %14.0f cyc/ext   %8.2f cyc/%s\n", r.name,
                r.cycles, r.per_unit, r.unit);
    g_rows.push_back(r);
}

/** Cycles for fn(), median-free quick repeat (min of reps). */
template <typename F>
double
measureCycles(int reps, F &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        uint64_t c0 = ticks();
        fn();
        double c = double(ticks() - c0);
        if (c < best)
            best = c;
    }
    return best;
}

struct E2e
{
    double otsPerSec = 0;
    uint64_t wireBytes = 0;
    uint64_t senderPrgOpsPerExt = 0; ///< spcot_prg_ops per transcript
};

/**
 * End to end; the final iteration's outputs are correlation-checked
 * (t = q ^ x*Delta on every index) so the CI bench-smoke step fails
 * on a protocol regression, not just a crash.
 */
E2e
endToEnd(const FerretParams &p, int iters, bool *ok)
{
    Rng dealer(1234);
    Block delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, delta, p.reservedCots());

    double seconds = 0;
    uint64_t sender_prg_ops = 0;
    std::vector<Block> q(p.usableOts());
    net::MemoryDuplex duplex;
    std::thread sender_thread([&] {
        FerretCotSender sender(duplex.a(), p, delta, std::move(bs.q));
        Rng rng(1);
        sender.extendInto(rng, q.data()); // warm-up
        Timer timer;
        for (int it = 0; it < iters; ++it)
            sender.extendInto(rng, q.data());
        seconds = timer.seconds();
        sender_prg_ops = sender.stats().get("spcot_prg_ops");
    });
    FerretCotReceiver receiver(duplex.b(), p, std::move(br.choice),
                               std::move(br.t));
    Rng rng(2);
    BitVec choice;
    std::vector<Block> t(p.usableOts());
    for (int it = 0; it <= iters; ++it)
        receiver.extendInto(rng, choice, t.data());
    sender_thread.join();

    for (size_t i = 0; i < q.size(); ++i)
        if (t[i] != (q[i] ^ scalarMul(choice.get(i), delta))) {
            std::printf("CORRELATION BROKEN at index %zu\n", i);
            *ok = false;
            break;
        }

    E2e e;
    e.otsPerSec = double(p.usableOts()) * iters / seconds;
    // iters + 1 calls moved iters + 2 SPCOT transcripts: the cold
    // first call exchanges its own plus the prefetch of the next.
    e.wireBytes = duplex.totalBytes() / uint64_t(iters + 2);
    e.senderPrgOpsPerExt = sender_prg_ops / uint64_t(iters + 2);
    return e;
}

} // namespace

int
main()
{
    bench::banner("micro_hotpath_stages",
                  "per-stage cycles of one FERRET extension "
                  "(SPCOT expand / CRHF / LPN / wire)");

    const bool fast = bench::fastMode();
    const FerretParams p =
        fast ? tinyTestParams() : bench::ironmanParams(20);
    // The engine's shape: each tree of l leaves expands only its first
    // w; GGM cycles per leaf are per expanded leaf.
    SpcotShape shape;
    shape.prepare(spcotConfigOf(p));
    const double tps = ticksPerSecond();
    std::printf("param set %s: n=%zu k=%zu t=%zu l=%zu w=%zu (%.2f GHz "
                "TSC)\n\n",
                p.name.c_str(), p.n, p.k, p.t, p.treeLeaves(),
                shape.leaves, tps / 1e9);

    // -- stage 1: SPCOT expansion (t GGM trees, pruned to w leaves) ----
    {
        const GgmSumLayout &layout = shape.layout;
        const double expanded = double(p.t * layout.width);

        // Per-tree reference path (one expander call per tree level).
        auto prg = crypto::makeTreeExpander(p.prg, p.arity);
        GgmScratch scratch;
        std::vector<Block> leaves(layout.width);
        std::vector<Block> sums(layout.total);
        Block leaf_sum;
        double per_tree = measureCycles(3, [&] {
            for (size_t tr = 0; tr < p.t; ++tr)
                ggmExpandInto(*prg, Block::fromUint64(tr), layout,
                              scratch, leaves.data(), sums.data(),
                              &leaf_sum);
        });

        // Cross-tree level-synchronous path (one expander call per
        // level per chunk — the hot path of spcotSendTranscript).
        constexpr size_t kChunk = SpcotWorkspace::kBatchTrees;
        auto batch_prg = crypto::makeTreeExpander(p.prg, p.arity);
        GgmBatchScratch batch_scratch;
        std::vector<Block> seeds(kChunk);
        for (size_t i = 0; i < kChunk; ++i)
            seeds[i] = Block::fromUint64(i);
        std::vector<Block> batch_leaves(kChunk * layout.width);
        std::vector<Block> batch_sums(kChunk * layout.total);
        std::vector<Block> batch_leaf_sums(kChunk);
        double cross = measureCycles(3, [&] {
            for (size_t tr0 = 0; tr0 < p.t; tr0 += kChunk) {
                const size_t cnt = std::min(kChunk, p.t - tr0);
                ggmExpandBatchInto(*batch_prg, seeds.data(), cnt, layout,
                                   batch_scratch, batch_leaves.data(),
                                   layout.width, batch_sums.data(),
                                   layout.total, batch_leaf_sums.data());
            }
        });

        printRow({"GGM expand, per-tree", per_tree, per_tree / expanded,
                  "leaf"});
        printRow({"GGM expand, cross-tree", cross, cross / expanded,
                  "leaf"});
        std::printf("    -> level-synchronous speedup %.2fx over t=%zu "
                    "trees\n",
                    per_tree / cross, p.t);
    }

    // -- stage 2: CRHF (all hashes of one extension) -------------------
    {
        // Sender-side hash volume per extension: 2 pads per chosen OT
        // + the per-tree mini-leaf pads. (The receiver's unmask adds
        // one more pad per OT instance.)
        const size_t n_inst = p.t * shape.cotsPerTree;
        const size_t hashes = 2 * n_inst + p.t * shape.sumsPerTree;
        crypto::Crhf crhf;
        Rng rng(7);
        std::vector<Block> in = rng.nextBlocks(hashes);
        std::vector<Block> out(hashes);

        double batched = measureCycles(5, [&] {
            crhf.hashBatch(in.data(), out.data(), hashes, 1);
        });
        double scalar = measureCycles(3, [&] {
            for (size_t i = 0; i < hashes; ++i)
                out[i] = crhf.hash(in[i], 1 + i);
        });
        printRow({"CRHF batched (fused MMO)", batched,
                  batched / double(hashes), "hash"});
        printRow({"CRHF scalar (PR1 path)", scalar,
                  scalar / double(hashes), "hash"});
        std::printf("    -> batch speedup %.2fx over %zu hashes/ext\n",
                    scalar / batched, hashes);
    }

    // -- stage 3: LPN gather-XOR over n rows ---------------------------
    {
        const LpnParams lp = lpnParamsOf(p);
        LpnEncoder enc(lp);
        Rng rng(8);
        std::vector<Block> in = rng.nextBlocks(lp.k);
        std::vector<Block> rows = rng.nextBlocks(lp.n);
        common::ThreadPool pool(1);
        LpnIndexTape tape;
        enc.buildTape(tape, lp.n, pool);
        auto blocks = [&](const LpnIndexTape *t) {
            enc.encode(t, 0, lp.n, in.data(), rows.data(), nullptr,
                       nullptr);
        };

        double streaming = measureCycles(3, [&] { blocks(nullptr); });
        double taped = measureCycles(3, [&] { blocks(&tape); });
        auto taped_with = [&](LpnKernel k) {
            LpnEncoder::setKernel(k);
            double c = measureCycles(5, [&] { blocks(&tape); });
            LpnEncoder::setKernel(LpnKernel::Auto);
            return c;
        };
        double taped_scalar = taped_with(LpnKernel::Scalar);
        double taped_sse2 = taped_with(LpnKernel::Sse2);
        printRow({"LPN fused streaming", streaming,
                  streaming / double(lp.n), "row"});
        std::printf("  LPN tape, auto kernel = %s (CPUID)\n",
                    LpnEncoder::activeKernelName());
        printRow({"LPN tape + SIMD (auto)", taped, taped / double(lp.n),
                  "row"});
        printRow({"LPN tape, scalar kernel", taped_scalar,
                  taped_scalar / double(lp.n), "row"});
        printRow({"LPN tape, sse2", taped_sse2,
                  taped_sse2 / double(lp.n), "row"});
        std::printf("    -> tape+SIMD speedup %.2fx (index AES "
                    "eliminated: %zu calls/ext)\n",
                    streaming / taped,
                    size_t(LpnEncoder::aesCallsPerRow) * lp.n);

        // Bit-LPN (the receiver's x = e*A ^ u path).
        Rng bit_rng(9);
        BitVec bits_in = bit_rng.nextBits(lp.k);
        BitVec bits_rows = bit_rng.nextBits(lp.n);
        auto bits = [&](const LpnIndexTape *t) {
            enc.encode(t, 0, lp.n, nullptr, nullptr, &bits_in, &bits_rows);
        };
        double bits_streaming = measureCycles(3, [&] { bits(nullptr); });
        double bits_taped = measureCycles(3, [&] { bits(&tape); });
        LpnEncoder::setKernel(LpnKernel::Scalar);
        double bits_scalar = measureCycles(3, [&] { bits(&tape); });
        LpnEncoder::setKernel(LpnKernel::Auto);
        printRow({"bit-LPN fused streaming", bits_streaming,
                  bits_streaming / double(lp.n), "row"});
        printRow({"bit-LPN tape + SIMD", bits_taped,
                  bits_taped / double(lp.n), "row"});
        printRow({"bit-LPN tape, scalar", bits_scalar,
                  bits_scalar / double(lp.n), "row"});
    }

    // -- stage 4 + end to end ------------------------------------------
    const int iters = fast ? 2 : 2;
    bool ok = true;
    E2e e2e = endToEnd(p, iters, &ok);

    net::NetworkModel lan = net::lanNetwork();
    net::NetworkModel wan = net::wanNetwork();
    std::printf("\n  %-26s %10.1f KB/ext   LAN %.1f ms   WAN %.1f ms "
                "(1 round trip)\n",
                "wire (measured bytes)", e2e.wireBytes / 1024.0,
                lan.seconds(e2e.wireBytes, 1) * 1e3,
                wan.seconds(e2e.wireBytes, 1) * 1e3);

    std::printf("\nend to end (%d iters, 1 thread):\n", iters);
    std::printf("  engine                    %8.2f M OT/s\n",
                e2e.otsPerSec / 1e6);
    if (!fast)
        std::printf("  PR2 pipelined baseline      5.5-5.9 M OT/s "
                    "(EXPERIMENTS.md, this container)\n  -> speedup "
                    "%.2fx (acceptance: >= 1.2x)\n",
                    e2e.otsPerSec / 5.9e6);

    // Regression sentinels for the CI bench-smoke step: a broken
    // correlation, an implausibly slow hot path, or trees regrown past
    // their bucket width (more PRG work per transcript) fails the run.
    // The pinned counts are t x (kept main-tree parents + mini-tree
    // expansions): 20 x (214 + 15) for the tiny set, 480 x (851 + 18)
    // at 2^20 (full trees: 7120 and 663,840).
    if (e2e.otsPerSec < 1e5)
        ok = false;
    const uint64_t pruned_ops = fast ? 4580 : 417120;
    std::printf("  sender spcot_prg_ops/ext  %8llu (pruned to w: %llu)\n",
                (unsigned long long)e2e.senderPrgOpsPerExt,
                (unsigned long long)pruned_ops);
    if (e2e.senderPrgOpsPerExt != pruned_ops) {
        std::printf("SPCOT PRG OPS %llu != pruned count %llu\n",
                    (unsigned long long)e2e.senderPrgOpsPerExt,
                    (unsigned long long)pruned_ops);
        ok = false;
    }

    // Machine-readable mirror of the table above, for the CI perf
    // trajectory (cat/archive BENCH_*.json).
    {
        bench::JsonWriter j("BENCH_micro_hotpath_stages.json");
        j.kv("bench", "micro_hotpath_stages");
        j.kv("params", p.name);
        j.kv("n", uint64_t(p.n));
        j.kv("tsc_ghz", tps / 1e9);
        j.kv("lpn_auto_kernel", LpnEncoder::activeKernelName());
        j.key("stages_cyc_per_unit");
        j.beginObject();
        for (const StageRow &r : g_rows)
            j.kv(r.name, r.per_unit);
        j.endObject();
        j.key("e2e");
        j.beginObject();
        j.kv("ots_per_sec", e2e.otsPerSec);
        j.kv("wire_bytes_per_ext", e2e.wireBytes);
        j.endObject();
        j.kv("ok", uint64_t(ok ? 1 : 0));
    }

    std::printf("%s\n", ok ? "BENCH-SMOKE OK" : "BENCH-SMOKE FAILED");
    return ok ? 0 : 1;
}
