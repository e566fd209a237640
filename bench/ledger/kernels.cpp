/**
 * @file
 * The engine's kernels timed in isolation, single-threaded, on the
 * Table 4 sets 2^20 and 2^24 (per-layer runs only):
 *
 *   - LPN block gather-XOR over the precomputed index tape
 *     (encodeBlocksTape), its bit variant (encodeBitsTape), and the
 *     streaming encoder that regenerates indices per row
 *     (encodeBlocks) — the path the 2^24 engine runs, its tape being
 *     above the engine's 256 MB cap;
 *   - GGM expansion of all t trees (ggmExpandBatchInto, 4-ary ChaCha8);
 *   - CRHF over one extension's hash count (Crhf::hashBatch).
 *
 * The 2^24 : 2^20 ratio of the tape kernel's ns/row is the repository's
 * direct test of the paper's claim that LPN is bound by memory: the
 * 2^20 tape and rows fit in this box's L3, the 2^24 ones do not.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/crhf.h"
#include "crypto/seed_expander.h"
#include "ledger.h"
#include "ot/ferret_params.h"
#include "ot/ggm_tree.h"
#include "ot/lpn.h"
#include "ot/spcot.h"

namespace ledger {

namespace {

using namespace ironman;

constexpr int kReps = 5;
constexpr int kTapeBuildThreads = 4;
/** Streaming-encoder rows timed per repeat (its cost per row does not
 * depend on n; the tape kernel's does, so that one runs all rows). */
constexpr size_t kStreamRows = size_t(1) << 20;

template <typename F>
double
medianSeconds(F &&fn)
{
    std::vector<double> s;
    for (int i = 0; i < kReps; ++i)
        s.push_back(timed(fn));
    return median(s);
}

/** Returns the tape kernel's ns/row. */
double
lpnKernels(Report &r, const ot::FerretParams &p, const std::string &tag)
{
    ot::LpnParams lp;
    lp.n = p.n;
    lp.k = p.k;
    lp.d = p.lpnWeight;
    lp.seed = p.lpnSeed;
    const ot::LpnEncoder enc(lp);
    Rng rng(p.n);
    const std::vector<Block> in = rng.nextBlocks(lp.k);
    std::vector<Block> rows = rng.nextBlocks(lp.n);
    common::ThreadPool pool(kTapeBuildThreads);
    std::vector<ot::LpnEncodeScratch> scratch(size_t(pool.threads()));
    ot::LpnIndexTape tape;
    enc.buildTape(tape, lp.n, pool, scratch.data());

    const double rows_n = double(lp.n);
    const double tape_ns = medianSeconds([&] {
        enc.encodeBlocksTape(in.data(), rows.data(), 0, lp.n, tape);
    }) / rows_n * 1e9;
    const BitVec bits_in = rng.nextBits(lp.k);
    BitVec bits_rows = rng.nextBits(lp.n);
    const double bits_ns = medianSeconds([&] {
        enc.encodeBitsTape(bits_in, bits_rows, tape);
    }) / rows_n * 1e9;
    const size_t stream_rows = std::min(lp.n, kStreamRows);
    const double stream_ns = medianSeconds([&] {
        enc.encodeBlocks(in.data(), rows.data(), 0, stream_rows, scratch[0]);
    }) / double(stream_rows) * 1e9;

    // Bytes one row moves: d gathered 16 B inputs, d 4 B tape entries,
    // one 16 B output.
    const double bytes_per_row = double(lp.d) * (16 + 4) + 16;
    r.set("ot.lpn_ns_per_row" + tag, tape_ns, "ns", "encodeBlocksTape");
    r.set("ot.lpn_bits_ns_per_row" + tag, bits_ns, "ns", "encodeBitsTape");
    r.set("ot.lpn_stream_ns_per_row" + tag, stream_ns, "ns",
          "encodeBlocks, indices regenerated");
    r.set("ot.lpn_gbps" + tag, bytes_per_row / tape_ns, "GB/s",
          "computed bytes moved by the tape kernel");
    return tape_ns;
}

void
ggmKernel(Report &r, const ot::FerretParams &p, const std::string &tag)
{
    const ot::GgmSumLayout layout =
        ot::GgmSumLayout::of(ot::treeArities(p.treeLeaves(), p.arity));
    auto prg = crypto::makeTreeExpander(p.prg, p.arity);
    constexpr size_t kChunk = ot::SpcotWorkspace::kBatchTrees;
    ot::GgmBatchScratch scratch;
    std::vector<Block> seeds(kChunk);
    for (size_t i = 0; i < kChunk; ++i)
        seeds[i] = Block::fromUint64(i + 1);
    std::vector<Block> leaves(kChunk * layout.leaves);
    std::vector<Block> sums(kChunk * layout.total);
    std::vector<Block> leaf_sums(kChunk);
    const double s = medianSeconds([&] {
        for (size_t tr0 = 0; tr0 < p.t; tr0 += kChunk)
            ot::ggmExpandBatchInto(*prg, seeds.data(),
                                   std::min(kChunk, p.t - tr0), layout,
                                   scratch, leaves.data(), layout.leaves,
                                   sums.data(), layout.total,
                                   leaf_sums.data());
    });
    r.set("crypto.ggm_ns_per_leaf" + tag,
          s / double(p.t * layout.leaves) * 1e9, "ns",
          "ggmExpandBatchInto, all t trees");
}

void
crhfKernel(Report &r, const ot::FerretParams &p, const std::string &tag)
{
    ot::SpcotShape shape;
    shape.prepare(ot::SpcotConfig{p.treeLeaves(), p.arity, p.prg});
    // One extension's sender-side hashes: two pads per chosen OT plus
    // the per-tree mini-leaf pads.
    const size_t hashes =
        2 * p.t * shape.cotsPerTree + p.t * shape.sumsPerTree;
    const crypto::Crhf crhf;
    Rng rng(hashes);
    const std::vector<Block> in = rng.nextBlocks(hashes);
    std::vector<Block> out(hashes);
    const double s = medianSeconds(
        [&] { crhf.hashBatch(in.data(), out.data(), hashes, 1); });
    r.set("crypto.crhf_ns_per_hash" + tag, s / double(hashes) * 1e9, "ns",
          "Crhf::hashBatch");
}

} // namespace

void
reportKernels(Report &r)
{
    double tape_ns[2] = {0, 0};
    const int sets[2] = {20, 24};
    for (int i = 0; i < 2; ++i) {
        const ot::FerretParams p = ot::paperParamSet(sets[i]);
        const std::string tag = ".2e" + std::to_string(sets[i]);
        tape_ns[i] = lpnKernels(r, p, tag);
        ggmKernel(r, p, tag);
        crhfKernel(r, p, tag);
    }
    r.set("ot.lpn_ratio_2e24_2e20", tape_ns[1] / tape_ns[0], "ratio",
          "tape kernel ns/row, 2^24 over 2^20");
}

} // namespace ledger
