/**
 * @file
 * Google-benchmark microbenchmarks of the OT-extension primitives:
 * AES / ChaCha throughput, GGM expansion, CRHF, LPN encode, chosen
 * OT, and one full Ferret extension. These are the per-kernel numbers
 * behind the Fig. 1(c) roofline and the CPU baseline of Fig. 12.
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/aes.h"
#include "crypto/chacha.h"
#include "crypto/crhf.h"
#include "crypto/seed_expander.h"
#include "net/two_party.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/ggm_tree.h"
#include "ot/lpn.h"

using namespace ironman;

namespace {

void
BM_AesEncryptBatch(benchmark::State &state)
{
    crypto::Aes128 aes(Block::fromUint64(1));
    std::vector<Block> buf(size_t(state.range(0)));
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = Block::fromUint64(i);
    for (auto _ : state) {
        aes.encryptBatch(buf.data(), buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() * buf.size());
    state.SetBytesProcessed(state.iterations() * buf.size() *
                            sizeof(Block));
}
BENCHMARK(BM_AesEncryptBatch)->Arg(8)->Arg(1024)->Arg(65536);

void
BM_ChaCha8Expand(benchmark::State &state)
{
    crypto::ChaCha chacha(8);
    std::array<Block, 4> out;
    Block seed = Block::fromUint64(2);
    for (auto _ : state) {
        chacha.expandSeed(seed, 0, out);
        benchmark::DoNotOptimize(out.data());
        seed = out[0];
    }
    state.SetItemsProcessed(state.iterations());
    state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChaCha8Expand);

void
BM_GgmExpand(benchmark::State &state)
{
    const unsigned arity = unsigned(state.range(0));
    const auto kind = state.range(1) == 0 ? crypto::PrgKind::Aes
                                          : crypto::PrgKind::ChaCha8;
    auto prg = crypto::makeTreeExpander(kind, arity);
    auto arities = ot::treeArities(4096, arity);
    ot::GgmSumLayout layout = ot::GgmSumLayout::of(arities);
    ot::GgmScratch scratch;
    std::vector<Block> leaves(layout.leaves);
    std::vector<Block> sums(layout.total);
    Block seed = Block::fromUint64(3);
    Block leaf_sum;
    for (auto _ : state) {
        ot::ggmExpandInto(*prg, seed, layout, scratch, leaves.data(),
                          sums.data(), &leaf_sum);
        benchmark::DoNotOptimize(leaves.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096); // leaves
    state.SetLabel(crypto::prgKindName(kind) + "/m=" +
                   std::to_string(arity));
}
BENCHMARK(BM_GgmExpand)
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({2, 1})
    ->Args({4, 1});

void
BM_CrhfBatch(benchmark::State &state)
{
    crypto::Crhf crhf;
    Rng rng(4);
    std::vector<Block> in = rng.nextBlocks(4096);
    std::vector<Block> out(in.size());
    for (auto _ : state) {
        crhf.hashBatch(in.data(), out.data(), in.size(), 0);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * in.size());
}
BENCHMARK(BM_CrhfBatch);

void
BM_LpnEncode(benchmark::State &state)
{
    ot::LpnParams p;
    p.n = size_t(state.range(0));
    p.k = 65536;
    p.seed = 5;
    ot::LpnEncoder enc(p);
    Rng rng(6);
    std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> out = rng.nextBlocks(p.n);
    ot::LpnEncodeScratch scratch;
    for (auto _ : state) {
        enc.encodeBlocks(in.data(), out.data(), 0, p.n, scratch);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * p.n);
    state.SetBytesProcessed(state.iterations() * p.n * 11 *
                            sizeof(Block));
}
BENCHMARK(BM_LpnEncode)->Arg(1 << 16)->Arg(1 << 20);

void
BM_LpnEncodeTape(benchmark::State &state)
{
    ot::LpnParams p;
    p.n = size_t(state.range(0));
    p.k = 65536;
    p.seed = 5;
    ot::LpnEncoder enc(p);
    Rng rng(6);
    std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> out = rng.nextBlocks(p.n);
    common::ThreadPool pool(1);
    ot::LpnEncodeScratch scratch;
    ot::LpnIndexTape tape;
    enc.buildTape(tape, p.n, pool, &scratch);
    for (auto _ : state) {
        enc.encodeBlocksTape(in.data(), out.data(), 0, p.n, tape);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * p.n);
    state.SetBytesProcessed(state.iterations() * p.n * 11 *
                            sizeof(Block));
}
BENCHMARK(BM_LpnEncodeTape)->Arg(1 << 16)->Arg(1 << 20);

void
BM_FerretExtension(benchmark::State &state)
{
    ot::FerretParams params = ot::tinyTestParams();
    for (auto _ : state) {
        state.PauseTiming();
        Rng dealer(7);
        Block delta = dealer.nextBlock();
        auto [bs, br] =
            ot::dealBaseCots(dealer, delta, params.reservedCots());
        state.ResumeTiming();

        size_t produced = 0;
        net::runTwoParty(
            [&](net::Channel &ch) {
                ot::FerretCotSender sender(ch, params, delta,
                                           std::move(bs.q));
                Rng rng(8);
                std::vector<Block> out(params.usableOts());
                sender.extendInto(rng, out.data());
                produced = out.size();
            },
            [&](net::Channel &ch) {
                ot::FerretCotReceiver receiver(ch, params,
                                               std::move(br.choice),
                                               std::move(br.t));
                Rng rng(9);
                BitVec choice;
                std::vector<Block> t(params.usableOts());
                receiver.extendInto(rng, choice, t.data());
            });
        benchmark::DoNotOptimize(produced);
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(params.usableOts()));
}
BENCHMARK(BM_FerretExtension)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
