/**
 * @file
 * Workload ote-2e24: one in-process FERRET pair (FerretCotSender /
 * FerretCotReceiver over a MemoryDuplex) on the paper's Table 4 set
 * 2^24 with the Ironman defaults (4-ary ChaCha8 trees, pipelined
 * engines), two worker threads per party, four in total.
 *
 * Why: the paper's headline OT-throughput measurement, at the set
 * whose LPN working set overflows the L3 (per party: 276 MB of rows,
 * 0.5-1.1 GB of GGM leaf slots; the 690 MB index tape is over the
 * engine's 256 MB cap, so LPN indices stream). LPN and SPCOT do all the
 * work here; svc, infer and net are idle.
 *
 * One operation is one lockstep extension of both parties. Every
 * extension is checked in full: t_i == q_i ^ b_i * delta.
 */

#include <cstdio>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "common/trace.h"
#include "ledger.h"
#include "net/channel.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"

namespace ledger {

namespace {

using namespace ironman;

constexpr int kThreadsPerParty = 2;
constexpr size_t kMinExtensions = 3;

/** Run @p a on a second thread and @p b on this one; rethrow either. */
template <typename A, typename B>
void
runBoth(A &&a, B &&b)
{
    std::exception_ptr err;
    std::thread th([&] {
        try {
            a();
        } catch (...) {
            err = std::current_exception();
        }
    });
    try {
        b();
    } catch (...) {
        th.join();
        throw;
    }
    th.join();
    if (err)
        std::rethrow_exception(err);
}

struct Pair
{
    explicit Pair(uint64_t seed)
        : senderRng(seed * 2 + 1), receiverRng(seed * 2 + 2)
    {
    }

    net::MemoryDuplex duplex;
    Block delta;
    std::unique_ptr<ot::FerretCotSender> sender;
    std::unique_ptr<ot::FerretCotReceiver> receiver;
    Rng senderRng;
    Rng receiverRng;
    std::vector<Block> q;
    std::vector<Block> t;
    BitVec choice;
};

/** Set-up: base deal, both engines constructed and prewarmed, output
 * buffers allocated — the first extension can be issued next. */
std::unique_ptr<Pair>
setUp(const ot::FerretParams &p, uint64_t seed)
{
    auto s = std::make_unique<Pair>(seed);
    Rng dealer(seed ^ 0xde41e7c0ffeeULL);
    s->delta = dealer.nextBlock();
    auto [bs, br] = ot::dealBaseCots(dealer, s->delta, p.reservedCots());
    s->sender = std::make_unique<ot::FerretCotSender>(
        s->duplex.a(), p, s->delta, std::move(bs.q));
    s->receiver = std::make_unique<ot::FerretCotReceiver>(
        s->duplex.b(), p, std::move(br.choice), std::move(br.t));
    s->sender->setThreads(kThreadsPerParty);
    s->receiver->setThreads(kThreadsPerParty);
    runBoth([&] { s->sender->prewarm(); },
            [&] { s->receiver->prewarm(); });
    s->q.resize(p.usableOts());
    s->t.resize(p.usableOts());
    return s;
}

struct Ext
{
    double wall = 0;    ///< lockstep extension, both calls
    double harness = 0; ///< wall minus the slower party's call
};

Ext
extendOnce(Pair &s, uint32_t id)
{
    double sender_s = 0, receiver_s = 0;
    Ext e;
    e.wall = timed([&] {
        runBoth(
            [&] {
                trace::Span span("sender.extendInto", "bench", id);
                sender_s = timed(
                    [&] { s.sender->extendInto(s.senderRng, s.q.data()); });
            },
            [&] {
                trace::Span span("receiver.extendInto", "bench", id);
                receiver_s = timed([&] {
                    s.receiver->extendInto(s.receiverRng, s.choice,
                                           s.t.data());
                });
            });
    });
    e.harness = e.wall - std::max(sender_s, receiver_s);
    return e;
}

bool
correlated(const Pair &s)
{
    const size_t n = s.q.size();
    if (s.choice.size() != n)
        return false;
    for (size_t i = 0; i < n; ++i)
        if (s.t[i] != (s.q[i] ^ scalarMul(s.choice.get(i), s.delta)))
            return false;
    return true;
}

struct Phase
{
    double wall = 0; ///< the closed loop, each extension's check included
    std::vector<double> extS;
    std::vector<double> harnessS;
    EngineTimes sender;
    EngineTimes receiver;
    uint64_t wireBytes = 0;

    double opsPerSec() const { return double(extS.size()) / wall; }
};

Phase
measure(Pair &s, const RunConfig &cfg, Tally &tally, long &op)
{
    Phase ph;
    const StatSet sender0 = s.sender->stats();
    const StatSet receiver0 = s.receiver->stats();
    const uint64_t bytes0 = s.duplex.totalBytes();
    Timer phase;
    while (ph.extS.size() < kMinExtensions || phase.seconds() < cfg.seconds) {
        const Ext e = extendOnce(s, uint32_t(op));
        ph.extS.push_back(e.wall);
        ph.harnessS.push_back(e.harness);
        if (op == cfg.corruptOp)
            s.t[s.t.size() / 2] ^= Block::fromUint64(1);
        tally.note(correlated(s));
        ++op;
    }
    ph.wall = phase.seconds();
    ph.sender.add(s.sender->stats(), sender0);
    ph.receiver.add(s.receiver->stats(), receiver0);
    ph.wireBytes = s.duplex.totalBytes() - bytes0;
    return ph;
}

} // namespace

RunResult
runOte(const RunConfig &cfg)
{
    // The selfcheck's reduced size is the 2^20 set (same code path).
    const ot::FerretParams p = ot::paperParamSet(cfg.reduced ? 20 : 24);
    RunResult res;
    res.loadThreads = 2; // one driving thread per party
    res.connections = 0;
    res.engineWorkers = 2 * kThreadsPerParty;

    std::vector<double> setup_s;
    std::unique_ptr<Pair> pair;
    for (int i = 0; i < cfg.setups; ++i) {
        pair.reset(); // one working set at a time
        releaseFreedMemory();
        Timer t;
        pair = setUp(p, cfg.seed);
        setup_s.push_back(t.seconds());
    }
    // The discarded warm-up operation (the cold pipeline), checked like
    // every other one.
    const double first_s = extendOnce(*pair, 0).wall;
    res.tally.note(correlated(*pair));

    long op = 0;
    auto run = [&](const RunConfig &c) {
        return measure(*pair, c, res.tally, op);
    };
    Report &r = res.report;
    const double usable = double(p.usableOts());
    if (!cfg.trace) {
        const Phase plain = run(cfg);
        char note[64];
        std::snprintf(note, sizeof(note), "extensions, %.3f M OT/s",
                      plain.opsPerSec() * usable / 1e6);
        // Fewer than ten samples lie beyond any percentile here, so
        // the upper quartile is the tail this sample supports.
        reportEndToEnd(r, setup_s, plain.opsPerSec(), note,
                       toMs(plain.extS), 0.75, "extensions");
        return res;
    }

    const auto [traced, overhead] = tracedPhases(
        cfg, run, [](const Phase &ph) { return ph.opsPerSec(); });
    r.set("first_op_ms", first_s * 1e3, "ms",
          "first extension after set-up");
    r.set("ot.delivered_mots_per_s", traced.opsPerSec() * usable / 1e6,
          "Mot/s");
    reportEngine(r, traced.sender, traced.receiver,
                 double(traced.wireBytes) / double(traced.extS.size()),
                 "traced phase");
    r.set("budget.residual_pct",
          100 * mean(traced.harnessS) / mean(traced.extS), "%",
          "lockstep wall outside the slower party's extendInto");
    r.set("trace.overhead_pct", overhead, "%");
    return res;
}

} // namespace ledger
