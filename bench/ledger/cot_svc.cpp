/**
 * @file
 * Workload cot-svc: a loopback-TCP CotServer with the default config on
 * the 2^20 set. Two load threads each run receiver-role CotClient
 * sessions back to back; a session is connect -> 4 x extendRecv ->
 * close. Two engines are prewarmed in the server's pool, one per
 * thread.
 *
 * Why: the service path — handshake, base deal, warm EnginePool
 * checkout, pipeline fill and ~368 KB per extension on the wire — with
 * an engine working set that fits in L3. Session churn is a measurable
 * cost here: the client builds a fresh engine per session, and each
 * closing session abandons one prefetched transcript.
 *
 * One operation is one extension. Each is checked on a 4096-entry
 * sample against the server's sender half, captured by a CotServer
 * sender sink.
 */

#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/trace.h"
#include "ledger.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"

namespace ledger {

namespace {

using namespace ironman;

constexpr int kLoadThreads = 2;
constexpr int kExtPerSession = 4;
constexpr size_t kSample = 4096;

/** Sampled sender half of one extension, keyed by (sid, iteration). */
struct ServerHalf
{
    Block delta;
    std::vector<Block> q;
};

/** Sampled receiver half of one extension. */
struct ClientHalf
{
    uint64_t sid = 0;
    uint64_t iteration = 0;
    std::vector<Block> t;
    std::vector<bool> bits;
};

struct Stack
{
    std::vector<size_t> idx; ///< sampled output positions
    std::mutex m;
    std::map<std::pair<uint64_t, uint64_t>, ServerHalf> halves;
    svc::CotServer server; ///< after what its sink touches
    uint16_t port = 0;
};

/** Set-up: server listening, one warm engine per load thread. */
std::unique_ptr<Stack>
setUp(const ot::FerretParams &p, const std::vector<size_t> &idx)
{
    auto s = std::make_unique<Stack>();
    s->idx = idx;
    Stack *st = s.get();
    s->server.setSenderSink([st](const svc::CotServer::SenderBatch &b) {
        ServerHalf h{b.delta, {}};
        h.q.reserve(st->idx.size());
        for (size_t i : st->idx)
            h.q.push_back(b.q[i]);
        std::lock_guard<std::mutex> lock(st->m);
        st->halves[{b.sessionId, b.iteration}] = std::move(h);
    });
    s->port = s->server.listenTcp(0);
    std::vector<svc::EnginePool::SenderLease> warm;
    for (int i = 0; i < kLoadThreads; ++i)
        warm.push_back(s->server.pool().checkoutSender(p));
    return s;
}

struct ThreadOut
{
    std::vector<double> connectS;
    std::vector<double> firstExtS;  ///< first extension of each session
    std::vector<double> steadyExtS; ///< the other extensions
    std::vector<double> allExtS;
    std::vector<ClientHalf> halves;
    std::exception_ptr err;
};

uint64_t
sessionSeed(uint64_t seed, int thread, uint64_t k)
{
    return seed * 0x9e3779b97f4a7c15ULL + uint64_t(thread) * 1000003 + k +
           1;
}

/**
 * Sessions back to back until @p seconds pass on @p clock (at least
 * one); @p max_ext limits each session (the warm-up uses 1).
 */
void
runSessions(Stack &s, const ot::FerretParams &p, uint64_t seed,
            int thread, const Timer &clock, double seconds, int max_ext,
            ThreadOut &out)
{
    BitVec choice;
    std::vector<Block> t(p.usableOts());
    for (uint64_t k = 0; k == 0 || clock.seconds() < seconds; ++k) {
        svc::CotClient::Options opt;
        opt.role = svc::Role::Receiver;
        opt.setupSeed = sessionSeed(seed, thread, k);
        std::unique_ptr<svc::CotClient> client;
        out.connectS.push_back(timed([&] {
            trace::Span span("connect", "bench", uint32_t(k));
            client = svc::CotClient::connectTcp("127.0.0.1", s.port, p,
                                                opt);
        }));
        for (int e = 0; e < max_ext; ++e) {
            const double d = timed([&] {
                trace::Span span("extendRecv", "bench",
                                 uint32_t(out.allExtS.size()));
                client->extendRecv(choice, t.data());
            });
            out.allExtS.push_back(d);
            (e == 0 ? out.firstExtS : out.steadyExtS).push_back(d);
            ClientHalf h;
            h.sid = client->sessionId();
            h.iteration = uint64_t(e);
            for (size_t i : s.idx) {
                h.t.push_back(t[i]);
                h.bits.push_back(choice.get(i));
            }
            out.halves.push_back(std::move(h));
        }
        client->close();
    }
}

struct Phase
{
    double wall = 0;
    ThreadOut all; ///< both threads' samples
    uint64_t wireBytes = 0;
    EngineTimes senders;   ///< the server pool's engines, this phase
    EngineTimes receivers;

    double
    opsPerSec() const
    {
        return double(all.allExtS.size()) / wall;
    }
};

void
append(std::vector<double> &to, const std::vector<double> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

/** Check every extension's sample once all sessions have ended. */
void
verify(Stack &s, std::vector<ClientHalf> &halves, const RunConfig &cfg,
       Tally &tally, long &op)
{
    waitUntil([&] { return s.server.activeSessions() == 0; }, 30,
              "cot-svc sessions to end");
    std::lock_guard<std::mutex> lock(s.m);
    for (ClientHalf &c : halves) {
        if (op == cfg.corruptOp)
            c.t[0] ^= Block::fromUint64(1);
        ++op;
        const auto it = s.halves.find({c.sid, c.iteration});
        bool ok = it != s.halves.end() && c.t.size() == s.idx.size();
        for (size_t j = 0; ok && j < c.t.size(); ++j)
            ok = c.t[j] ==
                 (it->second.q[j] ^ scalarMul(c.bits[j], it->second.delta));
        tally.note(ok);
    }
    s.halves.clear();
}

Phase
measure(Stack &s, const ot::FerretParams &p, const RunConfig &cfg,
        Tally &tally, long &op)
{
    Phase ph;
    std::vector<ThreadOut> outs(kLoadThreads);
    // No session holds an engine between phases (verify() waits for
    // them to end), so pool reads before and after bracket this phase.
    const auto [senders0, receivers0] = poolEngineTimes(s.server.pool(), p);
    const uint64_t bytes0 = registryCounter("net_bytes_sent_total");
    Timer clock;
    std::vector<std::thread> threads;
    for (int i = 0; i < kLoadThreads; ++i)
        threads.emplace_back([&, i] {
            try {
                runSessions(s, p, cfg.seed, i, clock, cfg.seconds,
                            kExtPerSession, outs[size_t(i)]);
            } catch (...) {
                outs[size_t(i)].err = std::current_exception();
            }
        });
    for (std::thread &th : threads)
        th.join();
    ph.wall = clock.seconds();
    ph.wireBytes = registryCounter("net_bytes_sent_total") - bytes0;
    for (ThreadOut &o : outs) {
        if (o.err)
            std::rethrow_exception(o.err);
        append(ph.all.connectS, o.connectS);
        append(ph.all.firstExtS, o.firstExtS);
        append(ph.all.steadyExtS, o.steadyExtS);
        append(ph.all.allExtS, o.allExtS);
        for (ClientHalf &h : o.halves)
            ph.all.halves.push_back(std::move(h));
    }
    verify(s, ph.all.halves, cfg, tally, op);
    ph.all.halves.clear();
    const auto [senders1, receivers1] = poolEngineTimes(s.server.pool(), p);
    ph.senders = senders1 - senders0;
    ph.receivers = receivers1 - receivers0;
    return ph;
}

std::vector<double>
firstOps(const ThreadOut &o)
{
    std::vector<double> v;
    for (size_t i = 0; i < o.connectS.size(); ++i)
        v.push_back(o.connectS[i] + o.firstExtS[i]);
    return v;
}

} // namespace

RunResult
runCotSvc(const RunConfig &cfg)
{
    const ot::FerretParams p = ot::paperParamSet(20);
    RunResult res;
    res.loadThreads = kLoadThreads;
    res.connections = kLoadThreads;
    res.engineWorkers = 0; // default config: engines run on session threads

    std::vector<size_t> idx;
    const size_t stride = p.usableOts() / kSample;
    for (size_t j = 0; j < kSample; ++j)
        idx.push_back(cfg.seed % stride + j * stride);

    std::vector<double> setup_s;
    std::unique_ptr<Stack> stack;
    for (int i = 0; i < cfg.setups; ++i) {
        stack.reset();
        releaseFreedMemory();
        Timer t;
        stack = setUp(p, idx);
        setup_s.push_back(t.seconds());
    }
    {
        // The discarded warm-up: one session with one extension.
        RunConfig warm = cfg;
        warm.corruptOp = -1;
        long warm_op = 0;
        Timer clock;
        ThreadOut out;
        runSessions(*stack, p, cfg.seed, kLoadThreads, clock, 0, 1, out);
        verify(*stack, out.halves, warm, res.tally, warm_op);
    }

    long op = 0;
    auto run = [&](const RunConfig &c) {
        return measure(*stack, p, c, res.tally, op);
    };
    Report &r = res.report;
    const double usable = double(p.usableOts());
    if (!cfg.trace) {
        const Phase plain = run(cfg);
        char note[64];
        std::snprintf(note, sizeof(note), "extensions, %.3f M OT/s",
                      plain.opsPerSec() * usable / 1e6);
        reportEndToEnd(r, setup_s, plain.opsPerSec(), note,
                       toMs(plain.all.allExtS), 0.9, "extensions");
        return res;
    }

    const auto [traced, overhead] = tracedPhases(
        cfg, run, [](const Phase &ph) { return ph.opsPerSec(); });
    const ThreadOut &o = traced.all;
    r.set("first_op_ms", median(firstOps(o)) * 1e3, "ms",
          "connect to first extension, p50 of " +
              std::to_string(o.connectS.size()) + " sessions");
    r.set("ot.delivered_mots_per_s", traced.opsPerSec() * usable / 1e6,
          "Mot/s");
    r.set("svc.connect_ms_p50", median(o.connectS) * 1e3, "ms");
    r.set("svc.first_extend_ms_p50", median(o.firstExtS) * 1e3, "ms");
    r.set("svc.steady_extend_ms_p50", median(o.steadyExtS) * 1e3, "ms");
    r.set("svc.steady_extend_ms_p95", percentile(o.steadyExtS, 0.95) * 1e3,
          "ms");
    reportPoolCounters(r, cfg.setups);
    // The server plays sender; the client's receiver engine is private
    // to CotClient, so the pool's senders are the engines read here.
    reportEngine(r, traced.senders, traced.receivers,
                 double(traced.wireBytes) / double(o.allExtS.size()),
                 "traced phase");
    // The client's extendRecv against the server engine's extendInto:
    // what the session adds around the server engine (the client's
    // receiver work past it, its engine build on a session's first
    // extension, opcode framing, the sink copy).
    const double server_ext_s = traced.senders.extendUsPerExt() / 1e6;
    r.set("budget.residual_pct",
          100 * (mean(o.allExtS) - server_ext_s) / mean(o.allExtS), "%",
          "client extendRecv outside the server engine's extendInto");
    r.set("trace.overhead_pct", overhead, "%");
    return res;
}

} // namespace ledger
