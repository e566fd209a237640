/**
 * @file
 * Fault-tolerance tests for the serving stack (net + svc + infer):
 *
 *  - deterministic fault-injection grid (close / truncate / stall /
 *    corrupt / delay at seeded protocol offsets) against BOTH daemons:
 *    every failure surfaces as a typed net::WireError — never a hang,
 *    crash, or abort — and the daemon stays serviceable afterwards;
 *  - server containment: a stalled peer cannot hold a session thread
 *    past the recv deadline, and a silent one is reaped on the idle
 *    timeout;
 *  - graceful drain: in-flight sessions finish with ZERO failed
 *    requests while new connects are refused;
 *  - typed reservoir failures: an svc::Reservoir does not redial on
 *    its own, so a COT daemon stopped under a waiting taker, or a
 *    refill stopped under one, reaches the taker as a typed
 *    net::WireError within a bounded wait;
 *  - client recovery: infer::InferClient, the one recovery owner,
 *    with autoReconnect survives a whole-backend kill/restart —
 *    uncommitted requests replay from stored shares,
 *    committed-but-unanswered ones surface as typed Result failures,
 *    and every COMPLETED image is bit-identical to an uninterrupted
 *    run (DESIGN.md invariant 15; pinned on the exact fracBits-0 zoo
 *    model, whose outputs are position-independent across session
 *    splits).
 *
 * Everything runs over real loopback TCP; the file is part of the CI
 * ASan and TSan jobs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/fault.h"
#include "net/socket_channel.h"
#include "net/wire_error.h"
#include "ot/ferret_params.h"
#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"
#include "svc/reservoir.h"
#include "svc/retry.h"

#include "served_stack.h"

namespace ironman {
namespace {

using infer::InferClient;
using infer::InferServer;
using infer::ServedStack;
using net::FaultPlan;
using net::WireError;
using svc::CotClient;
using svc::CotServer;
using svc::Reservoir;

/** Poll @p pred for a few seconds — server-side effects are async. */
template <typename Pred>
void
waitUntil(Pred pred)
{
    for (int spin = 0; spin < 5000 && !pred(); ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

/** Fast, test-friendly reconnect policy. */
svc::RetryPolicy
fastRetry(unsigned attempts = 6)
{
    svc::RetryPolicy r;
    r.maxAttempts = attempts;
    r.baseBackoffMs = 5;
    r.maxBackoffMs = 80;
    r.jitterSeed = 42;
    return r;
}

constexpr FaultPlan::Kind kAllKinds[] = {
    FaultPlan::Kind::Close,   FaultPlan::Kind::TruncateFrame,
    FaultPlan::Kind::Stall,   FaultPlan::Kind::Corrupt,
    FaultPlan::Kind::Delay,
};

// ---------------------------------------------------------------------------
// Fault-injection grid: COT daemon
// ---------------------------------------------------------------------------

TEST(ChaosFaultGridTest, CotServerSurvivesEveryFaultKind)
{
    const ot::FerretParams p = ot::tinyTestParams();
    CotServer::Config cfg;
    // Containment: Stall leaves the peer's fd open, so only these
    // deadlines free the session thread.
    cfg.sessionRecvTimeoutMs = 300;
    cfg.sessionSendTimeoutMs = 300;
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);

    for (const FaultPlan::Kind kind : kAllKinds) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string("kind=") +
                         FaultPlan::atByte(kind, 0).kindName() +
                         " seed=" + std::to_string(seed));
            try {
                auto ch = net::tcpConnect("127.0.0.1", port);
                // Offsets land anywhere from inside the handshake to
                // several extensions deep.
                ch->setFaultPlan(FaultPlan::seeded(
                    kind, seed * 977, /*max_byte=*/20000,
                    /*delay_us=*/5000));
                CotClient::Options opt;
                opt.setupSeed = 0xfa110 + seed;
                CotClient client(std::move(ch), p, opt);
                BitVec c;
                std::vector<Block> t(client.usableOts());
                for (int it = 0; it < 6; ++it)
                    client.extendRecv(c, t.data());
                client.close();
            } catch (const WireError &) {
                // Typed — exactly what the taxonomy promises.
            }
            // No other exception type may escape (ASSERT via gtest:
            // an untyped throw would propagate and fail the test).
        }
    }

    // Containment: every faulted session unwinds (the stalled ones on
    // the server's recv deadline), no thread left pinned.
    waitUntil([&] { return server.activeSessions() == 0; });
    EXPECT_EQ(server.activeSessions(), 0u);

    // The daemon is still healthy: a clean session serves.
    CotClient::Options opt;
    opt.setupSeed = 0xc1ea4;
    auto client = CotClient::connectTcp("127.0.0.1", port, p, opt);
    BitVec c;
    std::vector<Block> t(client->usableOts());
    client->extendRecv(c, t.data());
    EXPECT_EQ(c.size(), client->usableOts());
    client->close();
    server.stop();
}

// ---------------------------------------------------------------------------
// Telemetry: failed-by-kind counters + flight-recorder forensics
// ---------------------------------------------------------------------------

/** Registry spellings of net::SessionMetrics' failure classes, indexed
 * by WireFault value. */
constexpr const char *kFaultCounterKinds[] = {
    "transient", "peer_closed", "deadline", "protocol", "fatal"};
constexpr size_t kNumFaultKinds = 5;

uint64_t
cotFailedByKind(size_t k)
{
    return metrics::Registry::instance().counterValue(
        std::string("cot_sessions_failed_") + kFaultCounterKinds[k] +
        "_total");
}

TEST(ChaosTelemetryTest, FaultKindsLandInMatchingCountersWithDumps)
{
    const ot::FerretParams p = ot::tinyTestParams();
    CotServer::Config cfg;
    cfg.sessionRecvTimeoutMs = 300;
    cfg.sessionSendTimeoutMs = 300;
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);

    struct Case
    {
        FaultPlan::Kind kind;
        bool mustFail;
        bool acceptable[kNumFaultKinds];
    };
    // Which server-side classifications each injected kind may
    // legitimately produce. The faulted client closes its socket as it
    // unwinds, so even Stall usually lands as peer_closed rather than
    // deadline; the invariant is that NOTHING lands outside the set.
    // Corrupt flips one payload byte on a MAC-less semi-honest wire:
    // the frame may still parse, so a seed is allowed to produce no
    // failure at all — but never a hang or an unclassified one.
    const Case kCases[] = {
        {FaultPlan::Kind::Close,
         true,
         {true, true, false, false, false}},
        {FaultPlan::Kind::TruncateFrame,
         true,
         {true, true, false, true, false}},
        {FaultPlan::Kind::Stall,
         true,
         {true, true, true, false, false}},
        {FaultPlan::Kind::Corrupt,
         false,
         {true, true, true, true, true}},
    };

    for (const Case &c : kCases) {
        SCOPED_TRACE(FaultPlan::atByte(c.kind, 0).kindName());
        uint64_t before[kNumFaultKinds];
        for (size_t k = 0; k < kNumFaultKinds; ++k)
            before[k] = cotFailedByKind(k);
        const uint64_t dumps_before =
            metrics::Registry::instance().counterValue(
                "net_flight_dumps_total");

        // Drive seeded faulted sessions until one registers (offsets
        // land anywhere in the first 20 kB, and Corrupt in particular
        // can pass undetected), bounded so a regression fails fast.
        bool counted = false;
        for (uint64_t seed = 1; seed <= 8 && !counted; ++seed) {
            try {
                auto ch = net::tcpConnect("127.0.0.1", port);
                ch->setFaultPlan(FaultPlan::seeded(
                    c.kind, seed * 977, /*max_byte=*/20000,
                    /*delay_us=*/5000));
                CotClient::Options opt;
                opt.setupSeed = 0x7e1e + seed;
                CotClient client(std::move(ch), p, opt);
                BitVec bits;
                std::vector<Block> t(client.usableOts());
                for (int it = 0; it < 6; ++it)
                    client.extendRecv(bits, t.data());
                client.close();
            } catch (const WireError &) {
                // Typed, as the grid test asserts at length.
            }
            // The session thread classifies as it unwinds — async.
            waitUntil([&] { return server.activeSessions() == 0; });
            uint64_t sum = 0;
            for (size_t k = 0; k < kNumFaultKinds; ++k)
                sum += cotFailedByKind(k) - before[k];
            counted = sum > 0;
        }

        if (c.mustFail)
            EXPECT_TRUE(counted)
                << "no seeded fault produced a counted failure";
        uint64_t total_delta = 0;
        for (size_t k = 0; k < kNumFaultKinds; ++k) {
            const uint64_t delta = cotFailedByKind(k) - before[k];
            total_delta += delta;
            if (!c.acceptable[k])
                EXPECT_EQ(delta, 0u) << "failure misclassified as "
                                     << kFaultCounterKinds[k];
        }

        if (total_delta > 0) {
            // Every counted failure dumped the flight ring; the
            // retained copy names the session and its last opcodes.
            EXPECT_GT(metrics::Registry::instance().counterValue(
                          "net_flight_dumps_total"),
                      dumps_before);
            const std::string dump = trace::lastDump();
            EXPECT_NE(dump.find("flight recorder"), std::string::npos)
                << dump;
            if (dump.find("tag=") != std::string::npos) {
                // Non-empty ring (fault landed past the handshake):
                // the dump must name at least one session opcode.
                const bool named_op =
                    dump.find("hello") != std::string::npos ||
                    dump.find("accept") != std::string::npos ||
                    dump.find("op") != std::string::npos ||
                    dump.find("extend") != std::string::npos;
                EXPECT_TRUE(named_op) << dump;
            }
        }
    }

    // The daemon survived the whole telemetry grid.
    waitUntil([&] { return server.activeSessions() == 0; });
    EXPECT_EQ(server.activeSessions(), 0u);
    server.stop();
}

// ---------------------------------------------------------------------------
// Fault-injection grid: inference daemon
// ---------------------------------------------------------------------------

TEST(ChaosFaultGridTest, InferServerSurvivesEveryFaultKind)
{
    const ppml::MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
    InferServer::Config cfg;
    cfg.sessionRecvTimeoutMs = 300;
    cfg.sessionSendTimeoutMs = 300;
    ServedStack stack(cfg);

    const std::vector<int64_t> input =
        ppml::sampleMlpInput(spec, 777, 1);
    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 16;
    // Faults must land in counted commits over a depth-2 window.
    opt.depth = 2;
    auto runSession = [&](InferClient &client) {
        for (int r = 0; r < 3; ++r)
            client.infer(input);
        client.close();
    };

    // Correlations ride the COT sessions, so the inference channel
    // carries only the handshake and the online protocol: measure the
    // client's send stream of one clean session and arm every fault
    // inside it.
    opt.setupSeed = 0xc1ea;
    auto clean = stack.dial(opt);
    runSession(*clean);
    const uint64_t transcript = clean->onlineBytesSent();
    clean.reset();

    for (const FaultPlan::Kind kind : kAllKinds) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string("kind=") +
                         FaultPlan::atByte(kind, 0).kindName() +
                         " seed=" + std::to_string(seed));
            try {
                auto [send_cot, recv_cot] =
                    stack.cotSessions(0xdead + 2 * seed);
                auto ch = net::tcpConnect("127.0.0.1", stack.port);
                ch->setFaultPlan(FaultPlan::seeded(
                    kind, seed * 1381, transcript, /*delay_us=*/5000));
                InferClient client(std::move(ch), std::move(send_cot),
                                   std::move(recv_cot), opt);
                runSession(client);
            } catch (const WireError &) {
                // Typed.
            }
        }
    }

    waitUntil([&] { return stack.server.activeSessions() == 0; });
    EXPECT_EQ(stack.server.activeSessions(), 0u);

    // Still serving, still correct.
    opt.setupSeed = 0xfeed;
    opt.depth = 1;
    auto client = stack.dial(opt);
    const std::vector<int64_t> got = client->infer(input);
    EXPECT_EQ(got, ppml::mlpPlainForward(spec, input))
        << "fracBits-0 model is exact";
    client->close();
}

// ---------------------------------------------------------------------------
// Containment: deadlines and the idle reaper
// ---------------------------------------------------------------------------

TEST(ChaosContainmentTest, StalledPeerFreedByRecvDeadline)
{
    CotServer::Config cfg;
    cfg.sessionRecvTimeoutMs = 100;
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);

    // Connect and go silent WITHOUT closing: without the deadline the
    // session thread would block in recv forever.
    auto stalled = net::tcpConnect("127.0.0.1", port);
    waitUntil([&] { return server.activeSessions() == 0; });
    EXPECT_EQ(server.activeSessions(), 0u)
        << "recv deadline must free the session thread";
    server.stop();
}

TEST(ChaosContainmentTest, SilentPeerReapedOnIdleTimeout)
{
    CotServer::Config cfg;
    cfg.idleTimeoutMs = 100; // reaper only; blocking reads stay
    CotServer server(cfg);
    const uint16_t port = server.listenTcp(0);

    auto silent = net::tcpConnect("127.0.0.1", port);
    waitUntil([&] { return server.sessionsReaped() >= 1; });
    EXPECT_GE(server.sessionsReaped(), 1u);
    waitUntil([&] { return server.activeSessions() == 0; });
    EXPECT_EQ(server.activeSessions(), 0u);
    server.stop();
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

TEST(ChaosDrainTest, CotServerDrainFinishesInFlightRejectsNew)
{
    const ot::FerretParams p = ot::tinyTestParams();
    CotServer server;
    const uint16_t port = server.listenTcp(0);

    // An in-flight session that keeps extending while the drain runs.
    std::atomic<int> extensions_done{0};
    std::atomic<bool> client_threw{false};
    std::thread worker([&] {
        try {
            CotClient::Options opt;
            opt.setupSeed = 0xd4a1;
            auto client =
                CotClient::connectTcp("127.0.0.1", port, p, opt);
            BitVec c;
            std::vector<Block> t(client->usableOts());
            for (int it = 0; it < 8; ++it) {
                client->extendRecv(c, t.data());
                extensions_done.fetch_add(1);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
            client->close();
        } catch (...) {
            client_threw = true;
        }
    });
    waitUntil([&] { return extensions_done.load() >= 2; });

    const bool clean = server.drain(10000);
    EXPECT_TRUE(clean)
        << "in-flight session must finish voluntarily within the window";
    worker.join();
    EXPECT_FALSE(client_threw.load())
        << "drain must not fail in-flight work";
    EXPECT_EQ(extensions_done.load(), 8);

    // The drained daemon refuses new connects.
    EXPECT_THROW(net::tcpConnect("127.0.0.1", port), WireError);
}

TEST(ChaosDrainTest, InferServerDrainAnswersEveryPendingRequest)
{
    const ppml::MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
    ServedStack stack;
    InferServer &server = stack.server;

    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 16;
    opt.depth = 4; // submissions stay pending until drain()
    opt.setupSeed = 0xd4a2;
    auto client = stack.dial(opt);

    std::vector<std::vector<int64_t>> reqs;
    for (int r = 0; r < 3; ++r) {
        reqs.push_back(ppml::sampleMlpInput(spec, 4500 + r, 1));
        client->submit(reqs.back());
    }
    EXPECT_EQ(client->inFlight(), 3u);

    // Drain starts while the requests are in flight; the session must
    // be allowed to commit, collect, and close inside the window.
    std::atomic<bool> drained_clean{false};
    std::thread drainer(
        [&] { drained_clean = server.drain(10000); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const std::vector<InferClient::Result> results = client->drain();
    ASSERT_EQ(results.size(), 3u);
    for (size_t r = 0; r < results.size(); ++r) {
        EXPECT_TRUE(results[r].ok) << "request " << r << ": "
                                   << results[r].error;
        EXPECT_EQ(results[r].outputs,
                  ppml::mlpPlainForward(spec, reqs[r]))
            << "request " << r;
    }
    client->close();
    drainer.join();
    EXPECT_TRUE(drained_clean.load())
        << "zero failed requests and a voluntary session end";

    EXPECT_THROW(net::tcpConnect("127.0.0.1", stack.port), WireError);
}

// ---------------------------------------------------------------------------
// Reservoir over an external session: typed terminal failures
// ---------------------------------------------------------------------------

/**
 * A take no stock can cover, on its own thread: the refiller keeps
 * extending for it. Construction returns once two refills ran under
 * it; outcome yields what the take threw ("returned" if nothing).
 */
struct BlockedTaker
{
    BlockedTaker(Reservoir &res, size_t n)
    {
        const uint64_t r0 = res.refills();
        thread = std::thread([this, &res, n] {
            BitVec bits;
            std::vector<Block> t;
            try {
                res.takeRecv(n, &bits, &t);
                done.set_value("returned");
            } catch (const WireError &e) {
                done.set_value(e.what());
            }
        });
        waitUntil([&] { return res.refills() >= r0 + 2; });
    }

    ~BlockedTaker() { thread.join(); }

    std::promise<std::string> done;
    std::future<std::string> outcome = done.get_future();
    std::thread thread;
};

TEST(ChaosRecoveryTest, ReservoirFailsTypedWhenCotServerStops)
{
    const ot::FerretParams p = ot::tinyTestParams();
    CotServer cot;
    CotClient::Options copt;
    copt.setupSeed = 0xbad5eed;
    auto client =
        CotClient::connectTcp("127.0.0.1", cot.listenTcp(0), p, copt);
    Reservoir res(*client);
    BlockedTaker taker(res, 1000 * p.usableOts());

    // The daemon dies under a waiting taker. The reservoir does not
    // redial (recovery belongs to the session's owner): the refill
    // error is terminal and reaches the taker typed, within a bound.
    cot.stop();
    const bool thrown =
        taker.outcome.wait_for(std::chrono::seconds(10)) ==
        std::future_status::ready;
    EXPECT_TRUE(thrown) << "taker still blocked 10 s after the stop";
    if (!thrown)
        res.stopRefill(); // unwind the taker so the test can end
    const std::string what = taker.outcome.get();
    EXPECT_NE(what.find("Reservoir: supply failed"), std::string::npos)
        << what;
    EXPECT_TRUE(res.failedTerminally());
}

TEST(ChaosRecoveryTest, ReservoirStopFailsBlockedTakerTyped)
{
    const ot::FerretParams p = ot::tinyTestParams();
    CotServer cot;
    CotClient::Options copt;
    copt.setupSeed = 0x570b;
    auto client =
        CotClient::connectTcp("127.0.0.1", cot.listenTcp(0), p, copt);
    Reservoir res(*client);
    BlockedTaker taker(res, 1000 * p.usableOts());

    // The owner stops the supply with a taker blocked: it wakes with
    // PeerClosed instead of waiting on stock that will never come,
    // and the session itself stays healthy for its owner.
    res.stopRefill();
    EXPECT_EQ(taker.outcome.get(),
              "Reservoir: stopped with takers waiting");
    EXPECT_FALSE(res.failedTerminally());
}

// ---------------------------------------------------------------------------
// Client recovery: InferClient vs backend kill/restart (invariant 15)
// ---------------------------------------------------------------------------

TEST(ChaosRecoveryTest, InferClientReservoirSupplySurvivesKillRestart)
{
    const ppml::MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
    constexpr unsigned kWidth = 16;
    constexpr int kRequests = 5;
    constexpr int kKillAfter = 2;

    std::vector<std::vector<int64_t>> reqs;
    for (int r = 0; r < kRequests; ++r)
        reqs.push_back(ppml::sampleMlpInput(spec, 9900 + r, 1));
    const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
        spec, kWidth, reqs, 0x77a1, 0x51, ot::tinyTestParams());

    // Backend A: COT daemon + stock + inference daemon.
    auto stack = std::make_unique<ServedStack>();
    const uint16_t port = stack->port;
    const uint16_t cot_port = stack->cotPort;

    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = kWidth;
    opt.batch = 1;
    opt.shareSeed = 0x77a1;
    opt.setupSeed = 0x51;
    opt.autoReconnect = true;
    opt.retry = fastRetry(10);
    // collect() after every submit keeps the depth-2 groups
    // single-request — the per-request local reference stays valid.
    opt.depth = 2;
    auto client = stack->dial(opt);

    size_t completed = 0, failed = 0;
    for (int r = 0; r < kRequests; ++r) {
        if (r == kKillAfter) {
            // Kill the WHOLE backend — inference daemon, COT daemon,
            // stock — and restart all of it on the same ports. The
            // client's reconnect rebuilds its COT sessions and
            // reservoirs from scratch against the fresh stock.
            stack.reset();
            stack = std::make_unique<ServedStack>(InferServer::Config{},
                                                  port, cot_port);
            ASSERT_EQ(stack->port, port);
            ASSERT_EQ(stack->cotPort, cot_port);
        }
        client->submit(reqs[r]);
        const InferClient::Result res = client->collect();
        if (res.ok) {
            EXPECT_EQ(res.outputs, local.outputs[r]) << "request " << r;
            ++completed;
        } else {
            EXPECT_FALSE(res.error.empty());
            ++failed;
        }
    }
    EXPECT_GE(client->reconnects(), 1u);
    EXPECT_LE(failed, 1u);
    EXPECT_GE(completed, size_t(kRequests - 1));
    client->close();
}

TEST(ChaosRecoveryTest, InferClientFailsTypedWithoutBackend)
{
    const ppml::MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
    auto stack = std::make_unique<ServedStack>();

    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 16;
    opt.autoReconnect = true;
    opt.retry = fastRetry(3);
    auto client = stack->dial(opt);
    const std::vector<int64_t> input =
        ppml::sampleMlpInput(spec, 321, 1);
    client->infer(input); // healthy first

    stack.reset(); // no restart: the budget must expire

    try {
        client->infer(input);
        FAIL() << "no backend: the retry budget must expire typed";
    } catch (const WireError &e) {
        EXPECT_TRUE(e.retryable() ||
                    e.fault() == net::WireFault::PeerClosed)
            << e.what();
    }
    // The request that raced the death parked a typed failed Result.
    const InferClient::Result r = client->collect();
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
    // The session is terminally dead now; further use stays typed.
    EXPECT_THROW(client->submit(input), WireError);
}

} // namespace
} // namespace ironman
