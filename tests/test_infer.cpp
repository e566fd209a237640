/**
 * @file
 * Inference-service tests (src/infer + the operator-stock half of
 * src/svc):
 *
 *  - infer wire handshake round trips at its exact v4 size and
 *    rejects structurally bad hellos (magic, version, model, width,
 *    batch, depth, session ids);
 *  - THE acceptance criterion: served inference over loopback TCP,
 *    reservoir-fed via the attached COT service, reconstructs outputs
 *    BIT-IDENTICAL to the in-process MlpRunner/FerretCotEngine path
 *    (ppml::runLocalMlpInference) for 2 model-zoo networks x 2
 *    bitwidths each — and within the truncation bound of the
 *    plaintext reference;
 *  - concurrent sessions all reconstruct correctly;
 *  - a server without an operator stock refuses every hello typed and
 *    keeps accepting;
 *  - invariant 13 (DESIGN.md): serving a second wave of reservoir-fed
 *    sessions constructs no new OT engines — the COT service's warm
 *    pool covers session churn.
 *
 * The whole file runs over real sockets where it matters; it is also
 * part of the CI TSan target (server threads + reservoir refill
 * threads + operator-stock handoff).
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "infer/wire.h"
#include "net/channel.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "served_stack.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

namespace ironman::infer {
namespace {

using ppml::MlpModelSpec;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(InferWireTest, HelloAcceptRoundTrip)
{
    net::MemoryDuplex duplex;
    InferHello h;
    h.modelId = ppml::inferenceZoo().front().id;
    h.width = 32;
    h.batch = 7;
    h.sendSessionId = 11;
    h.recvSessionId = 12;
    h.depth = 6;
    // Exactly two known bits: the retired v2 packing/ladder bits
    // (0x1, 0x2) and any other unknown bit are dropped.
    h.flags = kInferFlagStreamCommit | 0x1 | 0x2 | 0x8000;
    sendInferHello(duplex.a(), h);

    InferHello got;
    ASSERT_EQ(recvInferHello(duplex.b(), &got), InferStatus::Ok);
    EXPECT_EQ(got.version, kInferWireVersion);
    EXPECT_EQ(got.modelId, h.modelId);
    EXPECT_EQ(got.width, h.width);
    EXPECT_EQ(got.batch, h.batch);
    EXPECT_EQ(got.sendSessionId, h.sendSessionId);
    EXPECT_EQ(got.recvSessionId, h.recvSessionId);
    EXPECT_EQ(got.depth, 6);
    EXPECT_EQ(got.flags, kInferFlagStreamCommit);

    InferAccept reply;
    reply.status = InferStatus::Ok;
    reply.depth = 6;
    reply.flags = kInferFlagStreamCommit | 0x1;
    reply.sessionId = 99;
    sendInferAccept(duplex.b(), reply);
    const InferAccept a = recvInferAccept(duplex.a());
    EXPECT_EQ(a.status, InferStatus::Ok);
    EXPECT_EQ(a.depth, 6);
    EXPECT_EQ(a.flags, kInferFlagStreamCommit);
    EXPECT_EQ(a.sessionId, 99u);

    // Exact v4 sizes: the 6-byte magic+version prefix, the 29-byte body
    // (width, model, batch, both COT sids, depth, flags), and the
    // 9-byte trace trailer only when the flag is set.
    auto helloBytes = [&](uint16_t flags) {
        net::MemoryDuplex d;
        InferHello x = h;
        x.flags = flags;
        sendInferHello(d.a(), x);
        return d.a().bytesSent();
    };
    EXPECT_EQ(helloBytes(0), 35u);
    EXPECT_EQ(helloBytes(kInferFlagTrace), 35u + 9u);
}

TEST(InferWireTest, RejectsStructurallyBadHellos)
{
    auto reject = [](auto mutate, InferStatus expect) {
        net::MemoryDuplex duplex;
        InferHello h;
        h.modelId = ppml::inferenceZoo().front().id;
        h.width = 32;
        h.batch = 1;
        h.sendSessionId = 1;
        h.recvSessionId = 2;
        mutate(h);
        sendInferHello(duplex.a(), h);
        InferHello got;
        EXPECT_EQ(recvInferHello(duplex.b(), &got), expect);
    };
    reject([](InferHello &h) { h.modelId = 0xdead; },
           InferStatus::BadModel);
    reject([](InferHello &h) { h.width = 8; }, InferStatus::BadWidth);
    reject([](InferHello &h) { h.width = 63; }, InferStatus::BadWidth);
    reject([](InferHello &h) { h.batch = 0; }, InferStatus::BadBatch);
    reject([](InferHello &h) { h.depth = 0; }, InferStatus::BadDepth);
    // The retired v1/v2/v3 dialects and any future one: typed at the
    // handshake, never a desynchronised transcript.
    for (const uint16_t v : {1, 2, 3, 7})
        reject([v](InferHello &h) { h.version = v; },
               InferStatus::BadVersion);
    reject([](InferHello &h) { h.sendSessionId = 0; },
           InferStatus::BadSupply);
    reject([](InferHello &h) { h.recvSessionId = 0; },
           InferStatus::BadSupply);
    reject([](InferHello &h) { h.sendSessionId = h.recvSessionId = 5; },
           InferStatus::BadSupply);
    {
        // Bad magic: enough junk bytes for one whole hello.
        net::MemoryDuplex duplex;
        uint8_t junk[128] = {9, 9, 9, 9};
        duplex.a().sendBytes(junk, sizeof(junk));
        InferHello got;
        EXPECT_EQ(recvInferHello(duplex.b(), &got),
                  InferStatus::BadMagic);
    }
}

// ---------------------------------------------------------------------------
// Served inference == in-process inference, bit for bit
// ---------------------------------------------------------------------------

/** The model x width grid the acceptance criterion names. */
struct GridPoint
{
    const char *model;
    unsigned width;
};
constexpr GridPoint kGrid[] = {
    {"mlp-16x8x4", 24},
    {"mlp-16x8x4", 32},
    {"mlp-12x6x3", 16},
    {"mlp-12x6x3", 32},
};

constexpr uint64_t kShareSeed = 0x517a9e;
constexpr uint64_t kSetupSeed = 777;
// Enough requests that a w32 session's operator banks and reservoirs
// each compact (ppml::CotBank) at least twice between pairing checks.
constexpr int kRequests = 8;
constexpr uint32_t kBatch = 3;

std::vector<std::vector<int64_t>>
gridRequests(const MlpModelSpec &spec)
{
    std::vector<std::vector<int64_t>> reqs;
    for (int r = 0; r < kRequests; ++r)
        reqs.push_back(
            ppml::sampleMlpInput(spec, 9000 + r, kBatch));
    return reqs;
}

void
expectServedMatchesLocal(InferClient &client, const MlpModelSpec &spec,
                         unsigned width)
{
    const std::vector<std::vector<int64_t>> reqs = gridRequests(spec);
    const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
        spec, width, reqs, kShareSeed, kSetupSeed,
        ot::tinyTestParams());
    const int64_t bound = ppml::mlpTruncationErrorBound(spec);

    for (int r = 0; r < kRequests; ++r) {
        const std::vector<int64_t> served = client.infer(reqs[r]);
        // Bit-identity with the in-process path: the GMW shares are
        // deterministic given the input shares, so the correlation
        // supply and transport must not change a single output bit.
        ASSERT_EQ(served, local.outputs[r])
            << spec.name << " w" << width << " request " << r;
        // And sanity against plaintext, within the truncation bound.
        const std::vector<int64_t> plain =
            ppml::mlpPlainForward(spec, reqs[r]);
        ASSERT_EQ(served.size(), plain.size());
        for (size_t i = 0; i < served.size(); ++i)
            ASSERT_LE(std::llabs(served[i] - plain[i]), bound)
                << spec.name << " w" << width << " output " << i;
    }
}

TEST(InferServiceTest, ReservoirSupplyBitIdenticalToLocal)
{
    ServedStack stack;
    for (const GridPoint &g : kGrid) {
        const MlpModelSpec &spec = *ppml::findMlpModel(g.model);
        InferClient::Options opt;
        opt.modelId = spec.id;
        opt.width = g.width;
        opt.batch = kBatch;
        opt.setupSeed = kSetupSeed + g.width; // distinct COT sessions
        opt.shareSeed = kShareSeed;
        auto client = stack.dial(opt);
        expectServedMatchesLocal(*client, spec, g.width);
        EXPECT_EQ(client->requestsRun(), uint64_t(kRequests));
        EXPECT_GT(client->cotsConsumed(), 0u);
        EXPECT_GT(client->preprocBytesSent(), 0u);
        client->close();
    }
    stack.stop();
    EXPECT_EQ(stack.server.sessionsServed(),
              sizeof(kGrid) / sizeof(kGrid[0]));
    EXPECT_EQ(stack.server.imagesServed(),
              uint64_t(kRequests) * kBatch *
                  (sizeof(kGrid) / sizeof(kGrid[0])));
}

TEST(InferServiceTest, ConcurrentReservoirSessions)
{
    ServedStack stack;
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-16x8x4");
    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    std::vector<int> ok(kClients, 0); // int, not bool: bit-packing races
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            InferClient::Options opt;
            opt.modelId = spec.id;
            opt.width = 32;
            opt.batch = 2;
            opt.setupSeed = 4000 + i;
            opt.shareSeed = 5000 + i;
            auto client = stack.dial(opt);
            const std::vector<int64_t> input =
                ppml::sampleMlpInput(spec, 6000 + i, 2);
            const std::vector<int64_t> served = client->infer(input);
            const std::vector<int64_t> plain =
                ppml::mlpPlainForward(spec, input);
            const int64_t bound = ppml::mlpTruncationErrorBound(spec);
            bool all = served.size() == plain.size();
            for (size_t j = 0; all && j < served.size(); ++j)
                all = std::llabs(served[j] - plain[j]) <= bound;
            ok[i] = all;
            client->close();
        });
    for (auto &th : clients)
        th.join();
    for (int i = 0; i < kClients; ++i)
        EXPECT_TRUE(ok[i]) << "client " << i;
    stack.stop();
    EXPECT_EQ(stack.server.sessionsServed(), uint64_t(kClients));
}

// ---------------------------------------------------------------------------
// Server policy + operator-stock robustness
// ---------------------------------------------------------------------------

TEST(InferServiceTest, ServerWithoutStockRejectsEveryHello)
{
    // No attachOperatorStock: there is no correlation supply to serve
    // from, so even a well-formed hello gets the typed BadSupply — and
    // the server keeps accepting, answering the next hello the same.
    InferServer server;
    const uint16_t port = server.listenTcp(0);
    for (uint64_t attempt = 1; attempt <= 2; ++attempt) {
        auto ch = net::tcpConnect("127.0.0.1", port);
        InferHello h;
        h.modelId = ppml::inferenceZoo().front().id;
        h.width = 32;
        h.batch = 1;
        h.sendSessionId = 10 * attempt + 1;
        h.recvSessionId = 10 * attempt + 2;
        sendInferHello(*ch, h);
        ch->flush();
        EXPECT_EQ(recvInferAccept(*ch).status, InferStatus::BadSupply)
            << "hello " << attempt;
        // The session thread counts the reject after its accept left.
        for (int spin = 0;
             spin < 5000 && server.sessionsRejected() < attempt; ++spin)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_EQ(server.sessionsRejected(), attempt);
    }
    server.stop();
    EXPECT_EQ(server.sessionsServed(), 0u);
    EXPECT_EQ(server.sessionsRejected(), 2u);
}

TEST(OperatorStockTest, TakeTimesOutOnDeadProducer)
{
    // A session id nobody stocks (dead client / bogus hello): the
    // take must expire and throw instead of pinning its session slot
    // until shutdown — and the probe must leave no map residue
    // (takes use find(), only the sinks materialize entries).
    svc::OperatorStock stock;
    stock.setWaitTimeout(std::chrono::milliseconds(50));
    BitVec bits;
    std::vector<Block> blocks;
    Block delta;
    EXPECT_THROW(stock.takeRecv(424242, 10, &bits, &blocks),
                 std::runtime_error);
    EXPECT_THROW(stock.takeSend(424243, 10, &blocks, &delta),
                 std::runtime_error);
    EXPECT_EQ(stock.stock(424242), 0u);
    EXPECT_EQ(stock.stock(424243), 0u);
}

TEST(InferServiceTest, ForeignOrBogusCotSessionsRejectedAtHandshake)
{
    ServedStack stack;

    // A hello naming sessions that do not exist: a clean wire-level
    // reject, not a stock-wait timeout.
    auto ch = net::tcpConnect("127.0.0.1", stack.port);
    InferHello h;
    h.modelId = ppml::inferenceZoo().front().id;
    h.width = 32;
    h.batch = 1;
    h.sendSessionId = 999998;
    h.recvSessionId = 999999;
    sendInferHello(*ch, h);
    ch->flush();
    EXPECT_EQ(recvInferAccept(*ch).status,
              InferStatus::ForeignSession);
    ch.reset();

    // Live sids of the right owner still admit (the whole served
    // grid exercises this; here just confirm the counter).
    stack.stop();
    EXPECT_EQ(stack.server.sessionsRejected(), 1u);
}

TEST(OperatorStockTest, SessionEndFreesUnclaimedResidue)
{
    // A COT session nobody's inference session ever consumes (e.g. a
    // rejected hello, or a client that died before its hello) banks
    // stock; the CotServer's session-end sink must erase it the
    // moment the COT session closes.
    svc::OperatorStock stock;
    svc::CotServer cot;
    stock.attach(cot);
    const uint16_t port = cot.listenTcp(0);

    svc::CotClient::Options opt;
    opt.setupSeed = 9911;
    auto client = svc::CotClient::connectTcp(
        "127.0.0.1", port, ot::tinyTestParams(), opt);
    const uint64_t sid = client->sessionId();
    BitVec c;
    std::vector<Block> t(client->usableOts());
    client->extendRecv(c, t.data());
    // The sink runs on the session thread after its extendInto.
    for (int spin = 0; spin < 2000 && stock.stock(sid) == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(stock.stock(sid), 0u); // banked, unclaimed
    client->close();

    for (int spin = 0; spin < 2000 && stock.stock(sid) > 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(stock.stock(sid), 0u);
    cot.stop();
}

TEST(OperatorStockTest, ShutdownWakesBlockedTaker)
{
    svc::OperatorStock stock;
    stock.setWaitTimeout(std::chrono::minutes(1));
    std::thread taker([&] {
        BitVec bits;
        std::vector<Block> blocks;
        EXPECT_THROW(stock.takeRecv(7, 10, &bits, &blocks),
                     std::runtime_error);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stock.shutdown();
    taker.join();
}

// ---------------------------------------------------------------------------
// Invariant 13: warm session churn builds no new engines
// ---------------------------------------------------------------------------

TEST(InferServiceTest, ReservoirSessionChurnReusesWarmEngines)
{
    ServedStack stack;
    svc::CotServer &cot = stack.cot;
    InferServer &server = stack.server;
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-12x6x3");
    // A session's engine returns to the pool when its (asynchronous)
    // server-side epilogue runs; the next wave may only start once the
    // previous wave's COT sessions fully unwound, or it correctly
    // checks out FRESH engines alongside the still-leased ones.
    // The infer server's session thread likewise counts a session only
    // after the client's close() returned, so wait on both servers.
    auto drain = [&](uint64_t expect_infer_sessions) {
        for (int spin = 0; spin < 5000; ++spin) {
            if (cot.sessionsServed() >= 2 * expect_infer_sessions &&
                cot.activeSessions() == 0 &&
                server.sessionsServed() >= expect_infer_sessions &&
                server.activeSessions() == 0)
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    auto run_session = [&](uint64_t seed) {
        InferClient::Options opt;
        opt.modelId = spec.id;
        opt.width = 16;
        opt.batch = 1;
        opt.setupSeed = seed;
        auto client = stack.dial(opt);
        (void)client->infer(ppml::sampleMlpInput(spec, seed, 1));
        client->close();
    };

    run_session(8101); // wave 1: engines constructed + prewarmed
    drain(1);
    const uint64_t engines_after_wave1 =
        cot.pool().sendersCreated() + cot.pool().receiversCreated();
    EXPECT_GE(engines_after_wave1, 2u); // one per role at least

    run_session(8202);
    drain(2);
    run_session(8303);
    drain(3);
    EXPECT_EQ(cot.pool().sendersCreated() +
                  cot.pool().receiversCreated(),
              engines_after_wave1)
        << "invariant 13: later inference sessions must reuse warm "
           "engines, not construct";
    EXPECT_EQ(server.sessionsServed(), 3u);
}

} // namespace
} // namespace ironman::infer
