/**
 * @file
 * Inference-service tests (src/infer + the operator-stock half of
 * src/svc):
 *
 *  - infer wire handshake round trips at its exact v5 sizes and
 *    rejects structurally bad hellos (magic, version, model, width,
 *    batch, depth, session ids);
 *  - THE acceptance criterion, as one bit-identity grid over
 *    served_stack.h (DESIGN.md invariants 13, 14 and 16): served
 *    inference over loopback TCP, reservoir-fed via the attached COT
 *    service, reconstructs outputs BIT-IDENTICAL to the grouped
 *    in-process MlpRunner/FerretCotEngine reference
 *    (ppml::runLocalMlpInference) and within the truncation bound of
 *    plaintext — across zoo models, widths 8-32, batches, depths 1, 2
 *    and 8 (a partial group included), under one byte per chosen OT
 *    on the packed wire, and with fuzzed wire trace ids;
 *  - concurrent sessions all reconstruct correctly, and the server
 *    clamps a requested depth to its bound;
 *  - a server without an operator stock refuses every hello typed and
 *    keeps accepting;
 *  - hostile peers (malformed hellos, retired v1-v4 dialects, garbage
 *    opcodes, truncated frames, window floods, bad commit counts) kill
 *    their own session, never the server, which then serves
 *    bit-exactly;
 *  - invariant 13: serving a second wave of reservoir-fed sessions
 *    constructs no new OT engines — the COT service's warm pool covers
 *    session churn.
 *
 * The whole file runs over real sockets where it matters; it is also
 * part of the CI TSan target (server threads + reservoir refill
 * threads + operator-stock handoff).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "infer/wire.h"
#include "net/channel.h"
#include "net/socket_channel.h"
#include "net/wire_error.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "served_stack.h"
#include "svc/cot_client.h"
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
    // Exactly one known bit: the retired v2 packing/ladder bits
    // (0x1, 0x2), the retired v4 streaming bit (0x4) and any other
    // unknown bit are dropped.
    h.flags = kInferFlagTrace | 0x1 | 0x2 | 0x4 | 0x8000;
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
    EXPECT_EQ(got.flags, kInferFlagTrace);

    InferAccept reply;
    reply.status = InferStatus::Ok;
    reply.depth = 6;
    reply.flags = kInferFlagTrace | 0x1 | 0x4;
    reply.sessionId = 99;
    sendInferAccept(duplex.b(), reply);
    const InferAccept a = recvInferAccept(duplex.a());
    EXPECT_EQ(a.status, InferStatus::Ok);
    EXPECT_EQ(a.depth, 6);
    EXPECT_EQ(a.flags, kInferFlagTrace);
    EXPECT_EQ(a.sessionId, 99u);

    // Exact v5 sizes: the 6-byte magic+version prefix, the 29-byte body
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
    // The retired v1-v4 dialects and any future one: typed at the
    // handshake, never a desynchronised transcript.
    for (const uint16_t v : {1, 2, 3, 4, 7})
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
// The bit-identity grid: served inference == in-process inference
// ---------------------------------------------------------------------------

/**
 * Serve @p cell on @p stack, submitting every input before collecting,
 * and hold each reply to the cell's grouped local reference bit for bit
 * and to plaintext within the truncation bound, with the window, the
 * packed wire and the client counters as they must be.
 */
void
expectServesCell(const ServedStack &stack, const ServedCell &cell)
{
    const MlpModelSpec &spec = cell.spec();
    const std::vector<std::vector<int64_t>> inputs = cell.inputs();
    const std::vector<std::vector<int64_t>> expect =
        cell.reference(cell.depth);
    const int64_t bound = ppml::mlpTruncationErrorBound(spec);

    auto client = stack.dial(cell.options());
    ASSERT_EQ(client->negotiatedDepth(), cell.depth);
    EXPECT_EQ(client->traceNegotiated(), cell.traceWire);
    const uint64_t base_bytes =
        client->onlineBytesSent() + client->onlineBytesReceived();

    // Up to 2x depth requests stay in flight: the submission that
    // reaches 2x commits the oldest depth-sized group.
    const size_t depth = cell.depth;
    std::vector<uint32_t> tags;
    size_t pending = 0;
    bool committed = false;
    for (const std::vector<int64_t> &in : inputs) {
        tags.push_back(client->submit(in));
        if (++pending == 2 * depth) {
            pending -= depth;
            committed = true;
        }
        ASSERT_EQ(client->inFlight(), pending);
    }
    // With nothing answered yet, collect() commits the oldest group —
    // a partial one when fewer than depth are pending.
    std::vector<InferClient::Result> results{client->collect()};
    if (!committed)
        pending -= std::min(pending, depth);
    EXPECT_EQ(client->inFlight(), pending);
    for (InferClient::Result &res : client->drain())
        results.push_back(std::move(res));

    ASSERT_EQ(results.size(), inputs.size());
    for (size_t r = 0; r < inputs.size(); ++r) {
        EXPECT_EQ(results[r].tag, tags[r]);
        // The GMW shares are a deterministic function of the input
        // shares and the grouping, so neither the correlation supply
        // nor the transport may change a single output bit.
        ASSERT_EQ(results[r].outputs, expect[r]) << "request " << r;
        const std::vector<int64_t> plain =
            ppml::mlpPlainForward(spec, inputs[r]);
        ASSERT_EQ(plain.size(), expect[r].size());
        for (size_t i = 0; i < plain.size(); ++i)
            ASSERT_LE(std::llabs(results[r].outputs[i] - plain[i]), bound)
                << "request " << r << " output " << i;
    }
    // Packed bytes, not just packed-equal outputs: an image runs
    // cotsPerImage chosen OTs in each direction. An AND-gate OT (the
    // bulk) ships three bits and a MUX OT 2*width+1, so the packed
    // wire stays under one byte per OT including the share tensors;
    // the Block-wide codec ships 32. Correlations ride the COT
    // sessions, so the inference channel carries online bytes only.
    const double bytes_per_image =
        double(client->onlineBytesSent() + client->onlineBytesReceived() -
               base_bytes) /
        double(cell.count * cell.batch);
    EXPECT_LE(bytes_per_image, 2.0 * double(spec.cotsPerImage(cell.width)));
    EXPECT_EQ(client->requestsRun(), uint64_t(cell.count));
    EXPECT_GT(client->cotsConsumed(), 0u);
    EXPECT_GT(client->preprocBytesSent(), 0u);
    client->close();
}

constexpr uint64_t kGridShareSeed = 0x517a9e;
constexpr uint64_t kPackShareSeed = 0x9a11ad;

const ServedCell kGrid[] = {
    // The acceptance grid: 2 zoo models x 2 widths, batch 3, enough
    // requests that a w32 session's operator banks and reservoirs each
    // compact (ppml::CotBank) at least twice between pairing checks.
    {.model = "mlp-16x8x4", .width = 24, .batch = 3, .count = 8,
     .setupSeed = 777, .shareSeed = kGridShareSeed, .firstInput = 9000},
    {.model = "mlp-16x8x4", .width = 32, .batch = 3, .count = 8,
     .setupSeed = 777, .shareSeed = kGridShareSeed, .firstInput = 9000},
    {.model = "mlp-12x6x3", .width = 16, .batch = 3, .count = 8,
     .setupSeed = 777, .shareSeed = kGridShareSeed, .firstInput = 9000},
    {.model = "mlp-12x6x3", .width = 32, .batch = 3, .count = 8,
     .setupSeed = 777, .shareSeed = kGridShareSeed, .firstInput = 9000},
    // The packed wire's narrow end (width 8 exists only on the
    // fracBits-0 toy) and the acceptance-grid widths.
    {.model = "mlp-4x3x2", .width = 8, .batch = 2, .count = 2,
     .setupSeed = 1234, .shareSeed = kPackShareSeed, .firstInput = 7100},
    {.model = "mlp-12x6x3", .width = 16, .batch = 2, .count = 2,
     .setupSeed = 1234, .shareSeed = kPackShareSeed, .firstInput = 7100},
    {.model = "mlp-16x8x4", .width = 32, .batch = 2, .count = 2,
     .setupSeed = 1234, .shareSeed = kPackShareSeed, .firstInput = 7100},
    // One depth-8 group (the fracBits-0 toy is exact against plaintext
    // too), and a partial group that collect() flushes.
    {.model = "mlp-4x3x2", .width = 8, .depth = 8, .count = 8,
     .setupSeed = 1234, .shareSeed = kPackShareSeed, .firstInput = 7100},
    {.model = "mlp-16x8x4", .width = 32, .depth = 8, .count = 8,
     .setupSeed = 1234, .shareSeed = kPackShareSeed, .firstInput = 7100},
    {.model = "mlp-4x3x2", .width = 8, .depth = 8, .count = 3,
     .setupSeed = 1234, .shareSeed = kPackShareSeed, .firstInput = 7100},
    // Streaming at depth 2: groups {0,1} and {2,3} commit at the 4th
    // and 6th submission, {4,5} at collect().
    {.model = "mlp-16x8x4", .width = 32, .depth = 2, .count = 6,
     .setupSeed = 4321, .shareSeed = kPackShareSeed, .firstInput = 8200},
    // Fuzzed trace ids: trace context is observability, never protocol
    // input, so no id may change an output bit or kill the server.
    {.model = "mlp-16x8x4", .width = 32, .batch = 2, .count = 2,
     .setupSeed = 4242, .shareSeed = kGridShareSeed, .firstInput = 9000,
     .traceWire = true, .traceId = 0, .traceSampled = false},
    {.model = "mlp-16x8x4", .width = 32, .batch = 2, .count = 2,
     .setupSeed = 4242, .shareSeed = kGridShareSeed, .firstInput = 9000,
     .traceWire = true, .traceId = ~uint64_t(0)},
    {.model = "mlp-16x8x4", .width = 32, .batch = 2, .count = 2,
     .setupSeed = 4242, .shareSeed = kGridShareSeed, .firstInput = 9000,
     .traceWire = true, .traceId = 0x8000000000000000ULL,
     .traceSampled = false},
    {.model = "mlp-16x8x4", .width = 32, .batch = 2, .count = 2,
     .setupSeed = 4242, .shareSeed = kGridShareSeed, .firstInput = 9000,
     .traceWire = true, .traceId = 0xdb91f6e49c3a5512ULL,
     .traceSampled = false},
};

class ServedGridTest : public testing::TestWithParam<ServedCell>
{
};

TEST_P(ServedGridTest, BitIdenticalToGroupedLocalReference)
{
    const ServedCell &cell = GetParam();
    ServedStack stack;
    expectServesCell(stack, cell);
    stack.stop();
    EXPECT_EQ(stack.server.sessionsServed(), 1u);
    EXPECT_EQ(stack.server.requestsServed(), cell.count);
    EXPECT_EQ(stack.server.imagesServed(), cell.count * cell.batch);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, ServedGridTest, testing::ValuesIn(kGrid),
    [](const testing::TestParamInfo<ServedCell> &info) {
        const ServedCell &c = info.param;
        std::string name = std::to_string(info.index) + "_" + c.model +
                           "_w" + std::to_string(c.width) + "_b" +
                           std::to_string(c.batch) + "_d" +
                           std::to_string(c.depth) + "_n" +
                           std::to_string(c.count);
        if (c.traceWire)
            name += "_trace";
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(InferServiceTest, ConcurrentReservoirSessions)
{
    ServedStack stack;
    constexpr int kClients = 4;
    std::vector<std::thread> clients;
    std::vector<int> ok(kClients, 0); // int, not bool: bit-packing races
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            const ServedCell cell{.model = "mlp-16x8x4", .width = 32,
                                  .batch = 2, .setupSeed = 4000u + i,
                                  .shareSeed = 5000u + i,
                                  .firstInput = 6000u + i};
            const MlpModelSpec &spec = cell.spec();
            auto client = stack.dial(cell.options());
            const std::vector<int64_t> input = cell.inputs()[0];
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

TEST(InferServiceTest, ServerClampsRequestedDepth)
{
    InferServer::Config cfg;
    cfg.maxDepth = 2;
    ServedStack stack(cfg);

    const ServedCell cell{.model = "mlp-4x3x2", .width = 8, .depth = 8,
                          .count = 5, .setupSeed = 1234,
                          .shareSeed = 0x9a11ad, .firstInput = 7100};
    auto client = stack.dial(cell.options());
    EXPECT_EQ(client->negotiatedDepth(), 2);

    // Five submissions through a depth-2 window: auto-commit keeps the
    // session inside the negotiated bound without caller bookkeeping.
    for (const auto &r : cell.inputs())
        client->submit(r);
    EXPECT_EQ(client->drain().size(), 5u);
    client->close();
    stack.stop();
    EXPECT_EQ(stack.server.requestsServed(), 5u);
}

/** A hand-rolled inference connection and the COT sessions it names. */
struct RawSession
{
    std::unique_ptr<svc::CotClient> sendCot, recvCot;
    std::unique_ptr<net::SocketChannel> ch;
};

TEST(InferServiceTest, HostilePeersKillTheirSessionNotTheServer)
{
    InferServer::Config cfg;
    cfg.maxDepth = 2;
    ServedStack stack(cfg);
    const ServedCell survivor{.model = "mlp-4x3x2", .width = 8,
                              .depth = 2, .count = 2, .setupSeed = 1234,
                              .shareSeed = 0x9a11ad, .firstInput = 7100};
    const MlpModelSpec &spec = survivor.spec();

    // One raw session per probe. With `accepted` its hello names two
    // live COT sessions of this peer — fresh ones, as a session end
    // drops its sids from the stock — so the probe reaches the op loop
    // (correlations ride the COT sessions, so the opcode parser is the
    // first thing it meets). Otherwise the probe owns the handshake.
    uint64_t cot_seed = survivor.setupSeed;
    auto open = [&](bool accepted) {
        RawSession s;
        s.ch = net::tcpConnect("127.0.0.1", stack.port);
        if (accepted) {
            std::tie(s.sendCot, s.recvCot) =
                stack.cotSessions(cot_seed += 2);
            InferHello h;
            h.modelId = spec.id;
            h.width = 8;
            h.sendSessionId = s.sendCot->sessionId();
            h.recvSessionId = s.recvCot->sessionId();
            h.depth = 2;
            sendInferHello(*s.ch, h);
            EXPECT_EQ(recvInferAccept(*s.ch).status, InferStatus::Ok);
        }
        return s;
    };
    auto handshake = [&](auto send) {
        RawSession s = open(false);
        send(*s.ch);
        s.ch->flush();
        return recvInferAccept(*s.ch).status;
    };
    // The server must drop a violating session WITHOUT answering: the
    // next read sees a dead session, never a response tag.
    auto expectDied = [](RawSession &s, const char *what) {
        try {
            s.ch->flush();
            (void)recvInferTag(*s.ch);
            ADD_FAILURE() << what << ": server answered";
        } catch (const std::exception &) {
        }
    };
    const std::vector<uint64_t> x(spec.inputDim(), 1);
    auto sendFrame = [&](net::SocketChannel &ch, uint32_t tag) {
        sendInferOp(ch, InferOp::Infer);
        sendInferTag(ch, tag);
        sendShareVectorPacked(ch, x.data(), x.size(), 8);
    };

    // Handshake: a truncated hello gets no reply (both ends would block
    // reading), so just hang up; the rest are refused typed before any
    // online byte — a stale peer would run the Block-wide wire (v1),
    // negotiate packing per session (v2), ask for an engine on this
    // channel (v3) or send a count-less barrier Commit (v4).
    {
        RawSession s = open(false);
        const uint8_t prefix[3] = {0x46, 0x49, 0x52};
        s.ch->sendBytes(prefix, sizeof(prefix));
        s.ch->flush();
    }
    EXPECT_EQ(handshake([](net::SocketChannel &ch) {
                  const uint8_t junk[128] = {1, 2, 3, 4};
                  ch.sendBytes(junk, sizeof(junk));
              }),
              InferStatus::BadMagic);
    auto hello = [&](uint16_t version, uint16_t depth) {
        return [=, &spec](net::SocketChannel &ch) {
            InferHello h;
            h.version = version;
            h.modelId = spec.id;
            h.width = 8;
            h.sendSessionId = 1;
            h.recvSessionId = 2;
            h.depth = depth;
            sendInferHello(ch, h);
        };
    };
    for (const uint16_t version : {1, 2, 3, 4, 9})
        EXPECT_EQ(handshake(hello(version, 2)), InferStatus::BadVersion)
            << "version " << version;
    EXPECT_EQ(handshake(hello(kInferWireVersion, 0)), InferStatus::BadDepth);

    // After the accept: each violation kills its session.
    {
        RawSession s = open(true);
        const uint8_t op = 0xEE;
        s.ch->sendBytes(&op, 1);
        expectDied(s, "garbage opcode");
    }
    (void)open(true); // abrupt close right after the accept
    {
        RawSession s = open(true);
        sendInferOp(*s.ch, InferOp::Infer);
        sendInferTag(*s.ch, 1);
        const uint8_t half[4] = {};
        s.ch->sendBytes(half, sizeof(half));
        s.ch->flush(); // truncated shares, then close
    }
    {
        // Infer frames past the 2x-depth recv-ahead window: the server
        // hangs up at the fifth without evaluating, maybe mid-flood.
        RawSession s = open(true);
        try {
            for (uint32_t r = 0; r < 5; ++r)
                sendFrame(*s.ch, r);
        } catch (const std::exception &) {
        }
        expectDied(s, "window flood");
    }
    {
        // Commit count 0 is meaningless: nothing-pending is expressed
        // by not committing.
        RawSession s = open(true);
        sendInferOp(*s.ch, InferOp::Commit);
        sendCommitCount(*s.ch, 0);
        expectDied(s, "count zero");
    }
    {
        RawSession s = open(true);
        sendFrame(*s.ch, 1);
        sendInferOp(*s.ch, InferOp::Commit);
        sendCommitCount(*s.ch, 2);
        expectDied(s, "count beyond pending");
    }
    {
        // A Commit group above the negotiated depth, though every
        // request is pending within the 2x-depth recv-ahead: one
        // forward may not evaluate more than the window the session
        // negotiated. The server hangs up at once; a server that took
        // the group would sit in its forward waiting for this peer's
        // half, which the read deadline turns into a failure.
        const uint64_t served_before = stack.server.requestsServed();
        RawSession s = open(true);
        for (uint32_t r = 0; r < 4; ++r)
            sendFrame(*s.ch, r);
        sendInferOp(*s.ch, InferOp::Commit);
        sendCommitCount(*s.ch, 4);
        s.ch->flush();
        s.ch->setRecvTimeout(10000);
        try {
            (void)recvInferTag(*s.ch);
            ADD_FAILURE() << "count beyond depth: server answered";
        } catch (const net::WireError &e) {
            EXPECT_EQ(e.fault(), net::WireFault::PeerClosed)
                << "count beyond depth: session left running";
        }
        EXPECT_EQ(stack.server.requestsServed(), served_before);
    }

    // The server still serves a well-formed streaming session bit-exactly.
    expectServesCell(stack, survivor);
    stack.stop();
    // Bad magic, the five versions and zero depth reject at the
    // handshake; the truncated hello and the post-accept violations
    // abort without counting either way.
    EXPECT_GE(stack.server.sessionsRejected(), 7u);
    EXPECT_GE(stack.server.sessionsServed(), 1u);
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
        const ServedCell cell{.model = "mlp-12x6x3", .setupSeed = seed,
                              .firstInput = seed};
        auto client = stack.dial(cell.options());
        (void)client->infer(cell.inputs()[0]);
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
