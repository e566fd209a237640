/**
 * @file
 * Service-layer guarantees of the width-packed online wire and
 * request-level pipelining.
 *
 *  - Served sessions on the packed wire reconstruct outputs equal to
 *    the in-process reference (DESIGN.md invariant 14) across models
 *    and widths 8-32, under one byte per chosen OT.
 *  - A depth-k pipelined session equals the GROUPED local reference —
 *    runLocalMlpInference over the concatenated requests — bit for
 *    bit. (Grouping changes the mask-tape tweak sequence, so the
 *    per-request sequential reference only agrees within the dense
 *    truncation bound; on the fracBits-0 zoo entry both are exact.)
 *  - A hello in a retired dialect (v1-v4) is refused with a
 *    typed BadVersion, and the server serves the next session.
 *  - Malformed or protocol-violating byte streams reject cleanly and
 *    never poison the server for the next well-formed session.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "infer/wire.h"
#include "net/socket_channel.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "served_stack.h"

namespace ironman::infer {
namespace {

using ppml::MlpModelSpec;

constexpr uint64_t kShareSeed = 0x9a11ad;
constexpr uint64_t kSetupSeed = 1234;

std::vector<std::vector<int64_t>>
makeRequests(const MlpModelSpec &spec, uint32_t batch, int count)
{
    std::vector<std::vector<int64_t>> reqs;
    for (int r = 0; r < count; ++r)
        reqs.push_back(ppml::sampleMlpInput(spec, 7100 + r, batch));
    return reqs;
}

/** Concatenate per-request inputs into one grouped request. */
std::vector<int64_t>
concatRequests(const std::vector<std::vector<int64_t>> &reqs)
{
    std::vector<int64_t> cat;
    for (const auto &r : reqs)
        cat.insert(cat.end(), r.begin(), r.end());
    return cat;
}

// ---------------------------------------------------------------------------
// Invariant 14: the packed wire decodes to the in-process shares
// ---------------------------------------------------------------------------

struct PackGridPoint
{
    const char *model;
    unsigned width;
};
// The narrow end (width 8 exists only on the fracBits-0 toy) and the
// acceptance-grid widths.
constexpr PackGridPoint kPackGrid[] = {
    {"mlp-4x3x2", 8},
    {"mlp-12x6x3", 16},
    {"mlp-16x8x4", 32},
};

TEST(InferPackingTest, PackedGridBitIdenticalToLocal)
{
    ServedStack stack;
    constexpr uint32_t kBatch = 2;
    constexpr int kCount = 2;

    for (const PackGridPoint &g : kPackGrid) {
        const MlpModelSpec &spec = *ppml::findMlpModel(g.model);
        const auto reqs = makeRequests(spec, kBatch, kCount);
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec, g.width, reqs, kShareSeed, kSetupSeed,
            ot::tinyTestParams());

        InferClient::Options opt;
        opt.modelId = spec.id;
        opt.width = g.width;
        opt.batch = kBatch;
        opt.setupSeed = kSetupSeed;
        opt.shareSeed = kShareSeed;
        auto client = stack.dial(opt);
        const uint64_t base_bytes =
            client->onlineBytesSent() + client->onlineBytesReceived();
        for (int r = 0; r < kCount; ++r)
            ASSERT_EQ(client->infer(reqs[r]), local.outputs[r])
                << spec.name << " w" << g.width << " request " << r;
        // Packed bytes, not just packed-equal outputs: an image runs
        // cotsPerImage chosen OTs in each direction. An AND-gate OT (the
        // bulk) ships three bits and a MUX OT 2*width+1, so the packed
        // wire stays under one byte per OT including the share tensors;
        // the Block-wide codec ships 32. Correlations ride the COT
        // sessions, so the inference channel carries online bytes only.
        const double bytes_per_image =
            double(client->onlineBytesSent() +
                   client->onlineBytesReceived() - base_bytes) /
            double(kCount * kBatch);
        EXPECT_LE(bytes_per_image, 2.0 * double(spec.cotsPerImage(g.width)))
            << spec.name << " w" << g.width;
        client->close();
    }
    stack.stop();
    EXPECT_EQ(stack.server.sessionsServed(),
              sizeof(kPackGrid) / sizeof(kPackGrid[0]));
}

// ---------------------------------------------------------------------------
// Request-level pipelining
// ---------------------------------------------------------------------------

TEST(InferPipelineTest, DepthEightMatchesGroupedLocalReference)
{
    ServedStack stack;
    constexpr int kDepth = 8;
    constexpr uint32_t kBatch = 1;

    struct Case
    {
        const char *model;
        unsigned width;
    };
    // The fracBits-0 toy is exact against plaintext too; the grid
    // model pins the realistic case.
    constexpr Case kCases[] = {{"mlp-4x3x2", 8}, {"mlp-16x8x4", 32}};

    for (const Case &c : kCases) {
        const MlpModelSpec &spec = *ppml::findMlpModel(c.model);
        const auto reqs = makeRequests(spec, kBatch, kDepth);

        // The bit-identity reference for a pipelined group is ONE
        // grouped evaluation (identical share stream, identical
        // tweak sequence), not kDepth sequential ones.
        const ppml::LocalMlpResult grouped =
            ppml::runLocalMlpInference(spec, c.width,
                                       {concatRequests(reqs)},
                                       kShareSeed, kSetupSeed,
                                       ot::tinyTestParams());
        const size_t req_out = size_t(kBatch) * spec.outputDim();
        ASSERT_EQ(grouped.outputs[0].size(), kDepth * req_out);

        InferClient::Options opt;
        opt.modelId = spec.id;
        opt.width = c.width;
        opt.batch = kBatch;
        opt.setupSeed = kSetupSeed;
        opt.shareSeed = kShareSeed;
        opt.depth = kDepth;
        auto client = stack.dial(opt);
        ASSERT_EQ(client->negotiatedDepth(), kDepth);

        std::vector<uint32_t> tags;
        for (int r = 0; r < kDepth; ++r) {
            tags.push_back(client->submit(reqs[r]));
            // Nothing evaluates until the group commits: one full
            // group stays pending (auto-commit waits for two).
            ASSERT_EQ(client->inFlight(), size_t(r + 1));
        }

        const auto results = client->drain();
        ASSERT_EQ(results.size(), size_t(kDepth));
        const int64_t bound = ppml::mlpTruncationErrorBound(spec);
        for (int r = 0; r < kDepth; ++r) {
            EXPECT_EQ(results[r].tag, tags[r]);
            const std::vector<int64_t> expect(
                grouped.outputs[0].begin() + r * req_out,
                grouped.outputs[0].begin() + (r + 1) * req_out);
            EXPECT_EQ(results[r].outputs, expect)
                << spec.name << " w" << c.width << " request " << r;
            const std::vector<int64_t> plain =
                ppml::mlpPlainForward(spec, reqs[r]);
            for (size_t i = 0; i < plain.size(); ++i)
                EXPECT_LE(std::llabs(results[r].outputs[i] - plain[i]),
                          bound)
                    << spec.name << " output " << i;
        }
        EXPECT_EQ(client->requestsRun(), uint64_t(kDepth));
        client->close();
    }
    stack.stop();
    EXPECT_EQ(stack.server.imagesServed(), uint64_t(2 * kDepth * kBatch));
}

TEST(InferPipelineTest, PartialGroupCommitsOnCollectAndClose)
{
    ServedStack stack;
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
    const auto reqs = makeRequests(spec, 1, 3);
    const ppml::LocalMlpResult grouped = ppml::runLocalMlpInference(
        spec, 8, {concatRequests(reqs)}, kShareSeed, kSetupSeed,
        ot::tinyTestParams());

    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 8;
    opt.batch = 1;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    opt.depth = 8; // deeper than we fill: collect() must flush
    auto client = stack.dial(opt);
    for (const auto &r : reqs)
        client->submit(r);
    ASSERT_EQ(client->inFlight(), 3u);

    const size_t out = spec.outputDim();
    const InferClient::Result first = client->collect();
    EXPECT_EQ(client->inFlight(), 0u);
    EXPECT_EQ(first.outputs,
              std::vector<int64_t>(grouped.outputs[0].begin(),
                                   grouped.outputs[0].begin() + out));
    // close() drains the rest implicitly; no hang, no protocol error.
    client->close();
    stack.stop();
    EXPECT_EQ(stack.server.requestsServed(), 3u);
}

TEST(InferPipelineTest, ServerClampsRequestedDepth)
{
    InferServer::Config cfg;
    cfg.maxDepth = 2;
    ServedStack stack(cfg);

    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");
    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 8;
    opt.batch = 1;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    opt.depth = 8;
    auto client = stack.dial(opt);
    EXPECT_EQ(client->negotiatedDepth(), 2);

    // Five submissions through a depth-2 window: auto-commit keeps the
    // session inside the negotiated bound without caller bookkeeping.
    const auto reqs = makeRequests(spec, 1, 5);
    for (const auto &r : reqs)
        client->submit(r);
    EXPECT_EQ(client->drain().size(), 5u);
    client->close();
    stack.stop();
    EXPECT_EQ(stack.server.requestsServed(), 5u);
}

// ---------------------------------------------------------------------------
// Retired dialects
// ---------------------------------------------------------------------------

TEST(InferPipelineTest, RetiredDialectHellosGetBadVersion)
{
    ServedStack stack;
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");

    // A stale peer would run the Block-wide wire (v1), negotiate
    // packing/comparison per session (v2), ask for an engine on this
    // channel (v3) or send a count-less barrier Commit (v4): refused
    // before any online byte, with the typed status, not a
    // desynchronised transcript.
    for (const uint16_t version : {1, 2, 3, 4}) {
        auto ch = net::tcpConnect("127.0.0.1", stack.port);
        InferHello h;
        h.version = version;
        h.modelId = spec.id;
        h.width = 8;
        h.sendSessionId = 1;
        h.recvSessionId = 2;
        sendInferHello(*ch, h);
        ch->flush();
        EXPECT_EQ(recvInferAccept(*ch).status, InferStatus::BadVersion)
            << "version " << version;
    }

    // The server then serves the next session bit-exactly.
    const auto reqs = makeRequests(spec, 1, 1);
    const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
        spec, 8, reqs, kShareSeed, kSetupSeed, ot::tinyTestParams());
    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 8;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    auto client = stack.dial(opt);
    EXPECT_EQ(client->infer(reqs[0]), local.outputs[0]);
    client->close();
    stack.stop();
    EXPECT_EQ(stack.server.sessionsRejected(), 4u);
    EXPECT_EQ(stack.server.sessionsServed(), 1u);
}

// ---------------------------------------------------------------------------
// Malformed-stream robustness
// ---------------------------------------------------------------------------

TEST(InferPipelineTest, MalformedStreamsRejectCleanlyAndServerSurvives)
{
    InferServer::Config cfg;
    cfg.maxDepth = 2;
    ServedStack stack(cfg);
    const uint16_t port = stack.port;
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");

    auto goodHello = [&] {
        InferHello h;
        h.modelId = spec.id;
        h.width = 8;
        h.batch = 1;
        h.sendSessionId = 1;
        h.recvSessionId = 2;
        h.depth = 2;
        return h;
    };
    auto expectRejected = [&](const char *what, auto send) {
        auto ch = net::tcpConnect("127.0.0.1", port);
        send(*ch);
        ch->flush();
        const InferAccept a = recvInferAccept(*ch);
        EXPECT_NE(a.status, InferStatus::Ok) << what;
    };

    // 1. Truncated hello, then close: the server never gets a full
    // prefix to answer, so don't wait for a reply — just hang up and
    // let the session abort. (Waiting here would deadlock: both ends
    // blocked reading.)
    {
        auto ch = net::tcpConnect("127.0.0.1", port);
        uint8_t prefix[3] = {0x46, 0x49, 0x52};
        ch->sendBytes(prefix, sizeof(prefix));
        ch->flush();
    }
    // 2. Bad magic with a full-size body.
    expectRejected("bad magic", [](net::SocketChannel &ch) {
        uint8_t junk[128] = {1, 2, 3, 4};
        ch.sendBytes(junk, sizeof(junk));
    });
    // 3. Unknown version.
    expectRejected("bad version", [&](net::SocketChannel &ch) {
        InferHello h = goodHello();
        h.version = 9;
        sendInferHello(ch, h);
    });
    // 4. Zero depth.
    expectRejected("zero depth", [&](net::SocketChannel &ch) {
        InferHello h = goodHello();
        h.depth = 0;
        sendInferHello(ch, h);
    });

    // Post-accept violations: the session dies, the server lives. The
    // accepted session goes straight to the op loop (correlations ride
    // the COT sessions), so each probe hits the opcode parser. Each
    // probe names two fresh live COT sessions of this peer: a session
    // end drops its sids from the stock.
    uint64_t cot_seed = kSetupSeed;
    auto probeAfterAccept = [&](const char *what, auto send) {
        auto [send_cot, recv_cot] = stack.cotSessions(cot_seed += 2);
        auto ch = net::tcpConnect("127.0.0.1", port);
        InferHello h = goodHello();
        h.sendSessionId = send_cot->sessionId();
        h.recvSessionId = recv_cot->sessionId();
        sendInferHello(*ch, h);
        const InferAccept a = recvInferAccept(*ch);
        ASSERT_EQ(a.status, InferStatus::Ok) << what;
        send(*ch);
        try {
            ch->flush();
        } catch (const std::exception &) {
            // The server may already have torn the session down.
        }
    };
    // 5. Garbage opcode instead of a request.
    probeAfterAccept("garbage opcode", [](net::SocketChannel &ch) {
        uint8_t op = 0xEE;
        ch.sendBytes(&op, 1);
    });
    // 6. Abrupt close mid-session (empty send: connect + accept only).
    probeAfterAccept("abrupt close", [](net::SocketChannel &) {});
    // 7. A torrent of Infer ops beyond the recv-ahead window; the
    // server kills the session at 2x depth + 1 without evaluating.
    probeAfterAccept("depth flood", [&](net::SocketChannel &ch) {
        const size_t lane = spec.inputDim();
        std::vector<uint64_t> x(lane, 1);
        for (uint32_t r = 0; r < 8; ++r) {
            sendInferOp(ch, InferOp::Infer);
            sendInferTag(ch, r);
            sendShareVectorPacked(ch, x.data(), x.size(), 8);
        }
    });
    // 8. Truncated share vector then close.
    probeAfterAccept("truncated shares", [](net::SocketChannel &ch) {
        sendInferOp(ch, InferOp::Infer);
        sendInferTag(ch, 1);
        uint8_t half[4] = {0, 0, 0, 0};
        ch.sendBytes(half, sizeof(half));
    });

    // The server must still serve a well-formed session afterwards.
    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 8;
    opt.batch = 1;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    opt.depth = 2;
    auto client = stack.dial(opt);
    const auto reqs = makeRequests(spec, 1, 2);
    const ppml::LocalMlpResult grouped = ppml::runLocalMlpInference(
        spec, 8, {concatRequests(reqs)}, kShareSeed, kSetupSeed,
        ot::tinyTestParams());
    client->submit(reqs[0]);
    client->submit(reqs[1]);
    const auto results = client->drain();
    ASSERT_EQ(results.size(), 2u);
    const size_t out = spec.outputDim();
    for (size_t r = 0; r < 2; ++r)
        EXPECT_EQ(results[r].outputs,
                  std::vector<int64_t>(
                      grouped.outputs[0].begin() + r * out,
                      grouped.outputs[0].begin() + (r + 1) * out));
    client->close();
    stack.stop();
    // Steps 2-4 reject at the handshake; the truncated hello and the
    // post-accept violations abort without counting either way.
    EXPECT_GE(stack.server.sessionsRejected(), 3u);
    EXPECT_GE(stack.server.sessionsServed(), 1u);
}

} // namespace
} // namespace ironman::infer
