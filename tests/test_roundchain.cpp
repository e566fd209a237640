/**
 * @file
 * Round-chain guarantees: the Kogge-Stone comparison ladder,
 * streaming commits, and RTT-driven depth auto-tuning.
 *
 *  - The ladder DReLU reconstructs the plaintext sign bit across
 *    power-of-two, non-power-of-two, and degenerate widths, and local
 *    forwards stay within the truncation bound of plaintext while
 *    consuming exactly the COTs cotsPerImage() predicts.
 *  - MlpLayerStat reports MEASURED rounds that match the cost model:
 *    ceil(log2(width-1))+2 per ReLU layer (<= 8 at width 32, the
 *    acceptance bound).
 *  - Streaming commits evaluate depth-sized groups of the oldest
 *    pending requests, so served outputs equal the grouped local
 *    reference bit for bit.
 *  - Malformed streaming commits (count 0, count > pending, frame
 *    floods past the 2x-depth window) kill the session, not the
 *    server.
 *  - Depth auto-tune picks a small depth on a fast link and pins the
 *    negotiated ceiling on a simulated WAN.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "infer/wire.h"
#include "net/socket_channel.h"
#include "net/two_party.h"
#include "ot/ferret_params.h"
#include "ppml/cot_engine.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "ppml/secure_compute.h"
#include "served_stack.h"

namespace ironman::infer {
namespace {

using ppml::MlpModelSpec;

constexpr uint64_t kShareSeed = 0x9a11ad;
constexpr uint64_t kSetupSeed = 4321;

std::vector<std::vector<int64_t>>
makeRequests(const MlpModelSpec &spec, uint32_t batch, int count)
{
    std::vector<std::vector<int64_t>> reqs;
    for (int r = 0; r < count; ++r)
        reqs.push_back(ppml::sampleMlpInput(spec, 8200 + r, batch));
    return reqs;
}

std::vector<int64_t>
concatRequests(const std::vector<std::vector<int64_t>> &reqs,
               size_t first, size_t count)
{
    std::vector<int64_t> cat;
    for (size_t r = first; r < first + count; ++r)
        cat.insert(cat.end(), reqs[r].begin(), reqs[r].end());
    return cat;
}

/** Two in-process GMW parties at an arbitrary width. */
void
runParties(uint64_t seed, unsigned width,
           const std::function<void(ppml::SecureCompute &)> &party0,
           const std::function<void(ppml::SecureCompute &)> &party1)
{
    net::runTwoParty(
        [&](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, 0, ot::tinyTestParams(),
                                         seed);
            ppml::SecureCompute sc(ch, 0, engine, width);
            party0(sc);
        },
        [&](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, 1, ot::tinyTestParams(),
                                         seed);
            ppml::SecureCompute sc(ch, 1, engine, width);
            party1(sc);
        });
}

// ---------------------------------------------------------------------------
// The carry circuits agree — everywhere
// ---------------------------------------------------------------------------

// Power-of-two, non-power-of-two (m = width-1 = 11 and 16), and the
// degenerate width-2 circuit (m = 1: the ladder has no combine
// levels, the carry IS the lone generate).
constexpr unsigned kWidths[] = {2, 8, 12, 17, 32};

TEST(RoundChainTest, LadderReconstructsTheSignAtEveryWidth)
{
    const size_t n = 33; // odd, to catch stride bugs in the lanes
    for (const unsigned width : kWidths) {
        const uint64_t mask = (uint64_t(1) << width) - 1;
        const uint64_t sign = uint64_t(1) << (width - 1);
        Rng rng(0xd0e0 + width);
        std::vector<uint64_t> values(n), s0(n), s1(n);
        for (size_t i = 0; i < n; ++i) {
            // Dense around the boundaries: 0, -1, min, max included.
            if (i == 0) values[i] = 0;
            else if (i == 1) values[i] = mask;        // -1
            else if (i == 2) values[i] = sign;        // most negative
            else if (i == 3) values[i] = sign - 1;    // most positive
            else values[i] = rng.nextUint64() & mask;
            s0[i] = rng.nextUint64() & mask;
            s1[i] = (values[i] - s0[i]) & mask;
        }

        BitVec b0, b1;
        runParties(77, width,
                   [&](ppml::SecureCompute &sc) { b0 = sc.drelu(s0); },
                   [&](ppml::SecureCompute &sc) { b1 = sc.drelu(s1); });
        for (size_t i = 0; i < n; ++i) {
            const bool nonneg = (values[i] & sign) == 0;
            EXPECT_EQ(b0.get(i) ^ b1.get(i), nonneg)
                << "width " << width << " value " << values[i];
        }
    }
}

TEST(RoundChainTest, LocalForwardsMatchPlainAndCotModel)
{
    struct Case
    {
        const char *model;
        unsigned width;
    };
    // The fracBits-0 width-8 floor model, a non-default width, the
    // acceptance-grid model, and the deep 3-ReLU-layer one.
    constexpr Case kCases[] = {{"mlp-4x3x2", 8},
                               {"mlp-12x6x3", 16},
                               {"mlp-16x8x4", 32},
                               {"mlp-16x16x16x8", 24}};
    for (const Case &c : kCases) {
        const MlpModelSpec &spec = *ppml::findMlpModel(c.model);
        const auto reqs = makeRequests(spec, 2, 2);
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec, c.width, reqs, kShareSeed, kSetupSeed,
            ot::tinyTestParams());

        // The estimator matches what was actually consumed
        // (cotsPerImage is per DIRECTION; the party counter sees 2
        // COTs per AND gate) — reservoir sizing relies on it.
        const uint64_t imgs = 2 * 2; // requests x batch
        EXPECT_EQ(local.cotsPerParty,
                  2 * imgs * spec.cotsPerImage(c.width))
            << spec.name << " w" << c.width;

        const int64_t bound = ppml::mlpTruncationErrorBound(spec);
        for (size_t r = 0; r < reqs.size(); ++r) {
            const auto plain = ppml::mlpPlainForward(spec, reqs[r]);
            for (size_t i = 0; i < plain.size(); ++i)
                EXPECT_LE(std::llabs(local.outputs[r][i] - plain[i]),
                          bound)
                    << spec.name << " output " << i;
        }
    }
}

TEST(RoundChainTest, MeasuredRoundsMatchCostModel)
{
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-16x8x4");
    constexpr unsigned kWidth = 32;
    const std::vector<uint64_t> x(spec.inputDim(), 5);

    std::vector<ppml::MlpLayerStat> stats;
    auto party = [&](int id) {
        return [&, id](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, id, ot::tinyTestParams(), 78);
            ppml::SecureCompute sc(ch, id, engine, kWidth);
            ppml::MlpRunner runner(spec, kWidth);
            runner.forward(sc, ch, x);
            if (id == 0)
                stats = runner.layerStats();
        };
    };
    net::runTwoParty(party(0), party(1));

    bool saw_relu = false;
    for (const ppml::MlpLayerStat &st : stats) {
        if (st.label.rfind("relu", 0) != 0)
            continue;
        saw_relu = true;
        // MEASURED interaction batches, not an analytic constant.
        EXPECT_EQ(st.rounds, ppml::reluRounds(kWidth));
        EXPECT_EQ(st.cots, spec.reluElements() *
                               (2 * ppml::dreluAndGates(kWidth) + 2));
    }
    EXPECT_TRUE(saw_relu);
    // The acceptance bound: width-32 DReLU+MUX in <= 8 rounds.
    EXPECT_LE(ppml::reluRounds(kWidth), 8u);
}

// ---------------------------------------------------------------------------
// Streaming commits: bit-identity + window mechanics
// ---------------------------------------------------------------------------

TEST(RoundChainTest, StreamingServedMatchesGroupedReference)
{
    ServedStack stack;

    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-16x8x4");
    constexpr unsigned kWidth = 32;
    constexpr uint16_t kDepth = 2;
    constexpr int kCount = 6;
    const auto reqs = makeRequests(spec, 1, kCount);

    // Depth 2 commits groups {0,1}, {2,3}, {4,5}, so the reference is
    // one local session evaluating those three grouped requests in
    // order.
    std::vector<std::vector<int64_t>> grouped_reqs;
    for (int g = 0; g < kCount; g += kDepth)
        grouped_reqs.push_back(concatRequests(reqs, g, kDepth));
    const ppml::LocalMlpResult grouped = ppml::runLocalMlpInference(
        spec, kWidth, grouped_reqs, kShareSeed, kSetupSeed,
        ot::tinyTestParams());
    const size_t req_out = spec.outputDim();

    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = kWidth;
    opt.batch = 1;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    opt.depth = kDepth;
    auto client = stack.dial(opt);
    ASSERT_EQ(client->negotiatedDepth(), kDepth);

    std::vector<uint32_t> tags;
    for (int r = 0; r < kCount; ++r)
        tags.push_back(client->submit(reqs[r]));
    // Submissions stream AHEAD of the window: after 6 submissions two
    // groups committed ({0,1} at the 4th, {2,3} at the 6th) and {4,5}
    // is still pending.
    EXPECT_EQ(client->inFlight(), size_t(kDepth));

    const auto results = client->drain();
    ASSERT_EQ(results.size(), size_t(kCount));
    for (int r = 0; r < kCount; ++r) {
        EXPECT_EQ(results[r].tag, tags[r]);
        const auto &group_out = grouped.outputs[r / kDepth];
        const size_t off = size_t(r % kDepth) * req_out;
        EXPECT_EQ(results[r].outputs,
                  std::vector<int64_t>(group_out.begin() + off,
                                       group_out.begin() + off + req_out))
            << "streaming request " << r;
    }
    client->close();
}

// ---------------------------------------------------------------------------
// Malformed streaming commits
// ---------------------------------------------------------------------------

TEST(RoundChainTest, MalformedStreamingCommitsKillSessionNotServer)
{
    InferServer::Config cfg;
    cfg.maxDepth = 2;
    ServedStack stack(cfg);
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-4x3x2");

    // A hand-rolled streaming session that reaches the op loop: a
    // hello naming two live COT sessions of this peer, then misbehave.
    // Fresh COT sessions per raw session: a session end drops its
    // sids from the stock.
    struct RawSession
    {
        std::unique_ptr<svc::CotClient> sendCot, recvCot;
        std::unique_ptr<net::SocketChannel> ch;
    };
    uint64_t cot_seed = kSetupSeed;
    auto openStreaming = [&]() {
        RawSession s;
        std::tie(s.sendCot, s.recvCot) = stack.cotSessions(cot_seed += 2);
        s.ch = net::tcpConnect("127.0.0.1", stack.port);
        InferHello h;
        h.modelId = spec.id;
        h.width = 8;
        h.batch = 1;
        h.sendSessionId = s.sendCot->sessionId();
        h.recvSessionId = s.recvCot->sessionId();
        h.depth = 2;
        sendInferHello(*s.ch, h);
        const InferAccept a = recvInferAccept(*s.ch);
        EXPECT_EQ(a.status, InferStatus::Ok);
        return s;
    };
    const std::vector<uint64_t> x(spec.inputDim(), 1);
    auto sendFrame = [&](net::SocketChannel &ch, uint32_t tag) {
        sendInferOp(ch, InferOp::Infer);
        sendInferTag(ch, tag);
        sendShareVectorPacked(ch, x.data(), x.size(), 8);
    };
    // The server must reject WITHOUT answering: the next read sees a
    // dead session, never a response tag.
    auto expectSessionDied = [](RawSession &s, const char *what) {
        try {
            s.ch->flush();
            (void)recvInferTag(*s.ch);
            ADD_FAILURE() << what << ": server answered a bad commit";
        } catch (const std::exception &) {
            // Dropped, as required.
        }
    };

    {
        // Commit count 0: meaningless — nothing-pending is expressed
        // by not committing.
        RawSession s = openStreaming();
        sendInferOp(*s.ch, InferOp::Commit);
        sendCommitCount(*s.ch, 0);
        expectSessionDied(s, "count zero");
    }
    {
        // Commit count beyond what was enqueued.
        RawSession s = openStreaming();
        sendFrame(*s.ch, 1);
        sendInferOp(*s.ch, InferOp::Commit);
        sendCommitCount(*s.ch, 2);
        expectSessionDied(s, "count beyond pending");
    }
    {
        // Frame flood past the streaming window (2 x depth = 4).
        RawSession s = openStreaming();
        try {
            for (uint32_t r = 0; r < 5; ++r)
                sendFrame(*s.ch, r);
        } catch (const std::exception &) {
            // The server may hang up mid-flood; also a pass.
        }
        expectSessionDied(s, "window flood");
    }

    // The server still serves a well-formed streaming session.
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
        spec, 8, {concatRequests(reqs, 0, 2)}, kShareSeed, kSetupSeed,
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
    EXPECT_GE(stack.server.sessionsServed(), 1u);
}

// ---------------------------------------------------------------------------
// Depth auto-tune
// ---------------------------------------------------------------------------

TEST(RoundChainTest, AutoDepthScalesWithMeasuredRtt)
{
    ServedStack stack; // maxDepth 32: the negotiated ceiling
    const MlpModelSpec &spec = *ppml::findMlpModel("mlp-16x8x4");

    InferClient::Options opt;
    opt.modelId = spec.id;
    opt.width = 32;
    opt.batch = 1;
    opt.setupSeed = kSetupSeed;
    opt.shareSeed = kShareSeed;
    opt.depthAuto = true;
    opt.depthBudgetUs = 2000; // wide margins for a noisy CI box

    // Fast link: loopback RTT against a 2 ms budget tunes shallow.
    auto lan = stack.dial(opt);
    const uint16_t lan_depth = lan->negotiatedDepth();
    EXPECT_GE(lan_depth, 1u);
    // 7 rounds/group at w32: hitting 32 would need a ~9 ms
    // loopback handshake.
    EXPECT_LT(lan_depth, 32u);
    lan->infer(makeRequests(spec, 1, 1)[0]); // sane session end to end
    lan->close();

    // Simulated WAN: >= 40 ms of injected RTT pins the ceiling.
    opt.simulatedDelayUs = 20000;
    opt.shareSeed = kShareSeed + 1;
    auto wan = stack.dial(opt);
    EXPECT_GE(wan->measuredRttUs(), 20000u);
    const uint16_t wan_depth = wan->negotiatedDepth();
    EXPECT_EQ(wan_depth, 32u);
    EXPECT_GT(wan_depth, lan_depth);
    wan->close();
}

} // namespace
} // namespace ironman::infer
