/**
 * @file
 * Cross-party request tracing (common/trace.h + the kInferFlagTrace
 * handshake extension) and its guardrails:
 *
 *  - wire negotiation matrix: a hello with the trace flag carries
 *    the 64-bit id + sampled bit and the accept returns the server
 *    clock sample; flagless peers exchange byte-identical transcripts
 *    with no trailers (extended invariant 17);
 *  - negotiation over loopback: the flag yields a generated or
 *    explicit id and an RTT-bounded clock offset (fuzzed ids are
 *    cells of test_infer's bit-identity grid: they change no output
 *    bit and never kill the server);
 *  - recording on/off does not change online wire bytes for the same
 *    request stream;
 *  - the Chrome-trace export is structurally sound: spans nest
 *    (inner [ts, ts+dur] inside outer), instants carry thread scope,
 *    and the client's submit->reconstruct request span encloses the
 *    server-side layer spans once merged on the handshake offset;
 *  - the session tier (the flight recorder) keeps each session's last
 *    notes whether or not tracing is on, never shows an earlier
 *    session of a reused ring, and dumps every open session while
 *    its owner keeps recording.
 *
 * The export's JSON well-formedness is additionally validated by the
 * CI traced-loopback smoke with `python3 -m json.tool`.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "infer/wire.h"
#include "net/channel.h"
#include "ppml/model_zoo.h"
#include "served_stack.h"

namespace ironman::infer {
namespace {

constexpr uint64_t kShareSeed = 0x517a9e;
constexpr uint64_t kSetupSeed = 4242;

// ---------------------------------------------------------------------------
// Wire negotiation matrix
// ---------------------------------------------------------------------------

TEST(TraceWireTest, HelloCarriesTraceContext)
{
    net::MemoryDuplex duplex;
    InferHello h;
    h.modelId = ppml::inferenceZoo().front().id;
    h.width = 32;
    h.batch = 1;
    h.sendSessionId = 1;
    h.recvSessionId = 2;
    h.flags = kInferFlagTrace;
    h.traceId = 0xabcdef0123456789ULL;
    h.traceSampled = 0;
    sendInferHello(duplex.a(), h);

    InferHello got;
    ASSERT_EQ(recvInferHello(duplex.b(), &got), InferStatus::Ok);
    EXPECT_EQ(got.flags, kInferFlagTrace);
    EXPECT_EQ(got.traceId, h.traceId);
    EXPECT_EQ(got.traceSampled, 0);

    InferAccept reply;
    reply.status = InferStatus::Ok;
    reply.depth = 1;
    reply.flags = kInferFlagTrace;
    reply.sessionId = 7;
    reply.serverClockUs = 123456789;
    sendInferAccept(duplex.b(), reply);
    const InferAccept a = recvInferAccept(duplex.a());
    EXPECT_EQ(a.flags, kInferFlagTrace);
    EXPECT_EQ(a.serverClockUs, 123456789u);
}

TEST(TraceWireTest, FlaglessHelloHasNoTrailer)
{
    // Extended invariant 17: without the negotiated bit, the trace
    // fields leave NO trace on the wire — a flagless hello is
    // byte-identical whether or not the struct carries an id.
    auto helloBytes = [](uint64_t trace_id, uint16_t flags) {
        net::MemoryDuplex duplex;
        InferHello h;
        h.modelId = ppml::inferenceZoo().front().id;
        h.width = 32;
        h.batch = 1;
        h.sendSessionId = 1;
        h.recvSessionId = 2;
        h.flags = flags;
        h.traceId = trace_id;
        sendInferHello(duplex.a(), h);
        return duplex.a().bytesSent();
    };
    EXPECT_EQ(helloBytes(0, 0), helloBytes(~uint64_t(0), 0));
    // And the flagged hello is strictly longer: the trailer exists
    // only when negotiated.
    EXPECT_GT(helloBytes(1, kInferFlagTrace), helloBytes(1, 0));
}

TEST(TraceWireTest, FlaglessAcceptHasNoClockTrailer)
{
    auto acceptBytes = [](uint16_t flags) {
        net::MemoryDuplex duplex;
        InferAccept a;
        a.status = InferStatus::Ok;
        a.depth = 1;
        a.flags = flags;
        a.sessionId = 1;
        a.serverClockUs = 0xdeadbeef;
        sendInferAccept(duplex.a(), a);
        return duplex.a().bytesSent();
    };
    EXPECT_GT(acceptBytes(kInferFlagTrace), acceptBytes(0));
}

// ---------------------------------------------------------------------------
// Service negotiation + recording parity
// ---------------------------------------------------------------------------

TEST(TraceServiceTest, NegotiationMatrixOverLoopback)
{
    ServedStack stack;
    InferClient::Options opt =
        ServedCell{.model = "mlp-16x8x4", .width = 32, .setupSeed = kSetupSeed}
            .options();

    {
        // No trace flag: nothing negotiated.
        auto c = stack.dial(opt);
        EXPECT_FALSE(c->traceNegotiated());
        EXPECT_EQ(c->traceId(), 0u);
        c->close();
    }
    {
        // Trace flag: id generated, server clock echoed, offset
        // measured. Loopback + one shared steady clock => the offset
        // is bounded by the RTT, not by wall-clock skew.
        opt.traceWire = true;
        auto c = stack.dial(opt);
        EXPECT_TRUE(c->traceNegotiated());
        EXPECT_NE(c->traceId(), 0u);
        EXPECT_LE(std::llabs((long long)c->peerClockOffsetUs()),
                  (long long)c->measuredRttUs() + 1000);
        c->close();
    }
    {
        // Explicit id propagates verbatim.
        opt.traceId = 0x5ca1ab1e;
        auto c = stack.dial(opt);
        EXPECT_TRUE(c->traceNegotiated());
        EXPECT_EQ(c->traceId(), 0x5ca1ab1eULL);
        c->close();
    }
    stack.stop();
    EXPECT_EQ(stack.server.sessionsServed(), 3u);
}

TEST(TraceServiceTest, RecordingOnOffKeepsWireBytesIdentical)
{
    const ServedCell cell{.model = "mlp-12x6x3", .width = 32,
                          .setupSeed = kSetupSeed, .shareSeed = kShareSeed,
                          .firstInput = 42, .traceWire = true};
    const std::vector<int64_t> req = cell.inputs()[0];

    auto runOnce = [&](bool record) {
        trace::resetForTest();
        trace::setEnabled(record);
        ServedStack stack;
        auto c = stack.dial(cell.options());
        (void)c->infer(req);
        const uint64_t online = c->onlineBytesSent();
        c->close();
        return online;
    };
    const uint64_t bytes_recording = runOnce(true);
    const uint64_t bytes_off = runOnce(false);
    trace::setEnabled(false);
    EXPECT_GT(bytes_off, 0u);
    // Exact wire-byte parity: recording is a local ring write, never
    // a protocol participant.
    EXPECT_EQ(bytes_recording, bytes_off);
}

// ---------------------------------------------------------------------------
// Export structure
// ---------------------------------------------------------------------------

/** First `"key":<num>` after @p from in @p doc (-1 when absent). */
long long
jsonNum(const std::string &doc, const std::string &key, size_t from)
{
    const std::string needle = "\"" + key + "\":";
    const size_t pos = doc.find(needle, from);
    if (pos == std::string::npos)
        return -1;
    return std::atoll(doc.c_str() + pos + needle.size());
}

TEST(TraceExportTest, SpansNestAndDocumentIsStructured)
{
    trace::resetForTest();
    trace::setEnabled(true);
    trace::setParty(0);
    trace::setContext(0x77, true);
    trace::setThreadLabel("test-thread");
    {
        trace::Span outer("outer_span", "test", 1, 100);
        {
            trace::Span inner("inner_span", "test", 2, 50);
            trace::instant("marker", "test", 3, 7);
        }
    }
    const std::string doc = trace::exportChromeTrace();
    trace::setEnabled(false);

    // Structural frame.
    EXPECT_EQ(doc.find("{\n\"traceEvents\":[\n"), 0u) << doc;
    EXPECT_NE(doc.find("\"schema\":\"ironman.trace.v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"test-thread\""), std::string::npos);
    EXPECT_NE(doc.find("\"ironman party 0\""), std::string::npos);

    // The instant is thread-scoped and tagged.
    const size_t marker = doc.find("\"name\":\"marker\"");
    ASSERT_NE(marker, std::string::npos) << doc;
    EXPECT_NE(doc.find("\"s\":\"t\"", marker), std::string::npos);

    // The propagated context rides every event.
    EXPECT_NE(doc.find("\"trace_id\":\"0000000000000077\""),
              std::string::npos)
        << doc;

    // Nesting: inner's [ts, ts+dur] lies within outer's.
    const size_t o = doc.find("\"name\":\"outer_span\"");
    const size_t i = doc.find("\"name\":\"inner_span\"");
    ASSERT_NE(o, std::string::npos);
    ASSERT_NE(i, std::string::npos);
    const long long o_ts = jsonNum(doc, "ts", o);
    const long long o_dur = jsonNum(doc, "dur", o);
    const long long i_ts = jsonNum(doc, "ts", i);
    const long long i_dur = jsonNum(doc, "dur", i);
    ASSERT_GE(o_ts, 0);
    ASSERT_GE(i_ts, 0);
    EXPECT_LE(o_ts, i_ts);
    EXPECT_GE(o_ts + o_dur, i_ts + i_dur);
}

TEST(TraceExportTest, ServedSessionRetainsMergeableTimeline)
{
    // One traced loopback request, recording on: the client's
    // "request" span must enclose the server's per-layer spans once
    // both rings land in the same process-wide export (loopback: one
    // clock, offset ~0).
    trace::resetForTest();
    trace::setEnabled(true);
    trace::setParty(0);

    const ServedCell cell{.model = "mlp-16x8x4", .width = 32,
                          .setupSeed = kSetupSeed, .firstInput = 7,
                          .traceWire = true};
    ServedStack stack;
    auto c = stack.dial(cell.options());
    (void)c->infer(cell.inputs()[0]);
    c->close();
    stack.stop();

    const std::string doc = trace::exportChromeTrace();
    trace::setEnabled(false);

    const size_t req = doc.find("\"name\":\"request\"");
    const size_t dense = doc.find("\"name\":\"dense0\"");
    const size_t relu = doc.find("\"name\":\"relu0\"");
    ASSERT_NE(req, std::string::npos) << doc;
    ASSERT_NE(dense, std::string::npos) << doc;
    ASSERT_NE(relu, std::string::npos) << doc;
    const long long req_ts = jsonNum(doc, "ts", req);
    const long long req_dur = jsonNum(doc, "dur", req);
    const long long dense_ts = jsonNum(doc, "ts", dense);
    const long long dense_dur = jsonNum(doc, "dur", dense);
    // Client request span encloses the server's layer work.
    EXPECT_LE(req_ts, dense_ts);
    EXPECT_GE(req_ts + req_dur, dense_ts + dense_dur);

    // The retained per-session export (the /trace endpoint body)
    // contains the server-side session span.
    const std::string retained = trace::lastRetainedExport();
    EXPECT_NE(retained.find("\"name\":\"session\""),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Session tier (the flight recorder)
// ---------------------------------------------------------------------------

bool
contains(const std::string &text, const std::string &needle)
{
    return text.find(needle) != std::string::npos;
}

TEST(TraceSessionTest, RingKeepsOnlyTheLastEvents)
{
    trace::SessionScope scope(5);
    for (uint32_t i = 0; i < trace::kSessionEvents + 10; ++i)
        trace::note("event", i, i * 2);
    trace::dumpSession("test");

    const std::string text = trace::lastDump();
    EXPECT_TRUE(contains(text, "last 64/74 events")) << text;
    // The oldest surviving event is exactly 10 notes in.
    EXPECT_FALSE(contains(text, "tag=9 ")) << text;
    EXPECT_TRUE(contains(text, "tag=10 ")) << text;
    EXPECT_TRUE(contains(
        text, "tag=" + std::to_string(trace::kSessionEvents + 9)))
        << text;
}

TEST(TraceSessionTest, DumpStoresForensicRecord)
{
    const uint64_t before = metrics::Registry::instance().counterValue(
        "net_flight_dumps_total");
    trace::SessionScope scope(77);
    trace::note("hello", 0);
    trace::note("extend", 3, 4096);
    trace::dumpSession("deadline");

    const std::string dump = trace::lastDump();
    EXPECT_TRUE(contains(dump, "session 77")) << dump;
    EXPECT_TRUE(contains(dump, "deadline"));
    EXPECT_TRUE(contains(dump, "hello"));
    EXPECT_TRUE(contains(dump, "extend"));
    EXPECT_TRUE(contains(dump, "bytes=4096"));
    EXPECT_EQ(metrics::Registry::instance().counterValue(
                  "net_flight_dumps_total"),
              before + 1);
}

TEST(TraceSessionTest, DumpAllRendersEveryOpenSession)
{
    // Rings are per thread: session 202 lives on a second thread that
    // keeps its scope open until the dumps are done.
    std::promise<void> noted, release;
    std::future<void> noted_f = noted.get_future();
    std::future<void> release_f = release.get_future();
    std::thread other([&] {
        trace::SessionScope scope(202);
        trace::note("beta", 2, 64);
        noted.set_value();
        release_f.wait();
    });
    noted_f.wait();
    trace::SessionScope scope(101);
    trace::note("alpha", 1);

    const std::string all = trace::dumpAllSessions("SIGUSR1");
    EXPECT_TRUE(contains(all, "on-demand dump (SIGUSR1)")) << all;
    EXPECT_TRUE(contains(all, "session 101"));
    EXPECT_TRUE(contains(all, "session 202"));
    EXPECT_TRUE(contains(all, "alpha"));
    EXPECT_TRUE(contains(all, "beta"));
    // Retained: the /flight endpoint serves the same text.
    EXPECT_EQ(trace::lastDump(), all);

    // The owner can keep recording while another thread dumps.
    std::thread dumper([] {
        for (int i = 0; i < 8; ++i)
            (void)trace::dumpAllSessions("race");
    });
    for (uint32_t i = 0; i < 5000; ++i)
        trace::note("spin", i, i);
    dumper.join();
    release.set_value();
    other.join();
}

TEST(TraceSessionTest, NotesLandWhenTracingIsOffOrUnsampled)
{
    trace::setEnabled(false);
    trace::SessionScope scope(9);
    trace::note("off_note", 1);
    trace::setEnabled(true);
    trace::setContext(0x99, /*sampled=*/false);
    trace::note("unsampled_note", 2);
    // The span tier keeps its sampled gate.
    trace::instant("muted_instant", "test");
    trace::setContext(0, true);
    trace::setEnabled(false);

    trace::dumpSession("check");
    const std::string dump = trace::lastDump();
    EXPECT_TRUE(contains(dump, "last 2/2 events")) << dump;
    EXPECT_TRUE(contains(dump, "off_note")) << dump;
    EXPECT_TRUE(contains(dump, "unsampled_note")) << dump;

    // Notes export as thread-scoped instants in cat "session".
    const std::string doc = trace::exportChromeTrace();
    EXPECT_TRUE(contains(doc, "\"ph\":\"i\",\"name\":\"unsampled_note\","
                              "\"cat\":\"session\""))
        << doc;
    EXPECT_FALSE(contains(doc, "muted_instant"));
}

TEST(TraceSessionTest, ReusedRingShowsOnlyItsOwnSession)
{
    std::thread first([] {
        trace::SessionScope scope(1);
        trace::note("stale", 1);
    });
    first.join();
    std::string dump;
    std::thread second([&] {
        trace::SessionScope scope(2);
        trace::note("fresh", 2);
        trace::dumpSession("reuse");
        dump = trace::lastDump();
    });
    second.join();

    // The second thread really took over the first one's ring ...
    const std::string doc = trace::exportChromeTrace();
    const size_t stale = doc.find("\"name\":\"stale\"");
    const size_t fresh = doc.find("\"name\":\"fresh\"");
    ASSERT_NE(stale, std::string::npos) << doc;
    ASSERT_NE(fresh, std::string::npos) << doc;
    EXPECT_EQ(jsonNum(doc, "tid", stale), jsonNum(doc, "tid", fresh));
    // ... yet its dump shows only its own session.
    EXPECT_TRUE(contains(dump, "session 2 ")) << dump;
    EXPECT_TRUE(contains(dump, "fresh")) << dump;
    EXPECT_FALSE(contains(dump, "stale")) << dump;
}

TEST(TraceSessionTest, ClosedScopeLeavesDumpAll)
{
    {
        trace::SessionScope scope(4242);
        trace::note("open", 1);
        EXPECT_TRUE(
            contains(trace::dumpAllSessions("open"), "session 4242"));
    }
    EXPECT_FALSE(
        contains(trace::dumpAllSessions("closed"), "session 4242"));
}

} // namespace
} // namespace ironman::infer
