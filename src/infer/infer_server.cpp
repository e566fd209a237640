#include "infer/infer_server.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "net/wire_error.h"
#include "ppml/mlp_runner.h"
#include "ppml/secure_compute.h"

namespace ironman::infer {

namespace {

/**
 * Online-phase telemetry, summed across sessions. The histograms are
 * the serving-quality surface: commit latency is the server-side share
 * of the client's submit->collect time, group size and window
 * occupancy say how well pipelining is actually filling the negotiated
 * depth. The rounds/COTs/bytes counters aggregate MlpLayerStat totals
 * per forward — the live mirror of the bench-only StatSet breakdown.
 */
struct InferMetrics {
    metrics::Counter &requests =
        metrics::counter("infer_requests_total");
    metrics::Counter &images = metrics::counter("infer_images_total");
    metrics::Counter &cots = metrics::counter("infer_cots_total");
    metrics::Counter &rounds = metrics::counter("infer_rounds_total");
    metrics::Counter &onlineBytes =
        metrics::counter("infer_online_bytes_total");
    metrics::Histogram &commitUs =
        metrics::histogram("infer_commit_latency_us");
    metrics::Histogram &groupSize =
        metrics::histogram("infer_commit_group_size");
    metrics::Histogram &windowOccupancy =
        metrics::histogram("infer_window_occupancy");
};

InferMetrics &
inferMetrics()
{
    static InferMetrics m;
    return m;
}

} // namespace

InferServer::InferServer(Config cfg)
    : cfg_(cfg), server_(cfg.maxSessions)
{
    IRONMAN_CHECK(cfg_.maxBatch > 0, "need a nonzero batch bound");
    server_.setMetricsPrefix("infer");
    inferMetrics(); // register handles before any session traffic
    server_.setHandler([this](net::SocketChannel &ch, uint64_t sid) {
        serveSession(ch, sid);
    });
    server_.setSessionRecvTimeout(cfg_.sessionRecvTimeoutMs);
    server_.setSessionSendTimeout(cfg_.sessionSendTimeoutMs);
    server_.setIdleTimeout(cfg_.idleTimeoutMs);
}

InferServer::~InferServer()
{
    stop();
}

void
InferServer::attachOperatorStock(svc::OperatorStock &stock)
{
    IRONMAN_CHECK(!server_.listening(),
                  "attach the operator stock before listening");
    stock_ = &stock;
}

uint16_t
InferServer::listenTcp(uint16_t port)
{
    return server_.listenTcp(port);
}

void
InferServer::listenUnix(const std::string &path)
{
    server_.listenUnix(path);
}

void
InferServer::stop()
{
    // Retire the stock first: sessions parked in a stock wait (a dead
    // client's reservoir stops producing) unwind alongside the ones
    // the skeleton wakes by shutting their sockets down.
    if (stock_ && server_.listening())
        stock_->shutdown();
    server_.stop();
}

bool
InferServer::drain(uint64_t timeout_ms)
{
    // Opposite order from stop(): in-flight sessions must keep drawing
    // from the stock until their committed work is answered. drain()
    // has already force-closed any straggler by the time the stock is
    // retired, so nothing can park in a stock wait afterwards.
    const bool clean = server_.drain(timeout_ms);
    if (stock_)
        stock_->shutdown();
    return clean;
}

size_t
InferServer::activeSessions() const
{
    return server_.activeSessions();
}

void
InferServer::serveSession(net::SocketChannel &ch, uint64_t sid)
{
    try {
        if (cfg_.simulatedBandwidthBps > 0)
            ch.setSimulatedBandwidth(cfg_.simulatedBandwidthBps);
        InferHello hello;
        InferStatus st = recvInferHello(ch, &hello);
        trace::note("hello", uint32_t(st));
        // Policy on top of the structural checks.
        if (st == InferStatus::Ok && hello.batch > cfg_.maxBatch)
            st = InferStatus::BadBatch;
        if (st == InferStatus::Ok && !stock_)
            st = InferStatus::BadSupply;
        if (st == InferStatus::Ok) {
            // The named COT sessions must exist, be live, and belong
            // to the peer making this request — a foreign sid would
            // let one client consume (and on exit drop) another's
            // correlations. Address-level granularity, like the
            // quotas; recorded before the owner could read its
            // Accept, so a race cannot admit a thief first.
            const std::string peer = ch.peerAddress();
            if (stock_->peerOf(hello.sendSessionId) != peer ||
                stock_->peerOf(hello.recvSessionId) != peer)
                st = InferStatus::ForeignSession;
        }
        // Negotiate: clamp the requested depth to this server's bound
        // and echo the honored flags (recvInferHello already dropped
        // unknown bits). hello carries the NEGOTIATED values from
        // here on.
        const uint16_t bound =
            cfg_.maxDepth > 0 ? cfg_.maxDepth : uint16_t(1);
        if (hello.depth > bound)
            hello.depth = bound;
        InferAccept accept;
        accept.status = st;
        accept.sessionId = sid;
        accept.depth = hello.depth;
        accept.flags = hello.flags;
        if (hello.flags & kInferFlagTrace) {
            // Adopt the wire context for every span this session
            // thread records, and stamp the accept with our clock so
            // the client can estimate the cross-party offset from the
            // RTT midpoint it measures anyway.
            trace::setContext(hello.traceId, hello.traceSampled != 0);
            trace::setThreadLabel("infer-session");
            accept.serverClockUs = trace::nowUs();
        }
        sendInferAccept(ch, accept);
        ch.flush();
        trace::note("accept", uint32_t(st));
        if (st == InferStatus::Ok) {
            runSession(ch, sid, hello);
            served.fetch_add(1, std::memory_order_relaxed);
        } else {
            rejected.fetch_add(1, std::memory_order_relaxed);
        }
    } catch (const net::WireError &e) {
        // A dying client must not take the server down. Classify the
        // fault here (the skeleton never sees this exception) and dump
        // the flight ring — the last opcodes before the unwind are the
        // forensic record a chaos run asserts on.
        server_.metrics().noteFailure(e.fault());
        trace::dumpSession(net::wireFaultName(e.fault()));
        IRONMAN_WARN("infer session %llu aborted (%s): %s",
                     (unsigned long long)sid,
                     net::wireFaultName(e.fault()), e.what());
    } catch (const std::exception &e) {
        server_.metrics().noteFailure(net::WireFault::Fatal);
        trace::dumpSession("exception");
        IRONMAN_WARN("infer session %llu aborted: %s",
                     (unsigned long long)sid, e.what());
    }
}

void
InferServer::runSession(net::SocketChannel &ch, uint64_t sid,
                        const InferHello &hello)
{
    const ppml::MlpModelSpec &spec = *ppml::findMlpModel(hello.modelId);
    const unsigned width = hello.width;

    // The stock sids are named from the CLIENT's perspective: the
    // client's Receiver-role session is the one where THIS party holds
    // (delta, q) — our send direction.
    svc::OperatorCotSupply supply(*stock_, hello.recvSessionId,
                                  hello.sendSessionId);

    // Free the session's banked halves promptly on every exit path;
    // the COT service's session-end sink is the backstop for hellos
    // that never reach this point.
    struct StockGuard
    {
        svc::OperatorStock &stock;
        uint64_t a, b;
        ~StockGuard()
        {
            stock.drop(a);
            stock.drop(b);
        }
    } guard{*stock_, hello.sendSessionId, hello.recvSessionId};

    ppml::SecureCompute sc(ch, 1, supply, width);
    ppml::MlpRunner runner(spec, width);

    const size_t req_in = size_t(hello.batch) * spec.inputDim();
    const size_t req_out = size_t(hello.batch) * spec.outputDim();
    InferMetrics &im = inferMetrics();
    auto account = [&, cots_counted = size_t(0)](size_t reqs) mutable {
        requests.fetch_add(reqs, std::memory_order_relaxed);
        images.fetch_add(uint64_t(reqs) * hello.batch,
                         std::memory_order_relaxed);
        // Per commit, not at Close: an aborted session must not leave
        // its consumption uncounted next to counted images.
        const uint64_t consumed = sc.cotsConsumed() - cots_counted;
        cots.fetch_add(consumed, std::memory_order_relaxed);
        cots_counted = sc.cotsConsumed();
        im.requests.inc(reqs);
        im.images.inc(uint64_t(reqs) * hello.batch);
        im.cots.inc(consumed);
        // Live mirror of the bench-only StatSet breakdown: totals of
        // the last forward's per-layer rows (a short fixed vector — no
        // allocation on the warm path).
        for (const ppml::MlpLayerStat &ls : runner.layerStats()) {
            im.rounds.inc(ls.rounds);
            im.onlineBytes.inc(ls.bytes);
        }
    };

    // Tagged requests enqueue up to twice the negotiated depth; Commit
    // names how many of the OLDEST pending requests form its group and
    // evaluates them as ONE forward (effective batch = group * batch —
    // same lockstep call the client makes), then answers per request
    // in submission order. The doubled recv-ahead lets the NEXT
    // group's Infer frames cross the wire (and enqueue here) while the
    // current group's forward evaluates — overlap the
    // PipeliningSimulator occupancy model says a fill/drain loop
    // leaves on the table.
    const size_t recvAhead = 2 * size_t(hello.depth);
    const bool traced = (hello.flags & kInferFlagTrace) != 0;
    const uint64_t sess_t0_us = trace::nowUs();
    std::vector<uint32_t> tags;
    std::vector<uint64_t> x1cat; // pending inputs, concatenated
    tags.reserve(recvAhead);
    x1cat.reserve(recvAhead * req_in);
    for (;;) {
        const InferOp op = recvInferOp(ch);
        trace::note("op", uint32_t(op));
        if (op == InferOp::Infer) {
            if (tags.size() >= recvAhead)
                throw net::WireError(
                    net::WireFault::Protocol,
                    "infer session: in-flight depth exceeded");
            tags.push_back(recvInferTag(ch));
            x1cat.resize(x1cat.size() + req_in);
            recvShareVectorPacked(ch, x1cat.data() + x1cat.size() - req_in,
                                  req_in, width);
            trace::note("infer", tags.back(), req_in * sizeof(uint64_t));
        } else if (op == InferOp::Commit) {
            const size_t group = recvCommitCount(ch);
            if (group == 0 || group > tags.size())
                throw net::WireError(net::WireFault::Protocol,
                                     "infer session: bad commit count");
            const uint64_t t0_us = metrics::nowUs();
            // Occupancy at commit time: how much of the negotiated
            // window the client actually keeps in flight.
            im.windowOccupancy.record(tags.size());
            trace::Span commit_span("commit", "infer",
                                    uint32_t(group));
            const std::vector<uint64_t> xgroup(
                x1cat.begin(), x1cat.begin() + group * req_in);
            const std::vector<uint64_t> y1cat =
                runner.forward(sc, ch, xgroup);
            for (size_t r = 0; r < group; ++r) {
                sendInferTag(ch, tags[r]);
                sendShareVectorPacked(ch, y1cat.data() + r * req_out,
                                      req_out, width);
            }
            ch.flush();
            commit_span.setArg(group * req_out * sizeof(uint64_t));
            trace::note("commit", uint32_t(group),
                        group * req_out * sizeof(uint64_t));
            im.commitUs.recordSinceUs(t0_us);
            im.groupSize.record(group);
            account(group);
            tags.erase(tags.begin(), tags.begin() + group);
            x1cat.erase(x1cat.begin(),
                        x1cat.begin() + group * req_in);
        } else {
            break;
        }
    }
    if (traced && trace::enabled()) {
        // The session closed voluntarily: publish its timeline as the
        // endpoint's "most recent completed session" document.
        trace::emitSpan("session", "infer", sess_t0_us,
                        trace::nowUs() - sess_t0_us, uint32_t(sid));
        trace::retainExport();
    }
}

} // namespace ironman::infer
