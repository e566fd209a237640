#include "infer/infer_client.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "net/wire_error.h"

namespace ironman::infer {

namespace {

/** Client-side request latency (submit -> reconstruction). */
metrics::Histogram &
requestLatency()
{
    static metrics::Histogram &h =
        metrics::histogram("infer_client_request_latency_us");
    return h;
}

const ppml::MlpModelSpec &
specOrThrow(uint32_t model_id)
{
    const ppml::MlpModelSpec *spec = ppml::findMlpModel(model_id);
    if (!spec)
        throw std::runtime_error("InferClient: unknown model id " +
                                 std::to_string(model_id));
    return *spec;
}

/** COT-session options of one role; the seeds derive from setupSeed. */
svc::CotClient::Options
cotOptions(const InferClient::Options &opt, svc::Role role)
{
    svc::CotClient::Options o;
    o.role = role;
    o.setupSeed = opt.setupSeed * 2 + (role == svc::Role::Sender ? 1 : 2);
    return o;
}

} // namespace

InferClient::InferClient(std::string host, uint16_t port,
                         std::string cot_host, uint16_t cot_port,
                         Options opt, ChannelDialer dial_channel)
    : opt_(std::move(opt)), spec_(specOrThrow(opt_.modelId)),
      host_(std::move(host)), port_(port), cotHost_(std::move(cot_host)),
      cotPort_(cot_port), dialChannel_(std::move(dial_channel)),
      shareRng(opt_.shareSeed)
{
    dial(/*redial=*/false, {});
}

std::unique_ptr<InferClient>
InferClient::connectTcpReservoir(const std::string &host, uint16_t port,
                                 const std::string &cot_host,
                                 uint16_t cot_port, Options opt)
{
    return std::unique_ptr<InferClient>(new InferClient(
        host, port, cot_host, cot_port, std::move(opt),
        [](const std::string &h, uint16_t p) {
            return net::tcpConnect(h, p);
        }));
}

void
InferClient::dial(bool redial, std::string cause)
{
    // One backoff schedule for both entry points: sleep slot s waits
    // RetryPolicy::backoffMs(s) (0 for s = 1) and is reported to the
    // hook as (s - 1, backoff, failure that led here). A redial starts
    // one slot in — the failure that brought it here is evidence the
    // daemon is down right now.
    const unsigned attempts =
        opt_.autoReconnect && opt_.retry.maxAttempts > 0
            ? opt_.retry.maxAttempts
            : 1u;
    for (unsigned attempt = 1;; ++attempt) {
        const unsigned slot = redial ? attempt + 1 : attempt;
        dropTransport();
        if (slot > 1 && opt_.retryHook)
            opt_.retryHook(slot - 1, opt_.retry.backoffMs(slot), cause);
        opt_.retry.sleepBefore(slot);
        try {
            // Same derived seeds on every dial: a restarted daemon
            // re-deals the same deterministic session bases, so the
            // fresh sessions are indistinguishable from first contact.
            sendSession = svc::CotClient::connectTcp(
                cotHost_, cotPort_, opt_.params,
                cotOptions(opt_, svc::Role::Sender));
            recvSession = svc::CotClient::connectTcp(
                cotHost_, cotPort_, opt_.params,
                cotOptions(opt_, svc::Role::Receiver));
            ch = dialChannel_(host_, port_);
            if (opt_.simulatedDelayUs > 0)
                ch->setSimulatedDelay(opt_.simulatedDelayUs);
            buildReservoirs();
            handshake();
            sc = std::make_unique<ppml::SecureCompute>(
                *ch, 0, *reservoirSupply, opt_.width);
            runner = std::make_unique<ppml::MlpRunner>(spec_, opt_.width);
            return;
        } catch (const net::WireError &e) {
            if (!e.retryable())
                throw;
            if (attempt >= attempts) {
                if (!redial)
                    throw;
                throw net::WireError(
                    net::WireFault::PeerClosed,
                    std::string("InferClient: reconnect budget "
                                "exhausted: ") +
                        e.what());
            }
            cause = e.what();
        }
    }
}

void
InferClient::dropTransport()
{
    // Stop stocking before anything it draws on goes away.
    if (sendRes)
        sendRes->stopRefill();
    if (recvRes)
        recvRes->stopRefill();
    sc.reset();
    runner.reset();
    reservoirSupply.reset();
    sendRes.reset();
    recvRes.reset();
    sendSession.reset();
    recvSession.reset();
    ch.reset();
}

void
InferClient::buildReservoirs()
{
    // Stock sized from the model's COT estimate: keep one commit
    // group's worth of correlations ahead per direction. Sized from
    // the REQUESTED depth (reservoirs exist before the handshake can
    // negotiate) — the server may clamp it, which only leaves the
    // stock oversized, never starved.
    const uint64_t group = std::max<uint16_t>(opt_.depth, 1);
    const uint64_t per_commit =
        spec_.cotsPerImage(opt_.width) * opt_.batch * group;
    const svc::Reservoir::Options res_opt =
        svc::Reservoir::Options::sizedFor(per_commit,
                                          sendSession->usableOts());
    sendRes = std::make_unique<svc::Reservoir>(*sendSession, res_opt);
    recvRes = std::make_unique<svc::Reservoir>(*recvSession, res_opt);
    reservoirSupply = std::make_unique<svc::ReservoirCotSupply>(
        *sendRes, *recvRes, sendSession->delta());
}

void
InferClient::handshake()
{
    // Validate locally before committing the server to a session (the
    // wire carries width as one byte, so an out-of-range width would
    // otherwise truncate into something the server might accept).
    if (!spec_.widthOk(opt_.width))
        throw std::runtime_error(
            "InferClient: width " + std::to_string(opt_.width) +
            " outside " + spec_.name + "'s range [" +
            std::to_string(spec_.minWidth) + ", " +
            std::to_string(spec_.maxWidth) + "]");
    InferHello h;
    h.modelId = opt_.modelId;
    h.width = uint8_t(opt_.width);
    h.batch = opt_.batch;
    h.sendSessionId = sendSession->sessionId();
    h.recvSessionId = recvSession->sessionId();
    h.depth = std::max<uint16_t>(opt_.depth, 1);
    h.flags = opt_.traceWire ? kInferFlagTrace : 0;
    if (opt_.traceWire) {
        // One id per dial (a reconnect is a new timeline segment);
        // both parties' spans correlate under it in the merged export.
        traceId_ = opt_.traceId ? opt_.traceId
                                : trace::newTraceId(opt_.setupSeed);
        h.traceId = traceId_;
        h.traceSampled = opt_.traceSampled ? 1 : 0;
    }
    // The hello/accept turnaround is the RTT probe and, with the trace
    // flag, the clock-offset probe: the server stamps the accept with
    // its own clock, and the RTT midpoint is our best estimate of
    // when that stamp was taken (Cristian). It rides every (re)dial.
    const uint64_t t0_us = trace::nowUs();
    sendInferHello(*ch, h);
    const InferAccept a = recvInferAccept(*ch);
    const uint64_t t1_us = trace::nowUs();
    rttUs_ = t1_us - t0_us;
    if (a.status != InferStatus::Ok)
        throw net::WireError(
            net::WireFault::Fatal,
            std::string("InferClient: server rejected hello: ") +
                inferStatusName(a.status));
    sid = a.sessionId;
    // Adopt the server's negotiation (it only ever clamps).
    depth_ = a.depth > 0 ? a.depth : uint16_t(1);
    traceOn_ = (a.flags & kInferFlagTrace) != 0;
    if (traceOn_) {
        clockOffsetUs_ =
            int64_t(a.serverClockUs) - int64_t((t0_us + t1_us) / 2);
        trace::setContext(traceId_, opt_.traceSampled);
        trace::setPeerClockOffsetUs(clockOffsetUs_);
        trace::instant("handshake", "infer", 0, rttUs_);
    } else {
        traceId_ = 0;
    }
}

InferClient::~InferClient()
{
    try {
        close();
    } catch (...) {
        // Teardown with a dead peer: nothing to do.
    }
}

bool
InferClient::canRecover(const std::exception &e) const
{
    return opt_.autoReconnect && !dead_ && net::isRetryable(e);
}

void
InferClient::reconnect(const std::string &cause)
{
    // Every pending request is uncommitted (the caller already failed
    // the group whose Commit was on the wire) and off the new wire;
    // pump() resends them from their STORED shares, so the share tape
    // (shareRng) stays consistent with an uninterrupted run.
    sent_ = 0;
    try {
        dial(/*redial=*/true, cause);
    } catch (const std::exception &e) {
        dead_ = true;
        dropTransport();
        failPendingFrom(0, pendingTags.size(), e.what());
        throw;
    }
    ++reconnectCount;
}

void
InferClient::dropOldest(size_t n)
{
    const size_t req_in = size_t(opt_.batch) * spec_.inputDim();
    pendingTags.erase(pendingTags.begin(), pendingTags.begin() + n);
    pendingX0.erase(pendingX0.begin(), pendingX0.begin() + n * req_in);
    pendingX1.erase(pendingX1.begin(), pendingX1.begin() + n * req_in);
    pendingT0Us.erase(pendingT0Us.begin(), pendingT0Us.begin() + n);
}

void
InferClient::failPendingFrom(size_t answered, size_t group,
                             const std::string &what)
{
    for (size_t r = answered; r < group; ++r) {
        Result failed;
        failed.tag = pendingTags[r];
        failed.ok = false;
        failed.error = what;
        ready.push_back(std::move(failed));
    }
    dropOldest(group);
}

std::vector<int64_t>
InferClient::infer(const std::vector<int64_t> &inputs)
{
    IRONMAN_CHECK(pendingTags.empty() && ready.empty(),
                  "infer() with pipelined submissions outstanding; use "
                  "collect()/drain()");
    submit(inputs);
    Result r = collect();
    if (!r.ok)
        throw net::WireError(net::WireFault::PeerClosed,
                             "InferClient: request failed: " + r.error);
    return std::move(r.outputs);
}

uint32_t
InferClient::submit(const std::vector<int64_t> &inputs)
{
    IRONMAN_CHECK(!closed, "submit() on a closed session");
    if (dead_)
        throw net::WireError(net::WireFault::Fatal,
                             "InferClient: session failed terminally");
    IRONMAN_CHECK(inputs.size() ==
                      size_t(opt_.batch) * spec_.inputDim(),
                  "inputs are batch * inputDim values");

    const uint32_t tag = nextTag++;
    pendingT0Us.push_back(metrics::nowUs());
    // The tape advances exactly once per submission, reconnect or not.
    ppml::shareMlpValues(shareRng, opt_.width, inputs, &x0, &x1);
    pendingTags.push_back(tag);
    pendingX0.insert(pendingX0.end(), x0.begin(), x0.end());
    pendingX1.insert(pendingX1.end(), x1.begin(), x1.end());
    pump();
    return tag;
}

void
InferClient::pump()
{
    // Keep the recv-ahead window primed: once two full groups are on
    // the wire, commit the OLDEST — its evaluation overlaps the
    // younger group's frames already crossing the wire. Grouping
    // boundaries fall every depth_ sends, so grouped references stay
    // valid; after a redial the same rule refills the new window.
    const size_t req_in = size_t(opt_.batch) * spec_.inputDim();
    for (;;) {
        if (sent_ >= 2 * size_t(depth_)) {
            commitOldest();
        } else if (sent_ < pendingTags.size()) {
            try {
                trace::Span submit_span("submit", "infer",
                                        pendingTags[sent_],
                                        req_in * sizeof(uint64_t));
                sendInferOp(*ch, InferOp::Infer);
                sendInferTag(*ch, pendingTags[sent_]);
                sendShareVectorPacked(*ch, pendingX1.data() + sent_ * req_in,
                                      req_in, opt_.width);
            } catch (const std::exception &e) {
                if (!canRecover(e))
                    throw;
                // No Commit covers this request yet, so it and every
                // other pending request are safe to send again.
                reconnect(e.what());
                continue;
            }
            ++sent_;
        } else {
            return;
        }
    }
}

void
InferClient::commitNext()
{
    pump();
    if (!pendingTags.empty())
        commitOldest();
}

void
InferClient::commitOldest()
{
    const size_t group = std::min(size_t(depth_), sent_);
    const size_t req_in = size_t(opt_.batch) * spec_.inputDim();
    const size_t req_out = size_t(opt_.batch) * spec_.outputDim();
    size_t answered = 0;
    try {
        trace::Span commit_span("commit_group", "infer",
                                uint32_t(group));
        sendInferOp(*ch, InferOp::Commit);
        sendCommitCount(*ch, uint16_t(group));
        // One joint forward over the group: effective batch is group *
        // batch, so the DReLU round chain is paid once. The server
        // makes the exact mirror call.
        const std::vector<uint64_t> x0group(
            pendingX0.begin(), pendingX0.begin() + group * req_in);
        const std::vector<uint64_t> y0cat =
            runner->forward(*sc, *ch, x0group);
        y1.resize(req_out);
        std::vector<uint64_t> y0(req_out);
        for (size_t r = 0; r < group; ++r) {
            const uint32_t tag = recvInferTag(*ch);
            IRONMAN_CHECK(tag == pendingTags[r],
                          "response tags must follow submission order");
            recvShareVectorPacked(*ch, y1.data(), req_out, opt_.width);
            std::copy(y0cat.begin() + r * req_out,
                      y0cat.begin() + (r + 1) * req_out, y0.begin());
            Result res{tag,
                       ppml::reconstructMlpValues(opt_.width, y0, y1)};
            res.latencyUs = metrics::nowUs() - pendingT0Us[r];
            requestLatency().record(res.latencyUs);
            // The per-request span every server-side layer span of
            // this tag nests inside on the merged timeline.
            trace::emitSpan("request", "infer", pendingT0Us[r],
                            res.latencyUs, tag,
                            res.outputs.size() * sizeof(int64_t));
            ready.push_back(std::move(res));
            ++answered;
        }
    } catch (const std::exception &e) {
        if (!canRecover(e))
            throw;
        // This group's Commit was on the wire: the server may have
        // evaluated any or all of it, so replaying could answer a
        // request twice. Fail the group's unanswered remainder with
        // the cause (the answered prefix reconstructed fine and stays
        // collectible); requests streamed BEHIND the group were never
        // committed, so the caller's pump() resends them.
        requests += answered;
        failPendingFrom(answered, group, e.what());
        reconnect(e.what());
        return;
    }
    requests += group;
    dropOldest(group);
    sent_ -= group;
}

InferClient::Result
InferClient::collect()
{
    if (ready.empty() && !pendingTags.empty())
        commitNext();
    IRONMAN_CHECK(!ready.empty(), "collect() with nothing submitted");
    Result r = std::move(ready.front());
    ready.pop_front();
    return r;
}

std::vector<InferClient::Result>
InferClient::drain()
{
    while (!pendingTags.empty())
        commitNext();
    std::vector<Result> all(std::make_move_iterator(ready.begin()),
                            std::make_move_iterator(ready.end()));
    ready.clear();
    return all;
}

size_t
InferClient::cotsConsumed() const
{
    return sc ? sc->cotsConsumed() : 0;
}

uint64_t
InferClient::preprocBytesSent() const
{
    uint64_t bytes = 0;
    if (sendSession)
        bytes += sendSession->bytesSent();
    if (recvSession)
        bytes += recvSession->bytesSent();
    return bytes;
}

const std::vector<ppml::MlpLayerStat> &
InferClient::layerStats() const
{
    return runner->layerStats();
}

void
InferClient::close()
{
    if (closed || !ch)
        return;
    // The server would drop uncommitted requests at Close; evaluate
    // them instead so every submit() has a collectible result.
    while (!dead_ && !pendingTags.empty())
        commitNext();
    closed = true;
    // Stop stocking before the session goodbyes: a refill racing the
    // server's epilogue would die on a retired stock for nothing.
    if (sendRes)
        sendRes->stopRefill();
    if (recvRes)
        recvRes->stopRefill();
    if (dead_)
        return;
    sendInferOp(*ch, InferOp::Close);
    ch->flush();
    if (sendSession)
        sendSession->close();
    if (recvSession)
        recvSession->close();
}

} // namespace ironman::infer
