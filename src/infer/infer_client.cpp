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

svc::CotClient::Options
cotSendOptions(const InferClient::Options &opt)
{
    svc::CotClient::Options o;
    o.role = svc::Role::Sender;
    o.setupSeed = opt.setupSeed * 2 + 1;
    return o;
}

svc::CotClient::Options
cotRecvOptions(const InferClient::Options &opt)
{
    svc::CotClient::Options o;
    o.role = svc::Role::Receiver;
    o.setupSeed = opt.setupSeed * 2 + 2;
    return o;
}

} // namespace

InferClient::InferClient(std::unique_ptr<net::SocketChannel> channel,
                         std::unique_ptr<svc::CotClient> send_session,
                         std::unique_ptr<svc::CotClient> recv_session,
                         Options opt)
    : ch(std::move(channel)), opt_(opt), spec_(specOrThrow(opt.modelId)),
      sendSession(std::move(send_session)),
      recvSession(std::move(recv_session)), shareRng(opt.shareSeed)
{
    IRONMAN_CHECK(sendSession && recvSession, "need both COT sessions");
    IRONMAN_CHECK(sendSession->role() == svc::Role::Sender &&
                      recvSession->role() == svc::Role::Receiver,
                  "sessions must have opposite roles, sender first");
    startSession();
}

void
InferClient::startSession()
{
    if (opt_.simulatedDelayUs > 0)
        ch->setSimulatedDelay(opt_.simulatedDelayUs);
    buildReservoirs();
    handshake();
    sc = std::make_unique<ppml::SecureCompute>(*ch, 0, *reservoirSupply,
                                               opt_.width);
    runner = std::make_unique<ppml::MlpRunner>(spec_, opt_.width);
}

void
InferClient::buildReservoirs()
{
    // Stock sized from the model's COT estimate: keep one commit
    // group's worth of correlations ahead per direction. Sized from
    // the REQUESTED depth (reservoirs exist before the handshake can
    // negotiate) — the server may clamp it, which only leaves the
    // stock oversized, never starved.
    const uint64_t group =
        opt_.depthAuto ? 64 : (opt_.depth > 0 ? opt_.depth : 1);
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
    // Auto-depth asks for a deep window (the server clamps to its
    // bound) and tunes the ACTUAL group size locally from the RTT.
    h.depth = opt_.depthAuto
                  ? uint16_t(64)
                  : (opt_.depth > 0 ? opt_.depth : uint16_t(1));
    h.flags = opt_.traceWire ? kInferFlagTrace : 0;
    if (opt_.traceWire) {
        // One id per dial (a reconnect is a new timeline segment);
        // both parties' spans correlate under it in the merged export.
        traceId_ = opt_.traceId ? opt_.traceId
                                : trace::newTraceId(opt_.setupSeed);
        h.traceId = traceId_;
        h.traceSampled = opt_.traceSampled ? 1 : 0;
    }
    // The hello/accept turnaround doubles as the RTT probe the depth
    // auto-tuner uses — and, with the trace flag, as the clock-offset
    // probe: the server stamps the accept with its own clock, and the
    // RTT midpoint is our best estimate of when that stamp was taken
    // (Cristian). It rides every (re)dial, so reconnects re-tune.
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
    if (opt_.depthAuto) {
        // One commit group costs group_rounds dependent round trips no
        // matter how many requests ride in it; pick the depth whose
        // per-request share of that latency meets the budget. A
        // loopback link lands at depth 1-2, a WAN pins the negotiated
        // ceiling.
        const uint64_t group_rounds = uint64_t(spec_.dims.size() - 2) *
                                      ppml::reluRounds(opt_.width);
        const uint64_t budget =
            opt_.depthBudgetUs > 0 ? opt_.depthBudgetUs : 1;
        const uint64_t tuned = (group_rounds * rttUs_ + budget - 1) / budget;
        depth_ = uint16_t(std::clamp<uint64_t>(tuned, 1, depth_));
    }
}

std::unique_ptr<InferClient>
InferClient::connectTcpReservoir(const std::string &host, uint16_t port,
                                 const std::string &cot_host,
                                 uint16_t cot_port, Options opt)
{
    const unsigned attempts =
        opt.autoReconnect && opt.retry.maxAttempts > 0
            ? opt.retry.maxAttempts
            : 1u;
    for (unsigned attempt = 1;; ++attempt) {
        try {
            opt.retry.sleepBefore(attempt);
            auto send_session = svc::CotClient::connectTcp(
                cot_host, cot_port, opt.params, cotSendOptions(opt));
            auto recv_session = svc::CotClient::connectTcp(
                cot_host, cot_port, opt.params, cotRecvOptions(opt));
            auto c = std::make_unique<InferClient>(
                net::tcpConnect(host, port), std::move(send_session),
                std::move(recv_session), opt);
            c->host_ = host;
            c->port_ = port;
            c->cotHost_ = cot_host;
            c->cotPort_ = cot_port;
            c->endpointsKnown_ = true;
            return c;
        } catch (const net::WireError &e) {
            if (!e.retryable() || attempt >= attempts)
                throw;
            if (opt.retryHook)
                opt.retryHook(attempt, opt.retry.backoffMs(attempt + 1),
                              e.what());
        }
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
    return opt_.autoReconnect && endpointsKnown_ && !dead_ &&
           net::isRetryable(e);
}

void
InferClient::redial()
{
    ch = net::tcpConnect(host_, port_);
    // Same derived seeds as the original dial: the restarted daemon
    // re-deals the same deterministic session base, so the fresh
    // sessions are indistinguishable from first contact.
    sendSession = svc::CotClient::connectTcp(cotHost_, cotPort_,
                                             opt_.params,
                                             cotSendOptions(opt_));
    recvSession = svc::CotClient::connectTcp(cotHost_, cotPort_,
                                             opt_.params,
                                             cotRecvOptions(opt_));
    startSession();
}

void
InferClient::reconnect(const std::string &cause)
{
    // Tear the whole transport down before redialing. The share tape
    // (shareRng) survives untouched: uncommitted requests resubmit
    // their STORED shares, so the tape position stays consistent with
    // an uninterrupted run.
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

    const unsigned attempts =
        opt_.retry.maxAttempts > 0 ? opt_.retry.maxAttempts : 1u;
    std::string last = cause;
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        if (opt_.retryHook)
            opt_.retryHook(attempt, opt_.retry.backoffMs(attempt + 1),
                           last);
        // Backoff BEFORE the dial: the failure that brought us here
        // is evidence the daemon is down right now.
        opt_.retry.sleepBefore(attempt + 1);
        try {
            redial();
            resubmitPending();
            ++reconnectCount;
            return;
        } catch (const net::WireError &e) {
            if (!e.retryable()) {
                dead_ = true;
                throw;
            }
            last = e.what();
        } catch (const std::exception &e) {
            dead_ = true;
            throw;
        }
    }
    dead_ = true;
    throw net::WireError(net::WireFault::PeerClosed,
                         "InferClient: reconnect budget exhausted: " +
                             last);
}

void
InferClient::resubmitPending()
{
    const size_t req_in = size_t(opt_.batch) * spec_.inputDim();
    for (size_t r = 0; r < pendingTags.size(); ++r) {
        sendInferOp(*ch, InferOp::Infer);
        sendInferTag(*ch, pendingTags[r]);
        sendShareVectorPacked(*ch, pendingX1.data() + r * req_in, req_in,
                              opt_.width);
    }
}

void
InferClient::failPendingFrom(size_t answered, size_t group,
                             const std::string &what)
{
    const size_t req_in = size_t(opt_.batch) * spec_.inputDim();
    for (size_t r = answered; r < group; ++r) {
        Result failed;
        failed.tag = pendingTags[r];
        failed.ok = false;
        failed.error = what;
        ready.push_back(std::move(failed));
    }
    // Only the COMMITTED group dies; requests streamed ahead of it
    // were never committed and resubmit with the recovered session.
    pendingTags.erase(pendingTags.begin(), pendingTags.begin() + group);
    pendingX0.erase(pendingX0.begin(),
                    pendingX0.begin() + group * req_in);
    pendingX1.erase(pendingX1.begin(),
                    pendingX1.begin() + group * req_in);
    pendingT0Us.erase(pendingT0Us.begin(),
                      pendingT0Us.begin() + group);
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
    const uint64_t t0_us = metrics::nowUs();
    // The tape advances exactly once per submission, reconnect or not.
    ppml::shareMlpValues(shareRng, opt_.width, inputs, &x0, &x1);

    for (;;) {
        try {
            trace::Span submit_span("submit", "infer", tag,
                                    x1.size() * sizeof(uint64_t));
            sendInferOp(*ch, InferOp::Infer);
            sendInferTag(*ch, tag);
            sendShareVectorPacked(*ch, x1.data(), x1.size(), opt_.width);
            break;
        } catch (const std::exception &e) {
            if (!canRecover(e))
                throw;
            // The session died before this request's Commit, so it is
            // safe to replay: reconnect() resubmits the stored pending
            // group, then the loop retries this send.
            reconnect(e.what());
        }
    }
    pendingTags.push_back(tag);
    pendingX0.insert(pendingX0.end(), x0.begin(), x0.end());
    pendingX1.insert(pendingX1.end(), x1.begin(), x1.end());
    pendingT0Us.push_back(t0_us);
    // Keep the recv-ahead window primed: once two full groups are
    // pending, commit the OLDEST — its evaluation overlaps the younger
    // group's frames already crossing the wire. Grouping boundaries
    // fall every depth_ submissions, so grouped references stay valid.
    if (pendingTags.size() >= 2 * size_t(depth_))
        commitOldest();
    return tag;
}

void
InferClient::commitPending()
{
    while (!pendingTags.empty())
        commitOldest();
}

void
InferClient::commitOldest()
{
    const size_t group = std::min(size_t(depth_), pendingTags.size());
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
        // committed, so reconnect() resubmits them safely.
        requests += answered;
        failPendingFrom(answered, group, e.what());
        reconnect(e.what());
        return;
    }
    requests += group;
    pendingTags.erase(pendingTags.begin(), pendingTags.begin() + group);
    pendingX0.erase(pendingX0.begin(),
                    pendingX0.begin() + group * req_in);
    pendingX1.erase(pendingX1.begin(),
                    pendingX1.begin() + group * req_in);
    pendingT0Us.erase(pendingT0Us.begin(),
                      pendingT0Us.begin() + group);
}

InferClient::Result
InferClient::collect()
{
    if (ready.empty() && !pendingTags.empty())
        commitOldest();
    IRONMAN_CHECK(!ready.empty(), "collect() with nothing submitted");
    Result r = std::move(ready.front());
    ready.pop_front();
    return r;
}

std::vector<InferClient::Result>
InferClient::drain()
{
    commitPending();
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
    if (!dead_)
        commitPending();
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
