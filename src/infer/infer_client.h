/**
 * @file
 * Client of the inference service: MPC party 0, the input owner.
 *
 * One InferClient is one inference session: it handshakes model /
 * bitwidth / batch / COT sessions over infer/wire.h, then serves infer()
 * calls — share the plaintext input tensor, hand the server its
 * share, drive the layered GMW evaluation in lockstep over the same
 * socket, receive the server's output share, reconstruct.
 *
 * Requests are pipelined: submit() enqueues tagged requests WITHOUT
 * waiting for results and commits the oldest depth-sized group once
 * two groups are pending; collect()/drain() commit what is left (one
 * Commit, one MlpRunner::forward over the concatenated shares per
 * group) and reconstruct the responses in submission order. infer()
 * stays the one-shot convenience (submit + collect). NOTE: a depth-k
 * group is evaluated as ONE forward with effective batch
 * k * batch, so its shares follow the GROUPED
 * tweak sequence — bit-identical to runLocalMlpInference over the
 * concatenated requests, while dense share-local truncation may
 * differ from k sequential calls within mlpTruncationErrorBound.
 *
 * Correlation supply: the client opens TWO sessions of opposite roles
 * on the inference server's attached COT service and stocks them
 * through background svc::Reservoirs sized from the model's COT
 * estimate (MlpModelSpec::cotsPerImage * batch, via
 * Reservoir::Options::sizedFor) — the online phase draws from local
 * stock and overlaps with refill, the paper's architecture.
 *
 * Outputs are bit-identical to ppml::runLocalMlpInference for equal
 * (model, width, share seed, request sequence) — the GMW shares are
 * deterministic given the input shares (see mlp_runner.h), so where
 * the correlations come from cannot change an output bit — which is
 * what tests/test_infer.cpp pins down.
 */

#ifndef IRONMAN_INFER_INFER_CLIENT_H
#define IRONMAN_INFER_INFER_CLIENT_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "infer/wire.h"
#include "net/socket_channel.h"
#include "ot/ferret_params.h"
#include "ppml/mlp_runner.h"
#include "ppml/secure_compute.h"
#include "svc/cot_client.h"
#include "svc/reservoir.h"
#include "svc/retry.h"

namespace ironman::infer {

class InferClient
{
  public:
    struct Options
    {
        uint32_t modelId = 1;
        unsigned width = 32;
        uint32_t batch = 1;
        /**
         * COT-session seed: the two sessions' setup seeds derive from
         * it, so a redial re-deals the same session bases.
         */
        uint64_t setupSeed = 1;
        /** Input-sharing tape; equal seeds give equal share streams. */
        uint64_t shareSeed = 0x5eedf00d;
        /** OT parameter set of the two COT sessions. */
        ot::FerretParams params = ot::tinyTestParams();
        /**
         * Requested in-flight requests per session; the server clamps
         * it to its own bound on every dial — read negotiatedDepth().
         * Commits stream: submit() keeps up to 2x the negotiated depth
         * in flight and, at 2x, commits the OLDEST depth-sized group,
         * so that group's evaluation overlaps the next group's Infer
         * frames crossing the wire.
         */
        uint16_t depth = 1;
        /** Inert (every session streams its commits); read only by
         *  bench/ledger/infer.cpp. */
        bool streamCommit = true;
        /**
         * Request wire-propagated trace context (default off):
         * the hello carries a 64-bit trace id + sampled bit
         * (kInferFlagTrace) so both parties' span recorders correlate
         * under one id, and the accept returns the server's clock
         * sample — paired with the hello/accept RTT midpoint this
         * yields the clock-offset estimate trace_merge aligns the two
         * exports with (read it back via peerClockOffsetUs()). The
         * flag changes ONLY the handshake trailer, never online
         * bytes; it does not by itself enable recording (that is
         * IRONMAN_TRACE / trace::setEnabled).
         */
        bool traceWire = false;
        /** Trace id to propagate (0 = generate one per dial). */
        uint64_t traceId = 0;
        /** Sampled bit to propagate (unsampled = negotiate only). */
        bool traceSampled = true;
        /** Simulated one-way latency on this end (bench harness). */
        uint64_t simulatedDelayUs = 0;

        /**
         * Survive a lost server: when a retryable wire error lands
         * mid-session (daemon killed, connection reset, deadline), tear
         * the whole transport down — inference channel, COT sessions,
         * reservoirs — redial under `retry`'s backoff/budget,
         * re-handshake with the SAME seeds, and resend every
         * UNCOMMITTED request from its stored shares, within the
         * redialed session's negotiated window. Requests whose
         * Commit was already on the wire are NOT retried (the server
         * may have evaluated them; re-running could answer twice) —
         * they surface as Result{ok=false} with the triggering error.
         * Off by default: a bench run would rather die loudly than
         * silently remeasure a reconnect.
         */
        bool autoReconnect = false;
        svc::RetryPolicy retry;
        /** Observer of reconnect attempts (the --chaos printer). */
        svc::RetryEventHook retryHook;
    };

    /** One reconstructed response (tags are submit()'s return). */
    struct Result
    {
        uint32_t tag = 0;
        std::vector<int64_t> outputs;
        /**
         * false = this request's Commit raced a session loss and its
         * answer is unknowable (outputs empty, error says why). Only
         * autoReconnect sessions produce failed Results; without it
         * the error throws instead.
         */
        bool ok = true;
        std::string error;
        /**
         * Submit-to-reconstruction time (us) of this request, also
         * recorded in the process registry histogram
         * `infer_client_request_latency_us` — the client-side mirror
         * of the server's commit-latency histogram.
         */
        uint64_t latencyUs = 0;
    };

    /**
     * Connect + handshake: dials the COT service at @p cot_port (two
     * sessions of opposite roles, seeds derived from opt.setupSeed)
     * and the inference server at @p host:@p port. With autoReconnect
     * a retryable failure redials under opt.retry, starting at once;
     * the last attempt's net::WireError is rethrown. Throws
     * net::WireError when the server rejects the hello.
     */
    static std::unique_ptr<InferClient>
    connectTcpReservoir(const std::string &host, uint16_t port,
                        const std::string &cot_host, uint16_t cot_port,
                        Options opt);

    ~InferClient();

    InferClient(const InferClient &) = delete;
    InferClient &operator=(const InferClient &) = delete;

    /**
     * One request: @p inputs holds batch * inputDim plaintext
     * fixed-point values; returns batch * outputDim reconstructed
     * outputs (exact GMW reconstruction; dense truncation is the
     * local approximation, see mlpTruncationErrorBound).
     */
    std::vector<int64_t> infer(const std::vector<int64_t> &inputs);

    /**
     * Pipelined issue half: share @p inputs, ship the server's share
     * tagged, and return immediately (unless this submission fills
     * twice the negotiated depth, which commits the oldest depth-sized
     * group inline). Responses come back through collect()/drain() in
     * submission order.
     */
    uint32_t submit(const std::vector<int64_t> &inputs);

    /**
     * Drain half: the oldest un-collected response, committing the
     * oldest pending group first when nothing is ready. It is a bug to
     * call with no submission outstanding.
     */
    Result collect();

    /** Commit and collect everything outstanding, in order. */
    std::vector<Result> drain();

    /** Submitted but not yet committed requests. */
    size_t inFlight() const { return pendingTags.size(); }

    uint64_t sessionId() const { return sid; }

    /** Server-clamped in-flight bound of the current dial. */
    uint16_t negotiatedDepth() const { return depth_; }

    /** Always true (every session streams its commits); read only by
     *  bench/ledger/infer.cpp. */
    bool streaming() const { return true; }

    /** Handshake round-trip time of the current dial (us). */
    uint64_t measuredRttUs() const { return rttUs_; }

    /** Whether the trace-context flag was negotiated. */
    bool traceNegotiated() const { return traceOn_; }

    /** Trace id of the current dial (0 = trace flag not negotiated). */
    uint64_t traceId() const { return traceId_; }

    /**
     * Server clock minus client clock (us), estimated from the accept's
     * clock sample and the handshake RTT midpoint (Cristian); 0 until
     * a traced handshake completes. Loopback pairs share the monotonic
     * clock, so the estimate there is the measurement error (≈ RTT/2).
     */
    int64_t peerClockOffsetUs() const { return clockOffsetUs_; }

    /** Direction changes on the inference channel (2 per round). */
    uint64_t onlineTurns() const { return ch->turns(); }

    uint64_t requestsRun() const { return requests; }

    /** Successful session recoveries (autoReconnect only). */
    uint64_t reconnects() const { return reconnectCount; }

    /** Correlations this party consumed (both directions). */
    size_t cotsConsumed() const;

    /** Online bytes this endpoint pushed on the inference channel. */
    uint64_t onlineBytesSent() const { return ch->bytesSent(); }

    /** Mirror direction — sent + received covers both parties. */
    uint64_t onlineBytesReceived() const { return ch->bytesReceived(); }

    /** Preprocessing bytes pushed on the COT sessions. */
    uint64_t preprocBytesSent() const;

    /** Per-layer costs of the last request (party-0 view). */
    const std::vector<ppml::MlpLayerStat> &layerStats() const;

    /** End the session politely; further infer() calls are bugs. */
    void close();

  private:
    /** Opens every dial's inference channel: net::tcpConnect, or the
     *  fault-armed connect of the test fixture ServedStack. */
    using ChannelDialer = std::function<std::unique_ptr<net::SocketChannel>(
        const std::string &host, uint16_t port)>;
    friend struct ServedStack;

    InferClient(std::string host, uint16_t port, std::string cot_host,
                uint16_t cot_port, Options opt, ChannelDialer dial_channel);

    /**
     * The one dial loop: build the whole transport (both COT sessions,
     * the inference channel, reservoirs, handshake) under opt_.retry.
     * A first dial tries at once and rethrows its last failure; a
     * @p redial reports @p cause, backs off before every attempt, and
     * ends in a typed "budget exhausted" PeerClosed.
     */
    void dial(bool redial, std::string cause);
    void dropTransport();
    void buildReservoirs();
    void handshake();
    /** Send the unsent pending requests while fewer than 2x depth_
     *  are on the wire, committing the oldest group whenever the
     *  window is full — first submissions and resends alike. */
    void pump();
    void commitNext();
    void commitOldest();
    bool canRecover(const std::exception &e) const;
    /** Redial and mark every pending request unsent; pump() resends
     *  them. On a spent budget the session dies and every pending
     *  request fails typed. */
    void reconnect(const std::string &cause);
    void failPendingFrom(size_t answered, size_t group,
                         const std::string &what);
    void dropOldest(size_t n);

    std::unique_ptr<net::SocketChannel> ch;
    Options opt_;
    ppml::MlpModelSpec spec_;
    uint64_t sid = 0;
    bool closed = false;
    bool dead_ = false; ///< recovery budget spent: session is gone

    // Every dial's endpoints.
    std::string host_;
    uint16_t port_ = 0;
    std::string cotHost_;
    uint16_t cotPort_ = 0;
    ChannelDialer dialChannel_;
    uint64_t reconnectCount = 0;
    uint16_t depth_ = 1; ///< negotiated group size of the current dial
    uint64_t rttUs_ = 0;  ///< handshake RTT of the current dial
    bool traceOn_ = false;     ///< negotiated trace context
    uint64_t traceId_ = 0;     ///< propagated trace id (0 = none)
    int64_t clockOffsetUs_ = 0; ///< server clock - client clock
    uint32_t nextTag = 1;

    // Correlation supply (declaration order = teardown order reversed:
    // reservoirs stop before their sessions close).
    std::unique_ptr<svc::CotClient> sendSession;
    std::unique_ptr<svc::CotClient> recvSession;
    std::unique_ptr<svc::Reservoir> sendRes;
    std::unique_ptr<svc::Reservoir> recvRes;
    std::unique_ptr<svc::ReservoirCotSupply> reservoirSupply;

    std::unique_ptr<ppml::SecureCompute> sc;
    std::unique_ptr<ppml::MlpRunner> runner;
    Rng shareRng;
    uint64_t requests = 0;

    std::vector<uint64_t> x0, x1, y1; ///< staging, reused per request

    // Pipelining state: submitted-but-uncommitted requests (tags plus
    // BOTH parties' concatenated input shares — x1 is stored so a
    // reconnect can resend the exact same shares without touching
    // the share tape) and committed-but-uncollected responses in
    // submission order. The oldest `sent_` pending requests are on
    // the current wire.
    std::vector<uint32_t> pendingTags;
    std::vector<uint64_t> pendingX0;
    std::vector<uint64_t> pendingX1;
    std::vector<uint64_t> pendingT0Us; ///< submit() stamps, per tag
    size_t sent_ = 0;
    std::deque<Result> ready;
};

} // namespace ironman::infer

#endif // IRONMAN_INFER_INFER_CLIENT_H
