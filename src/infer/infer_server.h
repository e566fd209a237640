/**
 * @file
 * The private-inference daemon: MPC party 1 as a service.
 *
 * InferServer accepts inference sessions over real sockets (loopback/
 * remote TCP or Unix-domain), negotiates model/bitwidth/batch, the
 * two COT sessions and the in-flight depth via the infer/wire.h
 * handshake, and then plays the second GMW party of ppml::MlpRunner
 * over the session's net::SocketChannel — the first subsystem where
 * the ONLINE protocol, not just correlation generation, crosses the
 * wire. Sessions enqueue
 * up to twice the negotiated depth of tagged requests and evaluate the
 * oldest group of them as ONE joint forward on each Commit, so the
 * DReLU round latency is paid per group instead of per request.
 *
 * Concurrency model is net::SessionServer's (shared with CotServer):
 * one accept loop plus one joined (never detached) thread per active
 * session, bounded by Config::maxSessions with accept-side
 * backpressure; stop() shuts down live channels, retires the
 * operator stock (waking sessions parked in stock waits), and joins
 * everything (TSan-clean).
 *
 * Correlation supply (the paper architecture): the client stocks two
 * sessions on the ATTACHED CotServer through background reservoirs;
 * this server consumes the operator halves of the same two sessions
 * through svc::OperatorCotSupply. The online phase overlaps with COT
 * refill on both sides, and warm EnginePool turnover keeps session
 * churn allocation-free (DESIGN.md invariant 13). Without an attached
 * stock every hello is refused with InferStatus::BadSupply.
 */

#ifndef IRONMAN_INFER_INFER_SERVER_H
#define IRONMAN_INFER_INFER_SERVER_H

#include <atomic>
#include <cstdint>
#include <string>

#include "infer/wire.h"
#include "net/session_server.h"
#include "net/socket_channel.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

namespace ironman::infer {

class InferServer
{
  public:
    struct Config
    {
        size_t maxSessions = 8; ///< concurrent inference sessions
        uint32_t maxBatch = 256; ///< images per request bound
        /**
         * In-flight requests per session; a hello asking for more
         * is clamped (negotiated down in the accept), never rejected.
         */
        uint16_t maxDepth = 32;

        /**
         * Simulated link bandwidth for every session channel
         * (SocketChannel::setSimulatedBandwidth, bits/sec); 0 = off.
         * With the client's InferClient::Options::simulatedDelayUs
         * this completes the WAN model.
         */
        uint64_t simulatedBandwidthBps = 0;

        // -- containment (see net::SessionServer) ----------------------
        uint64_t sessionRecvTimeoutMs = 0; ///< blocked-read deadline
        uint64_t sessionSendTimeoutMs = 0; ///< blocked-write deadline
        uint64_t idleTimeoutMs = 0;        ///< no-traffic reap window
    };

    InferServer() : InferServer(Config{}) {}
    explicit InferServer(Config cfg);
    ~InferServer();

    InferServer(const InferServer &) = delete;
    InferServer &operator=(const InferServer &) = delete;

    /**
     * Enable serving: @p stock must be attached (stock.attach(cot)) to the CotServer the inference
     * clients open their COT sessions on — that attachment, done
     * before either server listens, is the whole wiring; this server
     * only consumes the stock. It must outlive this server or stop()
     * must run first (stop() retires it via shutdown()).
     */
    void attachOperatorStock(svc::OperatorStock &stock);

    /** Bind 127.0.0.1:@p port (0 = ephemeral); returns the port. */
    uint16_t listenTcp(uint16_t port = 0);

    /** Bind a Unix-domain path and start the accept loop. */
    void listenUnix(const std::string &path);

    /** Stop accepting, unwind sessions, join everything. Idempotent. */
    void stop();

    /**
     * Graceful shutdown: stop accepting, give in-flight sessions
     * @p timeout_ms to finish (they keep drawing from the operator
     * stock, which is retired only afterwards), then force-close
     * stragglers. Returns true iff every session ended voluntarily.
     */
    bool drain(uint64_t timeout_ms);

    /** Sessions force-closed by the idle reaper. */
    uint64_t sessionsReaped() const { return server_.sessionsReaped(); }

    uint64_t sessionsServed() const { return served.load(); }
    uint64_t sessionsRejected() const { return rejected.load(); }
    uint64_t requestsServed() const { return requests.load(); }
    uint64_t imagesServed() const { return images.load(); }
    uint64_t cotsConsumed() const { return cots.load(); }
    size_t activeSessions() const;

  private:
    void serveSession(net::SocketChannel &ch, uint64_t sid);
    void runSession(net::SocketChannel &ch, uint64_t sid,
                    const InferHello &hello);

    Config cfg_;
    svc::OperatorStock *stock_ = nullptr;
    net::SessionServer server_;

    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> images{0};
    std::atomic<uint64_t> cots{0};
};

} // namespace ironman::infer

#endif // IRONMAN_INFER_INFER_SERVER_H
