/**
 * @file
 * The COT-as-a-service daemon: accepts client sessions over real
 * sockets (loopback/remote TCP or Unix-domain), plays the opposite OT
 * role of each client, and serves extensions from warm pooled engines.
 *
 * Concurrency model: net::SessionServer's — one accept loop plus one
 * joined thread per active session (sessions are blocking protocol
 * loops — each one spends its life inside interactive extendInto
 * calls). Kernel parallelism comes from each engine's own fixed
 * worker pool (EnginePool::Config::threads wide), the same ThreadPool
 * the single-connection engines use; the session count is bounded by
 * Config::maxSessions, beyond which the accept loop applies
 * backpressure (clients queue in the listen backlog). Engines outlive
 * sessions: a finished session's engine returns to the EnginePool and
 * the next session of the same parameter shape reuses it via
 * resetSession() — allocation-free once warm (invariant 12).
 *
 * The server's own protocol outputs (sender strings q, or receiver
 * choice/t) are the service operator's half of the correlations. Tests
 * and deployments that consume them register batch sinks; without a
 * sink the outputs are dropped after each extension (the client half
 * is still perfectly usable — this matches a dealer that only retains
 * what its operator needs).
 */

#ifndef IRONMAN_SVC_COT_SERVER_H
#define IRONMAN_SVC_COT_SERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/session_server.h"
#include "net/socket_channel.h"
#include "svc/engine_pool.h"
#include "svc/wire.h"

namespace ironman::svc {

class CotServer
{
  public:
    struct Config
    {
        int engineThreads = 1;   ///< worker-pool width per engine
        size_t maxSessions = 32; ///< concurrent-session bound

        // -- containment (see net::SessionServer) ----------------------
        // Per-session socket deadlines plus an idle reaper, so one
        // stalled or dead peer cannot pin a session thread forever.
        // 0 = off (trusted-bench default); the example daemons set
        // net::kDaemonSessionTimeoutMs.
        uint64_t sessionRecvTimeoutMs = 0; ///< blocked-read deadline
        uint64_t sessionSendTimeoutMs = 0; ///< blocked-write deadline
        uint64_t idleTimeoutMs = 0;        ///< no-traffic reap window

        // -- per-client policy, enforced at handshake ------------------
        // A rejected hello gets a clean wire-level Accept{status} (the
        // client can log it) instead of a dropped connection. Clients
        // are keyed by SocketChannel::peerAddress() — for TCP the
        // remote IP, so all connections from one host share a bucket;
        // for Unix-domain peers "unix:uid:<uid>" from SO_PEERCRED, so
        // all local processes of one user share a bucket.

        /**
         * Parameter shapes this daemon will build engines for; empty
         * means any structurally valid shape. Membership compares the
         * EngineKey fields (what determines engine size and output).
         */
        std::vector<ot::FerretParams> paramsAllowlist;

        /** Lifetime sessions one client address may open; 0 = no cap. */
        uint64_t maxSessionsPerClient = 0;

        /**
         * Payload bytes one client address may be served across all
         * its sessions; 0 = no cap. Checked at handshake (a session
         * admitted under the quota runs to completion; its bytes count
         * against the next admission).
         */
        uint64_t maxBytesPerClient = 0;
    };

    CotServer() : CotServer(Config{}) {}
    explicit CotServer(Config cfg);
    ~CotServer();

    CotServer(const CotServer &) = delete;
    CotServer &operator=(const CotServer &) = delete;

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), start the accept loop,
     * return the bound port.
     */
    uint16_t listenTcp(uint16_t port = 0);

    /** Bind a Unix-domain path and start the accept loop. */
    void listenUnix(const std::string &path);

    /**
     * Stop accepting, shut down active sessions, wait for them to
     * unwind, and join the accept loop. Idempotent.
     */
    void stop();

    /**
     * Graceful shutdown for rolling restarts: stop accepting, give
     * in-flight sessions @p timeout_ms to finish on their own, then
     * force-close stragglers. Returns true iff every session ended
     * voluntarily. Terminal — serve with a fresh server afterwards.
     */
    bool drain(uint64_t timeout_ms);

    /** Sessions force-closed by the idle reaper. */
    uint64_t sessionsReaped() const { return server_.sessionsReaped(); }

    EnginePool &pool() { return pool_; }

    uint64_t sessionsServed() const { return served.load(); }
    uint64_t extensionsServed() const { return extensions.load(); }
    uint64_t cotsServed() const { return cots.load(); }
    size_t activeSessions() const;

    /** Hellos rejected by policy (allowlist or quotas). */
    uint64_t sessionsRejected() const { return rejected.load(); }

    /** Payload bytes served so far to @p client_addr. */
    uint64_t bytesServedTo(const std::string &client_addr) const;

    // -- output sinks (tests / operator-side consumption) ---------------

    /** One sender-side extension result; pointers valid during the call. */
    struct SenderBatch
    {
        uint64_t sessionId;
        uint64_t iteration; ///< 0-based extension index in the session
        Block delta;
        const Block *q;
        size_t count;
    };

    /** One receiver-side extension result; pointers valid during the call. */
    struct ReceiverBatch
    {
        uint64_t sessionId;
        uint64_t iteration;
        const BitVec *choice;
        const Block *t;
        size_t count;
    };

    /**
     * Register batch observers. Called from session threads (must be
     * thread-safe); set before listening. LIFETIME: anything a sink
     * references must outlive the server — or stop() must run first —
     * because session threads may still be delivering batches until
     * stop() joins them.
     */
    void setSenderSink(std::function<void(const SenderBatch &)> fn);
    void setReceiverSink(std::function<void(const ReceiverBatch &)> fn);

    /**
     * Observer of admitted sessions, called on the session thread
     * BEFORE the Accept is sent — so by the time a client can quote
     * its session id anywhere (it learns it from the Accept), the
     * sink has run. The operator stock uses it to record which peer
     * owns each session.
     */
    void setSessionStartSink(
        std::function<void(uint64_t sid, const std::string &peer)> fn);

    /**
     * Observer of session ends (served, rejected, or aborted), called
     * on the session thread after its last batch sink. The operator
     * stock uses it to free a session's retained halves the moment no
     * more can arrive.
     */
    void setSessionEndSink(std::function<void(uint64_t sid)> fn);

  private:
    /** Allowlist + quota verdict for an Ok hello; admits on Ok. */
    Status admitSession(const std::string &client, const Hello &hello);
    void serveSession(net::SocketChannel &ch, uint64_t sid);
    void serveSenderSession(net::SocketChannel &ch, uint64_t sid,
                            const Hello &hello);
    void serveReceiverSession(net::SocketChannel &ch, uint64_t sid,
                              const Hello &hello);

    Config cfg_;
    EnginePool pool_;
    net::SessionServer server_;

    /** Per-client quota bookkeeping (keyed by peerAddress()). */
    struct ClientUsage
    {
        uint64_t sessions = 0; ///< admitted (lifetime)
        uint64_t bytes = 0;    ///< served payload (finished sessions)
    };
    mutable std::mutex m;
    std::map<std::string, ClientUsage> clients;

    std::function<void(const SenderBatch &)> senderSink;
    std::function<void(const ReceiverBatch &)> receiverSink;
    std::function<void(uint64_t, const std::string &)> sessionStartSink;
    std::function<void(uint64_t)> sessionEndSink;

    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> extensions{0};
    std::atomic<uint64_t> cots{0};
    std::atomic<uint64_t> rejected{0};
};

} // namespace ironman::svc

#endif // IRONMAN_SVC_COT_SERVER_H
