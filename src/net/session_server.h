/**
 * @file
 * The shared daemon skeleton of the socket services (svc::CotServer,
 * infer::InferServer): bind a listener (TCP or Unix-domain), run an
 * accept loop with session-slot backpressure, hand each accepted
 * connection to the owner's handler on its own thread, and tear
 * everything down deterministically.
 *
 * Concurrency contract (what both daemons relied on before this was
 * factored out, preserved verbatim):
 *
 *   - one accept loop plus ONE JOINED (never detached) thread per
 *     active session; finished threads are reaped on the accept path
 *     so a long-running daemon does not accumulate dead stacks;
 *   - at most maxSessions sessions run concurrently — beyond that the
 *     accept loop parks and new connections queue in the listen
 *     backlog (backpressure, not rejection);
 *   - stop() retires the listener first (atomically, so the accept
 *     thread either sees -1 or gets EBADF), shuts down every live
 *     session's socket (waking threads blocked in recv — they unwind
 *     through their exception path), then joins the accept loop and
 *     every session thread. Idempotent.
 *
 * Containment (the failure layer):
 *
 *   - setSessionRecvTimeout/setSessionSendTimeout apply poll-based
 *     deadlines to every accepted channel BEFORE the handler runs, so
 *     no server thread ever enters a blocking read without a bound —
 *     a stalled peer becomes a typed WireError{Deadline} and the
 *     session unwinds;
 *   - setIdleTimeout arms a reaper thread that watches each live
 *     channel's byte counters and force-closes sessions that have
 *     moved no bytes for the configured window (belt to the deadline's
 *     suspenders: it also catches handlers blocked outside the
 *     channel, e.g. in a stock wait);
 *   - drain(timeout) is the rolling-restart path: stop accepting
 *     immediately, let in-flight sessions FINISH (no socket shutdown),
 *     and only force-close whatever is still running when the deadline
 *     expires. Returns true iff every session completed voluntarily.
 *
 * The handler runs on the session thread and OWNS the protocol loop;
 * it must not outlive the channel reference it is given. Exceptions
 * it throws are the normal way a session ends on a dead peer — the
 * skeleton catches them after the handler's unwind, classifies them
 * (SessionMetrics), dumps the session's flight ring and warns.
 */

#ifndef IRONMAN_NET_SESSION_SERVER_H
#define IRONMAN_NET_SESSION_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "net/socket_channel.h"

namespace ironman::net {

/**
 * The daemons' session deadlines and idle window, and the bound
 * svc::OperatorStock puts on a take: a stalled or silent peer holds a
 * session thread at most this long.
 */
inline constexpr uint64_t kDaemonSessionTimeoutMs = 120000;

/**
 * Session telemetry for one daemon, registered under a name prefix
 * ("cot", "infer") so both daemons in one process stay separable.
 * Handles are registered once in init() (allocating, cold); every
 * note*() after that is lock- and allocation-free. Before init() all
 * note*() calls are no-ops, so a bare SessionServer (tests) pays one
 * null check per event.
 *
 * The skeleton's handler wrapper is the one layer that sees a failed
 * session's exception, so it alone calls noteFailure().
 */
class SessionMetrics
{
  public:
    /** Register handles: <p>_sessions_accepted_total, _active,
     * _reaped_total, <p>_session_duration_us, and one
     * <p>_sessions_failed_<kind>_total per WireFault kind. */
    void init(const std::string &prefix);

    void
    noteAccepted()
    {
        if (accepted_) {
            accepted_->inc();
            active_->add(1);
        }
    }

    void
    noteFinished(uint64_t duration_us)
    {
        if (accepted_) {
            active_->sub(1);
            duration_->record(duration_us);
        }
    }

    void
    noteReaped()
    {
        if (reaped_)
            reaped_->inc();
    }

    /** Count one session unwound by a fault of this kind. */
    void
    noteFailure(WireFault fault)
    {
        const size_t k = size_t(fault);
        if (accepted_ && k < kFaultKinds)
            failed_[k]->inc();
    }

    uint64_t
    failures(WireFault fault) const
    {
        const size_t k = size_t(fault);
        return accepted_ && k < kFaultKinds ? failed_[k]->value() : 0;
    }

  private:
    static constexpr size_t kFaultKinds = 5;
    metrics::Counter *accepted_ = nullptr;
    metrics::Gauge *active_ = nullptr;
    metrics::Counter *reaped_ = nullptr;
    metrics::Counter *failed_[kFaultKinds] = {};
    metrics::Histogram *duration_ = nullptr;
};

class SessionServer
{
  public:
    /**
     * Serve one session; sid is unique for the server's lifetime.
     * Runs on a dedicated thread; may throw (classified, dumped and
     * logged here).
     */
    using Handler = std::function<void(SocketChannel &ch, uint64_t sid)>;

    explicit SessionServer(size_t max_sessions);
    ~SessionServer();

    SessionServer(const SessionServer &) = delete;
    SessionServer &operator=(const SessionServer &) = delete;

    /** Set before listening. */
    void setHandler(Handler h);

    /**
     * Register session telemetry under @p prefix (e.g. "cot",
     * "infer"), which also names the daemon in session warnings. Call
     * before listening; without it the server emits no metrics (bare
     * skeletons in tests stay silent).
     */
    void setMetricsPrefix(const std::string &prefix)
    {
        name = prefix;
        metrics_.init(prefix);
    }

    /**
     * Per-session channel deadlines, applied to every accepted
     * connection before its handler runs (0 = unbounded, the
     * pre-failure-layer behavior). Set before listening.
     */
    void setSessionRecvTimeout(uint64_t ms) { recvTimeoutMs = ms; }
    void setSessionSendTimeout(uint64_t ms) { sendTimeoutMs = ms; }

    /**
     * Arm the idle reaper: a session whose channel moves no bytes in
     * either direction for @p ms is force-closed (its thread unwinds
     * through WireError{PeerClosed}). 0 disables. Set before
     * listening.
     */
    void setIdleTimeout(uint64_t ms) { idleTimeoutMs = ms; }

    /**
     * Bind 127.0.0.1:@p port (0 = ephemeral), start the accept loop,
     * return the bound port.
     */
    uint16_t listenTcp(uint16_t port);

    /** Bind a Unix-domain path and start the accept loop. */
    void listenUnix(const std::string &path);

    /** True between a listen*() call and stop(). */
    bool listening() const { return listenFd.load() >= 0; }

    /**
     * Stop accepting, shut down active sessions' sockets, wait for
     * them to unwind, and join everything. Idempotent.
     */
    void stop();

    /**
     * Rolling-restart mode: retire the listener NOW (new connects are
     * refused), let in-flight sessions run to their own Close for up
     * to @p timeout_ms, then force-close stragglers and join
     * everything. Returns true iff all sessions finished voluntarily
     * (zero interrupted requests). The server is fully stopped either
     * way.
     */
    bool drain(uint64_t timeout_ms);

    /** Sessions the reaper force-closed for idleness. */
    uint64_t sessionsReaped() const { return reaped.load(); }

    size_t activeSessions() const;

  private:
    void startAccepting();
    void acceptLoop();
    void reaperLoop();
    void reapFinishedLocked();
    void retireListener();
    void finishSessions(bool force);

    Handler handler;
    std::string name = "net"; ///< the metrics prefix, once set
    SessionMetrics metrics_;
    size_t maxSessions;
    uint64_t recvTimeoutMs = 0;
    uint64_t sendTimeoutMs = 0;
    uint64_t idleTimeoutMs = 0;

    std::atomic<int> listenFd{-1}; ///< stop() retires it from another thread
    std::string unixPath; ///< listenUnix()'s path, unlinked on retire
    std::thread acceptThread;
    std::thread reaperThread;
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> reaped{0};

    /** One accepted session: its serving thread + completion flag. */
    struct Session
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> finished;
    };

    /** Reaper bookkeeping: last observed progress per live channel. */
    struct Activity
    {
        uint64_t bytes = 0;
        std::chrono::steady_clock::time_point lastChange;
    };

    mutable std::mutex m;
    std::condition_variable cv; ///< session-slot and drain waits
    size_t active = 0;
    std::map<uint64_t, SocketChannel *> liveChannels;
    std::map<uint64_t, Activity> activity; ///< reaper-only, under m
    std::vector<Session> sessions; ///< joined on reap/stop, never detached
    uint64_t nextSession = 1;
};

} // namespace ironman::net

#endif // IRONMAN_NET_SESSION_SERVER_H
