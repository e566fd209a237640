#include "net/session_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/trace.h"

namespace ironman::net {

void
SessionMetrics::init(const std::string &prefix)
{
    accepted_ = &metrics::counter(prefix + "_sessions_accepted_total");
    active_ = &metrics::gauge(prefix + "_sessions_active");
    reaped_ = &metrics::counter(prefix + "_sessions_reaped_total");
    duration_ = &metrics::histogram(prefix + "_session_duration_us");
    // Metric names take the underscore spelling of wireFaultName().
    static const char *const kinds[kFaultKinds] = {
        "transient", "peer_closed", "deadline", "protocol", "fatal"};
    for (size_t k = 0; k < kFaultKinds; ++k)
        failed_[k] = &metrics::counter(prefix + "_sessions_failed_" +
                                       kinds[k] + "_total");
}

SessionServer::SessionServer(size_t max_sessions)
    : maxSessions(max_sessions)
{
    IRONMAN_CHECK(maxSessions > 0, "need at least one session slot");
}

SessionServer::~SessionServer()
{
    stop();
}

void
SessionServer::setHandler(Handler h)
{
    IRONMAN_CHECK(listenFd.load() < 0, "set the handler before listening");
    handler = std::move(h);
}

uint16_t
SessionServer::listenTcp(uint16_t port)
{
    IRONMAN_CHECK(listenFd.load() < 0, "server already listening");
    IRONMAN_CHECK(handler != nullptr, "no session handler set");
    const int fd = net::tcpListen(port);
    listenFd.store(fd);
    const uint16_t bound = net::tcpListenPort(fd);
    startAccepting();
    return bound;
}

void
SessionServer::listenUnix(const std::string &path)
{
    IRONMAN_CHECK(listenFd.load() < 0, "server already listening");
    IRONMAN_CHECK(handler != nullptr, "no session handler set");
    const int fd = net::unixListen(path);
    listenFd.store(fd);
    startAccepting();
}

void
SessionServer::startAccepting()
{
    stopping.store(false);
    acceptThread = std::thread([this] { acceptLoop(); });
    if (idleTimeoutMs > 0)
        reaperThread = std::thread([this] { reaperLoop(); });
}

void
SessionServer::acceptLoop()
{
    for (;;) {
        // Session-slot backpressure: leave new connections in the
        // listen backlog until a slot frees up.
        {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] {
                return stopping.load() || active < maxSessions;
            });
        }
        if (stopping.load())
            return;
        const int listener = listenFd.load(std::memory_order_acquire);
        if (listener < 0)
            return;
        int fd = net::acceptOn(listener);
        if (fd < 0)
            return; // listener closed by stop()
        uint64_t sid;
        std::unique_ptr<SocketChannel> ch;
        try {
            ch = std::make_unique<SocketChannel>(fd);
        } catch (...) {
            continue;
        }
        // No server thread enters a blocking kernel call unbounded:
        // the deadlines ride on the channel, set before the handler
        // ever sees it.
        if (recvTimeoutMs > 0)
            ch->setRecvTimeout(recvTimeoutMs);
        if (sendTimeoutMs > 0)
            ch->setSendTimeout(sendTimeoutMs);
        auto finished = std::make_shared<std::atomic<bool>>(false);
        {
            std::lock_guard<std::mutex> lock(m);
            sid = nextSession++;
            ++active;
            liveChannels[sid] = ch.get();
            reapFinishedLocked();
        }
        metrics_.noteAccepted();
        Session sess;
        sess.finished = finished;
        sess.thread = std::thread(
            [this, sid, finished](std::unique_ptr<SocketChannel> sess_ch) {
                const uint64_t t0_us = metrics::nowUs();
                trace::SessionScope session_scope(sid);
                trace::setThreadLabel("session");
                trace::Span session_span("session_thread", "svc",
                                         uint32_t(sid));
                // The one failure layer: a dying client must not take
                // the server down. Classify, dump the flight ring (the
                // last opcodes before the unwind) and warn.
                try {
                    handler(*sess_ch, sid);
                } catch (const WireError &e) {
                    metrics_.noteFailure(e.fault());
                    trace::dumpSession(wireFaultName(e.fault()));
                    IRONMAN_WARN("%s session %llu aborted (%s): %s",
                                 name.c_str(), (unsigned long long)sid,
                                 wireFaultName(e.fault()), e.what());
                } catch (const std::exception &e) {
                    metrics_.noteFailure(WireFault::Fatal);
                    trace::dumpSession("exception");
                    IRONMAN_WARN("%s session %llu aborted: %s",
                                 name.c_str(), (unsigned long long)sid,
                                 e.what());
                }
                metrics_.noteFinished(metrics::nowUs() - t0_us);
                {
                    std::lock_guard<std::mutex> lock(m);
                    liveChannels.erase(sid);
                    activity.erase(sid);
                    --active;
                    cv.notify_all();
                }
                finished->store(true, std::memory_order_release);
            },
            std::move(ch));
        std::lock_guard<std::mutex> lock(m);
        sessions.push_back(std::move(sess));
    }
}

void
SessionServer::reaperLoop()
{
    // Scan period: a fraction of the idle window, so a session is
    // reaped within ~1.25x the configured timeout of going quiet.
    const auto period =
        std::chrono::milliseconds(std::max<uint64_t>(idleTimeoutMs / 4,
                                                     10));
    const auto idle = std::chrono::milliseconds(idleTimeoutMs);
    std::unique_lock<std::mutex> lock(m);
    while (!stopping.load()) {
        cv.wait_for(lock, period, [&] { return stopping.load(); });
        if (stopping.load())
            return;
        const auto now = std::chrono::steady_clock::now();
        for (auto &[sid, ch] : liveChannels) {
            // Counter reads are relaxed atomics — progress watching,
            // not synchronization.
            const uint64_t bytes = ch->bytesSent() + ch->bytesReceived();
            auto [it, fresh] = activity.try_emplace(sid);
            if (fresh || it->second.bytes != bytes) {
                it->second.bytes = bytes;
                it->second.lastChange = now;
            } else if (now - it->second.lastChange >= idle) {
                // Dead weight: wake its thread through the socket (it
                // unwinds via WireError) and let the normal epilogue
                // clean up. Erasure of the bookkeeping happens there.
                ch->shutdownBoth();
                reaped.fetch_add(1, std::memory_order_relaxed);
                metrics_.noteReaped();
                it->second.lastChange = now; // don't re-reap every scan
            }
        }
    }
}

void
SessionServer::reapFinishedLocked()
{
    // Join threads whose sessions completed; a long-running daemon
    // must not accumulate dead stacks. Finished threads join without
    // blocking the accept path for more than an epilogue.
    for (size_t i = 0; i < sessions.size();) {
        if (sessions[i].finished->load(std::memory_order_acquire)) {
            sessions[i].thread.join();
            sessions.erase(sessions.begin() + long(i));
        } else {
            ++i;
        }
    }
}

void
SessionServer::retireListener()
{
    stopping.store(true);
    // Retire the listener first (atomically), then close it: the
    // accept thread either sees -1 or gets EBADF/EINVAL from accept —
    // both exit paths.
    const int fd = listenFd.exchange(-1);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
    {
        // Wake the accept loop's slot wait and the reaper's period
        // wait; neither can touch new sessions after this.
        std::lock_guard<std::mutex> lock(m);
        cv.notify_all();
    }
    if (acceptThread.joinable())
        acceptThread.join();
    if (reaperThread.joinable())
        reaperThread.join();
}

void
SessionServer::finishSessions(bool force)
{
    if (force) {
        // The accept loop and reaper are gone, so this pass over
        // liveChannels is exhaustive: wake sessions parked in a recv;
        // their threads unwind through the exception path and run
        // their epilogues.
        std::lock_guard<std::mutex> lock(m);
        for (auto &[sid, ch] : liveChannels)
            ch->shutdownBoth();
    }
    // Join every session thread. Never detach: a detached thread could
    // still be releasing the server's mutex while the server
    // destructs.
    std::vector<Session> to_join;
    {
        std::lock_guard<std::mutex> lock(m);
        to_join.swap(sessions);
    }
    for (Session &s : to_join)
        s.thread.join();
}

void
SessionServer::stop()
{
    if (listenFd.load() < 0 && !acceptThread.joinable())
        return;
    retireListener();
    finishSessions(/*force=*/true);
}

bool
SessionServer::drain(uint64_t timeout_ms)
{
    retireListener();
    bool clean;
    {
        // Grace window: sessions finish on their own terms — their
        // sockets stay untouched, so in-flight requests complete and
        // clients see a normal end-of-session.
        std::unique_lock<std::mutex> lock(m);
        clean = cv.wait_for(lock,
                            std::chrono::milliseconds(timeout_ms),
                            [&] { return active == 0; });
    }
    finishSessions(/*force=*/true); // no-op shutdowns if all finished
    return clean;
}

size_t
SessionServer::activeSessions() const
{
    std::lock_guard<std::mutex> lock(m);
    return active;
}

} // namespace ironman::net
