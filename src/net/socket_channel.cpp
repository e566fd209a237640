#include "net/socket_channel.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "net/codec.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace ironman::net {

namespace {

[[noreturn]] void
throwErrno(WireFault fault, const char *what)
{
    throw WireError(fault, std::string(what) + ": " +
                               std::strerror(errno));
}

/** Classify a failed send/recv errno: gone peer vs anything else. */
WireFault
ioFault(int err)
{
    switch (err) {
      case EPIPE:
      case ECONNRESET:
      case ENOTCONN:
      case ECONNABORTED:
        return WireFault::PeerClosed;
      default:
        return WireFault::Fatal;
    }
}

/**
 * Process-wide wire totals across every SocketChannel. Registered on
 * first channel construction (cold), recorded with relaxed adds right
 * next to the per-channel counters the accounting already pays.
 */
struct ChannelMetrics {
    metrics::Counter &bytesSent =
        metrics::counter("net_bytes_sent_total");
    metrics::Counter &bytesReceived =
        metrics::counter("net_bytes_received_total");
    metrics::Counter &turns = metrics::counter("net_turns_total");
    metrics::Counter &deadlineHits =
        metrics::counter("net_deadline_hits_total");
};

ChannelMetrics &
channelMetrics()
{
    static ChannelMetrics m;
    return m;
}

} // namespace

SocketChannel::SocketChannel(int fd) : sock(fd)
{
    channelMetrics(); // register handles before any hot-path record

    if (sock < 0)
        throw WireError(WireFault::Fatal, "SocketChannel: bad fd");
    // Best effort: fails harmlessly on non-TCP sockets.
    const int one = 1;
    ::setsockopt(sock, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Captured once: the quota key of per-client policy (port
    // excluded, so every connection from one host shares one bucket).
    sockaddr_storage ss{};
    socklen_t len = sizeof(ss);
    if (::getpeername(sock, reinterpret_cast<sockaddr *>(&ss), &len) ==
        0) {
        if (ss.ss_family == AF_INET) {
            char buf[INET_ADDRSTRLEN] = {};
            const auto *in = reinterpret_cast<sockaddr_in *>(&ss);
            if (::inet_ntop(AF_INET, &in->sin_addr, buf, sizeof(buf)))
                peer = buf;
        } else if (ss.ss_family == AF_INET6) {
            char buf[INET6_ADDRSTRLEN] = {};
            const auto *in6 = reinterpret_cast<sockaddr_in6 *>(&ss);
            if (::inet_ntop(AF_INET6, &in6->sin6_addr, buf,
                            sizeof(buf)))
                peer = buf;
        } else if (ss.ss_family == AF_UNIX) {
            // SO_PEERCRED is kernel-asserted, so a local quota bucket
            // is per USER, not one shared "unix" bucket every local
            // process can drain (or spoof into).
            ucred cred{};
            socklen_t clen = sizeof(cred);
            if (::getsockopt(sock, SOL_SOCKET, SO_PEERCRED, &cred,
                             &clen) == 0)
                peer = "unix:uid:" + std::to_string(cred.uid);
            else
                peer = "unix";
        }
    }
    if (peer.empty())
        peer = "unknown";
}

SocketChannel::~SocketChannel()
{
    if (sock >= 0) {
        // Deliver anything still buffered; a closing peer may race us,
        // so swallow errors on the way out.
        try {
            flush();
        } catch (...) {
        }
        ::close(sock);
    }
}

void
SocketChannel::shutdownBoth()
{
    if (sock >= 0)
        ::shutdown(sock, SHUT_RDWR);
}

void
SocketChannel::pollOrThrow(short events, uint64_t timeout_ms,
                           const char *what)
{
    pollfd pfd{};
    pfd.fd = sock;
    pfd.events = events;
    for (;;) {
        const int n = ::poll(&pfd, 1, int(timeout_ms));
        if (n > 0)
            return; // readable/writable (or HUP/ERR: the recv/send
                    // that follows reports the precise condition)
        if (n == 0) {
            channelMetrics().deadlineHits.inc();
            throw WireError(WireFault::Deadline,
                            std::string(what) + ": deadline (" +
                                std::to_string(timeout_ms) +
                                " ms) expired waiting on peer");
        }
        if (errno == EINTR)
            continue;
        throwErrno(WireFault::Fatal, "SocketChannel poll");
    }
}

void
SocketChannel::writeAll(const uint8_t *data, size_t len)
{
    while (len > 0) {
        if (sendTimeoutMs > 0)
            pollOrThrow(POLLOUT, sendTimeoutMs, "SocketChannel send");
        ssize_t n = ::send(sock, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno(ioFault(errno), "SocketChannel send");
        }
        data += n;
        len -= size_t(n);
    }
}

void
SocketChannel::sendBytes(const void *data, size_t len)
{
    if (len == 0)
        return;
    if (lastDir != 0) {
        lastDir = 0;
        turnCount.fetch_add(1, std::memory_order_relaxed);
        channelMetrics().turns.inc();
    }
    const auto *bytes = static_cast<const uint8_t *>(data);
    txBuf.insert(txBuf.end(), bytes, bytes + len);
    sent.fetch_add(len, std::memory_order_relaxed);
    channelMetrics().bytesSent.inc(len);
    if (txBuf.size() >= kFlushThreshold)
        flush();
}

void
SocketChannel::writeFrames(size_t from)
{
    // A single sendBytes can exceed the u32 frame-length field (the
    // threshold check fires only after a whole message is buffered);
    // split into as many maximal frames as needed — the reader
    // reassembles a byte stream, so frame boundaries are invisible.
    constexpr size_t kMaxFrame = 0xffffffffu;
    size_t off = from;
    while (off < txBuf.size()) {
        const uint32_t len =
            uint32_t(std::min(txBuf.size() - off, kMaxFrame));
        uint8_t header[4];
        header[0] = uint8_t(len);
        header[1] = uint8_t(len >> 8);
        header[2] = uint8_t(len >> 16);
        header[3] = uint8_t(len >> 24);
        writeAll(header, sizeof(header));
        writeAll(txBuf.data() + off, len);
        off += len;
        wireSent += len;
        // Link-rate pacing: a frame of b payload bytes occupies the
        // simulated link for 8b/rate seconds (headers ignored — the
        // accounting is payload-based everywhere).
        if (bandwidthBps > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(
                uint64_t(len) * 8'000'000 / bandwidthBps));
    }
    txBuf.clear(); // keeps capacity: steady state reuses the buffer
}

void
SocketChannel::applySendFault()
{
    faultDone = true;
    // 0-based offset of the trigger byte within the pending buffer.
    const size_t off = std::min(
        txBuf.size() - 1,
        size_t(fault.atSentByte > wireSent ? fault.atSentByte - wireSent - 1
                                           : 0));
    switch (fault.kind) {
      case FaultPlan::Kind::Delay:
        std::this_thread::sleep_for(
            std::chrono::microseconds(fault.delayUs));
        writeFrames(0);
        return;
      case FaultPlan::Kind::Corrupt:
        // One flipped payload byte; the frame itself stays well-formed
        // (framing corruption is the TruncateFrame case) — the damage
        // surfaces wherever the peer's protocol layer notices, or
        // doesn't: GMW shares carry no MAC, which is exactly what the
        // chaos grid documents.
        txBuf[off] ^= 0xa5;
        writeFrames(0);
        return;
      case FaultPlan::Kind::Close:
        txBuf.clear();
        shutdownBoth();
        throw WireError(WireFault::PeerClosed,
                        "fault injection: abrupt close");
      case FaultPlan::Kind::TruncateFrame: {
        // Promise the full frame, deliver only the bytes up to the
        // trigger, then vanish: the peer dies inside readFrame().
        const uint32_t len = uint32_t(
            std::min(txBuf.size(), size_t(0xffffffffu)));
        uint8_t header[4];
        header[0] = uint8_t(len);
        header[1] = uint8_t(len >> 8);
        header[2] = uint8_t(len >> 16);
        header[3] = uint8_t(len >> 24);
        writeAll(header, sizeof(header));
        writeAll(txBuf.data(), off);
        txBuf.clear();
        shutdownBoth();
        throw WireError(WireFault::PeerClosed,
                        "fault injection: frame truncated");
      }
      case FaultPlan::Kind::Stall: {
        // Partial frame, socket left OPEN: the peer blocks on the
        // missing bytes until ITS deadline fires — the one failure
        // mode only recv timeouts can contain.
        const uint32_t len = uint32_t(
            std::min(txBuf.size(), size_t(0xffffffffu)));
        uint8_t header[4];
        header[0] = uint8_t(len);
        header[1] = uint8_t(len >> 8);
        header[2] = uint8_t(len >> 16);
        header[3] = uint8_t(len >> 24);
        writeAll(header, sizeof(header));
        writeAll(txBuf.data(), off);
        txBuf.clear();
        throw WireError(WireFault::Transient,
                        "fault injection: stall after partial write");
      }
      case FaultPlan::Kind::None:
        writeFrames(0);
        return;
    }
}

void
SocketChannel::flush()
{
    if (txBuf.empty())
        return;
    trace::Span span("flush", "net", 0, txBuf.size());
    if (fault.armed() && !faultDone &&
        wireSent + txBuf.size() >= fault.atSentByte) {
        applySendFault();
        return;
    }
    writeFrames(0);
}

void
SocketChannel::readFrame()
{
    trace::Span span("read_frame", "net");
    uint8_t header[4];
    size_t got = 0;
    while (got < sizeof(header)) {
        if (recvTimeoutMs > 0)
            pollOrThrow(POLLIN, recvTimeoutMs, "SocketChannel recv");
        ssize_t n = ::recv(sock, header + got, sizeof(header) - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno(ioFault(errno), "SocketChannel recv");
        }
        if (n == 0)
            throw WireError(WireFault::PeerClosed,
                            "SocketChannel: peer closed the connection");
        got += size_t(n);
    }
    const uint32_t len = getU32(header);
    if (len == 0)
        throw WireError(WireFault::Protocol,
                        "SocketChannel: zero-length frame");
    if (len > kMaxFrameBytes)
        throw WireError(WireFault::Protocol,
                        "SocketChannel: oversized frame (" +
                            std::to_string(len) +
                            " bytes) — corrupt or hostile header");
    span.setArg(len);

    // Compact: all delivered payload has been consumed before another
    // frame is needed (recvBytes drains rxBuf first), so the buffer is
    // logically empty here and the cursor rewinds for reuse.
    if (rxPos == rxBuf.size()) {
        rxBuf.clear();
        rxPos = 0;
    }
    const size_t base = rxBuf.size();
    rxBuf.resize(base + len);
    size_t filled = 0;
    while (filled < len) {
        if (recvTimeoutMs > 0)
            pollOrThrow(POLLIN, recvTimeoutMs, "SocketChannel recv");
        ssize_t n = ::recv(sock, rxBuf.data() + base + filled,
                           len - filled, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwErrno(ioFault(errno), "SocketChannel recv");
        }
        if (n == 0)
            throw WireError(WireFault::PeerClosed,
                            "SocketChannel: peer closed mid-frame");
        filled += size_t(n);
    }
}

void
SocketChannel::recvBytes(void *data, size_t len)
{
    // About to wait on the peer: everything it needs must be on the
    // wire first.
    flush();
    if (len == 0)
        return;
    if (lastDir != 1) {
        lastDir = 1;
        channelMetrics().turns.inc();
        const uint64_t turn =
            turnCount.fetch_add(1, std::memory_order_relaxed) + 1;
        trace::instant("turn", "net", 0, turn);
        // Latency injection point: one sleep per turnaround models the
        // propagation delay of the half-round this endpoint now waits
        // on (see setSimulatedDelay).
        if (delayUs > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(delayUs));
    }
    auto *bytes = static_cast<uint8_t *>(data);
    size_t got = 0;
    while (got < len) {
        if (rxPos == rxBuf.size())
            readFrame();
        const size_t take = std::min(len - got, rxBuf.size() - rxPos);
        std::memcpy(bytes + got, rxBuf.data() + rxPos, take);
        rxPos += take;
        got += take;
    }
    received.fetch_add(len, std::memory_order_relaxed);
    channelMetrics().bytesReceived.inc(len);
}

// ---------------------------------------------------------------------------
// Connection helpers
// ---------------------------------------------------------------------------

int
tcpListen(uint16_t port, int backlog)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno(WireFault::Fatal, "socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        ::close(fd);
        throwErrno(WireFault::Fatal, "bind");
    }
    if (::listen(fd, backlog) < 0) {
        ::close(fd);
        throwErrno(WireFault::Fatal, "listen");
    }
    return fd;
}

uint16_t
tcpListenPort(int listen_fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) < 0)
        throwErrno(WireFault::Fatal, "getsockname");
    return ntohs(addr.sin_port);
}

int
acceptOn(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return fd;
        if (errno == EINTR)
            continue;
        return -1; // listener closed/shut down: accept loop exits
    }
}

std::unique_ptr<SocketChannel>
tcpConnect(const std::string &host, uint16_t port,
           const std::string &bind_host)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno(WireFault::Fatal, "socket");
    if (!bind_host.empty()) {
        sockaddr_in src{};
        src.sin_family = AF_INET;
        if (::inet_pton(AF_INET, bind_host.c_str(), &src.sin_addr) !=
            1) {
            ::close(fd);
            throw WireError(WireFault::Fatal,
                            "tcpConnect: bad bind host " + bind_host);
        }
        if (::bind(fd, reinterpret_cast<sockaddr *>(&src),
                   sizeof(src)) < 0) {
            ::close(fd);
            throwErrno(WireFault::Fatal, "tcpConnect bind");
        }
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw WireError(WireFault::Fatal,
                        "tcpConnect: bad host " + host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        // Refused/timed out/unreachable: the server may be restarting
        // — the canonical retry-with-backoff case.
        const bool transient = err == ECONNREFUSED ||
                               err == ETIMEDOUT ||
                               err == EHOSTUNREACH ||
                               err == ENETUNREACH || err == EAGAIN;
        throwErrno(transient ? WireFault::Transient : WireFault::Fatal,
                   "connect");
    }
    return std::make_unique<SocketChannel>(fd);
}

int
unixListen(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno(WireFault::Fatal, "socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        throw WireError(WireFault::Fatal,
                        "unixListen: path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        ::close(fd);
        throwErrno(WireFault::Fatal, "bind (unix)");
    }
    if (::listen(fd, 16) < 0) {
        ::close(fd);
        throwErrno(WireFault::Fatal, "listen (unix)");
    }
    return fd;
}

std::unique_ptr<SocketChannel>
unixConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno(WireFault::Fatal, "socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        throw WireError(WireFault::Fatal,
                        "unixConnect: path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        errno = err;
        const bool transient =
            err == ECONNREFUSED || err == ENOENT || err == EAGAIN;
        throwErrno(transient ? WireFault::Transient : WireFault::Fatal,
                   "connect (unix)");
    }
    return std::make_unique<SocketChannel>(fd);
}

std::pair<std::unique_ptr<SocketChannel>, std::unique_ptr<SocketChannel>>
socketChannelPair()
{
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) < 0)
        throwErrno(WireFault::Fatal, "socketpair");
    return {std::make_unique<SocketChannel>(fds[0]),
            std::make_unique<SocketChannel>(fds[1])};
}

} // namespace ironman::net
