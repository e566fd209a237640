/**
 * @file
 * Real socket transport for the two-party protocols.
 *
 * SocketChannel implements the Channel interface over a connected
 * stream socket — TCP (with TCP_NODELAY, so the interactive SPCOT
 * rounds are not Nagle-delayed) or Unix-domain. It is the transport
 * under src/svc: the COT service daemon accepts one SocketChannel per
 * client session, and the client library drives its engine half over
 * the mirror endpoint.
 *
 * Framing: writes are buffered and leave the process as length-framed
 * records ([u32 payload length][payload]). A frame is cut when the
 * endpoint turns around to receive (recvBytes flushes pending writes
 * first — a party about to block on its peer must have pushed
 * everything the peer needs), when the buffer crosses
 * kFlushThreshold, or on explicit flush(). The reader reassembles
 * frames into a drain-and-reuse receive buffer, so steady-state
 * traffic performs no heap allocation on either side once the buffers
 * have grown to the protocol's burst size — the same property
 * MemoryDuplex provides in-process. Inbound frames larger than
 * kMaxFrameBytes are rejected (Protocol error) before any allocation:
 * a corrupted or hostile length field must not become an allocation.
 *
 * Accounting mirrors MemoryDuplex: bytesSent()/bytesReceived() count
 * payload bytes (frame headers excluded, so byte counts are
 * transport-independent), and turns() counts direction changes
 * observed at this endpoint — a classic half-duplex protocol with r
 * round trips shows ~2r turns across both endpoints, which is what
 * the analytic NetworkModel consumes. The counters are relaxed
 * atomics so an observer thread (the session reaper) can watch for
 * progress without racing the protocol thread.
 *
 * Failure semantics: every transport error throws net::WireError with
 * the class a caller needs to pick retry-vs-abandon — PeerClosed for
 * EOF/reset, Deadline when a configured recv/send timeout expires,
 * Protocol for malformed frames (see wire_error.h). Deadlines are
 * poll-based: setRecvTimeout/setSendTimeout bound every blocking
 * kernel call, so a stalled peer cannot pin this thread forever.
 *
 * Test instrumentation (zero cost when unused): setFaultPlan arms one
 * deterministic fault (fault.h), setSimulatedDelay injects per-turn
 * latency, setSimulatedBandwidth paces flushed frames to a link rate
 * — together they turn the analytic LAN/WAN models into measured
 * conditions and make failure handling testable on loopback.
 */

#ifndef IRONMAN_NET_SOCKET_CHANNEL_H
#define IRONMAN_NET_SOCKET_CHANNEL_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "net/fault.h"
#include "net/wire_error.h"

namespace ironman::net {

/** Channel endpoint over a connected stream socket. */
class SocketChannel final : public Channel
{
  public:
    /** Frames are cut early once this many buffered bytes accumulate. */
    static constexpr size_t kFlushThreshold = size_t(256) << 10;

    /**
     * Largest inbound frame accepted. Generous (the validity bound on
     * wire params allows ~1 GB of blocks per extension) but finite, so
     * a corrupted length header is a typed Protocol error instead of a
     * multi-gigabyte allocation.
     */
    static constexpr uint32_t kMaxFrameBytes = uint32_t(1) << 30;

    /** Adopt a connected socket; Nagle is disabled on TCP ones. */
    explicit SocketChannel(int fd);
    ~SocketChannel() override;

    SocketChannel(const SocketChannel &) = delete;
    SocketChannel &operator=(const SocketChannel &) = delete;

    void sendBytes(const void *data, size_t len) override;
    void recvBytes(void *data, size_t len) override;
    uint64_t bytesSent() const override
    {
        return sent.load(std::memory_order_relaxed);
    }

    /** Push any buffered writes out as one frame. */
    void flush();

    /** Payload bytes received so far. */
    uint64_t bytesReceived() const
    {
        return received.load(std::memory_order_relaxed);
    }

    /** Direction changes observed at this endpoint. */
    uint64_t turns() const
    {
        return turnCount.load(std::memory_order_relaxed);
    }

    /** The underlying file descriptor (for shutdown() by an owner). */
    int fd() const { return sock; }

    /**
     * Peer identity for per-client policy: the numeric remote address
     * (no port) for TCP, "unix:uid:<uid>" for Unix-domain peers (from
     * SO_PEERCRED — kernel-asserted, unlike an IP, so local quota
     * buckets are per user instead of one shared "unix" bucket),
     * "unknown" when the socket cannot say. Captured at construction.
     */
    const std::string &peerAddress() const { return peer; }

    /**
     * Shut down both directions of the socket, waking any thread
     * blocked in recvBytes() (it will throw). Safe to call from
     * another thread; close happens in the destructor.
     */
    void shutdownBoth();

    /**
     * Bound every blocking recv: once no bytes arrive for this long,
     * recvBytes throws WireError{Deadline}. 0 disables (wait forever).
     * Servers MUST set this on session channels — it is what turns a
     * stalled peer from a pinned thread into a typed error.
     */
    void setRecvTimeout(uint64_t ms) { recvTimeoutMs = ms; }
    uint64_t recvTimeoutMs_() const { return recvTimeoutMs; }

    /** Same bound for blocking sends (a peer that stopped reading). */
    void setSendTimeout(uint64_t ms) { sendTimeoutMs = ms; }

    /**
     * Arm one deterministic fault (see fault.h). One-shot: after it
     * fires the channel behaves normally again (where "normally" may
     * mean "is closed").
     */
    void setFaultPlan(const FaultPlan &plan)
    {
        fault = plan;
        faultDone = false;
    }

    /**
     * Inject simulated one-way latency: every direction turnaround
     * into receiving sleeps this long before reading, so a protocol
     * with r round trips at this endpoint pays ~r delays — the wire
     * format is untouched (no timestamps, no negotiation) and byte
     * accounting is unchanged. Enable on one endpoint with the full
     * RTT, or on both with the one-way delay, for the same total.
     * Benches use this to turn the analytic LAN/WAN rows into
     * measured ones and to expose round-latency hiding (request
     * pipelining) even on loopback.
     */
    void setSimulatedDelay(uint64_t one_way_us) { delayUs = one_way_us; }
    uint64_t simulatedDelayUs() const { return delayUs; }

    /**
     * Pace flushed frames to a link rate: after each frame's payload
     * is written, sleep payload_bits / rate. Combined with
     * setSimulatedDelay this completes the NetworkModel (bandwidth +
     * propagation) as a measured condition. 0 disables.
     */
    void setSimulatedBandwidth(uint64_t bits_per_sec)
    {
        bandwidthBps = bits_per_sec;
    }
    uint64_t simulatedBandwidthBps() const { return bandwidthBps; }

  private:
    void writeAll(const uint8_t *data, size_t len);
    void writeFrames(size_t from);
    void applySendFault();
    void readFrame();
    void pollOrThrow(short events, uint64_t timeout_ms,
                     const char *what);

    int sock = -1;
    std::string peer; ///< quota key; see peerAddress()
    std::vector<uint8_t> txBuf; ///< unframed pending payload
    std::vector<uint8_t> rxBuf; ///< reassembled payload, [rxPos, size)
    size_t rxPos = 0;
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> received{0};
    std::atomic<uint64_t> turnCount{0};
    uint64_t wireSent = 0; ///< payload bytes actually flushed
    uint64_t delayUs = 0; ///< simulated one-way latency per turnaround
    uint64_t bandwidthBps = 0; ///< simulated link rate, 0 = unshaped
    uint64_t recvTimeoutMs = 0; ///< 0 = block forever
    uint64_t sendTimeoutMs = 0;
    FaultPlan fault;
    bool faultDone = false;
    int lastDir = -1; ///< 0 = sending, 1 = receiving
};

// ---------------------------------------------------------------------------
// Connection helpers (throw net::WireError on failure)
// ---------------------------------------------------------------------------

/**
 * Bind + listen on 127.0.0.1:@p port (0 = ephemeral). Returns the
 * listening fd; query the bound port with tcpListenPort().
 */
int tcpListen(uint16_t port, int backlog = 16);

/** Port a tcpListen() fd is bound to. */
uint16_t tcpListenPort(int listen_fd);

/**
 * Accept one connection; returns -1 when the listener was closed or
 * shut down (the accept loop's exit signal).
 */
int acceptOn(int listen_fd);

/**
 * Connect to @p host:@p port (numeric host, e.g. "127.0.0.1"). A
 * refused or timed-out connect throws WireError{Transient} — the
 * server may be mid-restart, which is precisely the retry case.
 * @p bind_host optionally binds the SOURCE address first (any
 * 127.0.0.0/8 address works unprivileged on loopback) — tests use it
 * to give an adversarial client its own quota identity.
 */
std::unique_ptr<SocketChannel> tcpConnect(const std::string &host,
                                          uint16_t port,
                                          const std::string &bind_host =
                                              std::string());

/** Bind + listen on a Unix-domain path (unlinked first if stale). */
int unixListen(const std::string &path);

/** Connect to a Unix-domain listener. */
std::unique_ptr<SocketChannel> unixConnect(const std::string &path);

/**
 * A connected Unix-domain socket pair — the in-process way to exercise
 * the real-socket code path (tests).
 */
std::pair<std::unique_ptr<SocketChannel>, std::unique_ptr<SocketChannel>>
socketChannelPair();

} // namespace ironman::net

#endif // IRONMAN_NET_SOCKET_CHANNEL_H
