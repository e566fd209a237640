/**
 * @file
 * Typed transport/protocol error taxonomy for the serving stack.
 *
 * Everything that can go wrong between two parties on a wire falls
 * into one of a handful of classes, and which class it is decides the
 * caller's next move — retry on a fresh connection, give up on the
 * request, or give up on the configuration. Bare std::runtime_error
 * cannot carry that verdict, so the socket transport, the COT service
 * client/server, and the inference client/server all throw WireError
 * instead (it still IS a runtime_error, so existing catch sites keep
 * working unchanged).
 *
 * Classes:
 *
 *   Transient   — the operation failed but nothing is known to be
 *                 poisoned: connect refused (daemon restarting), an
 *                 injected stall, a wire hiccup before any protocol
 *                 state was exchanged. Retry with backoff.
 *   PeerClosed  — the peer went away (EOF, ECONNRESET, EPIPE). The
 *                 session is dead; a NEW session may work. Retryable.
 *   Deadline    — a recv/send/stock deadline expired: the peer is
 *                 stalled or wedged, not provably gone. The session is
 *                 abandoned; a new one may work. Retryable.
 *   Protocol    — the bytes were wrong: bad magic, an oversized or
 *                 zero-length frame, an opcode out of range, a depth
 *                 violation. One of the two ends is buggy or hostile;
 *                 retrying the same exchange would fail the same way.
 *   Fatal       — the server answered and said no (quota, allowlist,
 *                 unknown model), or the local configuration is
 *                 impossible. Retrying cannot help.
 *
 * Retry policy consumes exactly one bit of this: retryable() — see
 * svc::RetryPolicy, which infer::InferClient's whole-transport redial
 * (the one recovery path) runs under.
 */

#ifndef IRONMAN_NET_WIRE_ERROR_H
#define IRONMAN_NET_WIRE_ERROR_H

#include <stdexcept>
#include <string>

namespace ironman::net {

enum class WireFault
{
    Transient = 0,
    PeerClosed = 1,
    Deadline = 2,
    Protocol = 3,
    Fatal = 4,
};

const char *wireFaultName(WireFault f);

class WireError : public std::runtime_error
{
  public:
    WireError(WireFault fault, const std::string &what)
        : std::runtime_error(what), fault_(fault)
    {
    }

    WireFault fault() const { return fault_; }

    /** Whether a fresh connection/session could plausibly succeed. */
    bool
    retryable() const
    {
        return fault_ == WireFault::Transient ||
               fault_ == WireFault::PeerClosed ||
               fault_ == WireFault::Deadline;
    }

  private:
    WireFault fault_;
};

inline const char *
wireFaultName(WireFault f)
{
    switch (f) {
      case WireFault::Transient: return "transient";
      case WireFault::PeerClosed: return "peer-closed";
      case WireFault::Deadline: return "deadline";
      case WireFault::Protocol: return "protocol";
      case WireFault::Fatal: return "fatal";
    }
    return "?";
}

/**
 * The retryable() verdict for an arbitrary in-flight exception: typed
 * wire errors answer for themselves, anything else is not retryable
 * (an IRONMAN_CHECK or a std::bad_alloc must never be papered over by
 * a reconnect loop).
 */
inline bool
isRetryable(const std::exception &e)
{
    const auto *we = dynamic_cast<const WireError *>(&e);
    return we != nullptr && we->retryable();
}

} // namespace ironman::net

#endif // IRONMAN_NET_WIRE_ERROR_H
