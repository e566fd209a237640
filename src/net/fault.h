/**
 * @file
 * Deterministic fault injection for the socket transport.
 *
 * A FaultPlan arms ONE fault on a SocketChannel, triggered when the
 * channel's cumulative payload-bytes-sent counter crosses a scheduled
 * offset. Because that counter is a deterministic function of the
 * protocol (not of timing), a seeded plan reproduces the same failure
 * at the same protocol point on every run — which is what lets the
 * chaos tests assert exact recovery behavior instead of "usually
 * survives".
 *
 * Fault kinds (what the INSTRUMENTED endpoint does at the trigger):
 *
 *   Close         — shut the socket down both ways and throw
 *                   (PeerClosed). The peer sees a clean EOF: the
 *                   "client died" / "server killed" case.
 *   TruncateFrame — emit a frame header promising N payload bytes,
 *                   deliver only half, then shut down (PeerClosed
 *                   locally). The peer dies inside a frame: the
 *                   "connection cut mid-record" case.
 *   Stall         — emit a partial frame and then go silent WITHOUT
 *                   closing (throws Transient locally; the fd stays
 *                   open while the owner keeps the channel alive).
 *                   The peer blocks until its own recv deadline: the
 *                   case only deadlines can contain.
 *   Corrupt       — XOR one payload byte in the next outgoing frame
 *                   and continue normally. No local error: the damage
 *                   is the peer's problem to detect (or survive).
 *   Delay         — sleep delayUs once at the trigger, then continue.
 *                   A latency spike, not an error.
 *
 * Each plan fires at most once (one-shot). Offsets trigger on the
 * SEND path (at flush time, where frames are cut). Offsets beyond the
 * run never fire — a grid sweep can arm blindly.
 */

#ifndef IRONMAN_NET_FAULT_H
#define IRONMAN_NET_FAULT_H

#include <cstdint>

namespace ironman::net {

struct FaultPlan
{
    enum class Kind : uint8_t
    {
        None = 0,
        Close,
        TruncateFrame,
        Stall,
        Corrupt,
        Delay,
    };

    Kind kind = Kind::None;

    /** Fire when cumulative payload bytes sent reach this (send path). */
    uint64_t atSentByte = UINT64_MAX;

    /** Kind::Delay: spike length. */
    uint64_t delayUs = 0;

    bool armed() const { return kind != Kind::None; }

    /** A plan firing once cumulative sent payload reaches @p at_byte. */
    static FaultPlan
    atByte(Kind k, uint64_t at_byte, uint64_t delay_us = 0)
    {
        FaultPlan p;
        p.kind = k;
        p.atSentByte = at_byte;
        p.delayUs = delay_us;
        return p;
    }

    /**
     * Seeded plan: the byte offset is drawn deterministically from
     * @p seed in [1, max_byte] (splitmix64), so a grid over seeds
     * scatters the same kinds across different protocol points while
     * every individual run stays reproducible.
     */
    static FaultPlan
    seeded(Kind k, uint64_t seed, uint64_t max_byte,
           uint64_t delay_us = 0)
    {
        uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return atByte(k, max_byte ? 1 + z % max_byte : 1, delay_us);
    }

    const char *
    kindName() const
    {
        switch (kind) {
          case Kind::None: return "none";
          case Kind::Close: return "close";
          case Kind::TruncateFrame: return "truncate";
          case Kind::Stall: return "stall";
          case Kind::Corrupt: return "corrupt";
          case Kind::Delay: return "delay";
        }
        return "?";
    }
};

} // namespace ironman::net

#endif // IRONMAN_NET_FAULT_H
