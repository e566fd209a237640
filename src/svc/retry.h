/**
 * @file
 * Reconnect policy of infer::InferClient, the one recovery owner of a
 * served client: exponential backoff with deterministic jitter under
 * a finite attempt budget. The client redials its whole transport
 * (channel, both COT sessions, both reservoirs) under it; a
 * svc::Reservoir never redials on its own.
 *
 * The policy consumes exactly one bit of the error taxonomy —
 * net::WireError::retryable() — and owns everything else: how many
 * fresh connections to attempt, how long to wait between them, and
 * how to de-synchronize a fleet of clients all reconnecting to the
 * same restarted daemon (jitter, seeded so tests are reproducible).
 *
 * The backoff for attempt a (1-based) is
 *
 *     min(base * 2^(a-1), max) * (0.5 + jitter(a)/2)
 *
 * i.e. full value down to half value, drawn from a splitmix64 tape
 * over (jitterSeed, a) — two clients with different seeds spread out,
 * one client replays identically.
 */

#ifndef IRONMAN_SVC_RETRY_H
#define IRONMAN_SVC_RETRY_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "net/wire_error.h"

namespace ironman::svc {

struct RetryPolicy
{
    /** Total connection attempts (the first one included); >= 1. */
    unsigned maxAttempts = 5;

    uint64_t baseBackoffMs = 20;
    uint64_t maxBackoffMs = 2000;

    /** Jitter tape seed — vary per client, fix per test. */
    uint64_t jitterSeed = 1;

    /** Backoff before (1-based) attempt @p attempt; 0 before the first. */
    uint64_t
    backoffMs(unsigned attempt) const
    {
        if (attempt <= 1)
            return 0;
        uint64_t ms = baseBackoffMs;
        for (unsigned i = 2; i < attempt && ms < maxBackoffMs; ++i)
            ms *= 2;
        if (ms > maxBackoffMs)
            ms = maxBackoffMs;
        // Deterministic jitter in [ms/2, ms].
        uint64_t z = jitterSeed + attempt * 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        z ^= z >> 31;
        return ms / 2 + z % (ms / 2 + 1);
    }

    void
    sleepBefore(unsigned attempt) const
    {
        const uint64_t ms = backoffMs(attempt);
        if (ms > 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
};

/**
 * Observer of retry/backoff events (attempt is 1-based, backoff_ms is
 * the sleep ABOUT to be taken, what is the triggering error). The
 * chaos demos print these; production would count them.
 */
using RetryEventHook = std::function<void(
    unsigned attempt, uint64_t backoff_ms, const std::string &what)>;

} // namespace ironman::svc

#endif // IRONMAN_SVC_RETRY_H
