/**
 * @file
 * Lightweight named counters and wall-clock timers.
 *
 * Protocol objects expose a StatSet so benches can read operation
 * counts (AES calls, ChaCha calls, bytes moved, DRAM accesses...)
 * without recompiling with instrumentation flags.
 *
 * Scope guardrail — StatSet vs common/metrics.h:
 *  - StatSet is OFFLINE, bench-only accounting: string-keyed map,
 *    allocates on every new name, and has NO concurrency story —
 *    callers must externally serialize all access (including reads;
 *    get()/all() walk the same map add() mutates). Never place
 *    it on a serving hot path: it would break both thread safety and
 *    the zero-alloc warm-path invariant (DESIGN.md invariant 12).
 *  - Live, multi-threaded, hot-path telemetry belongs to the
 *    `metrics::` registry (common/metrics.h): pre-registered handles,
 *    relaxed-atomic record paths, snapshots priced at read time
 *    (invariant 17).
 */

#ifndef IRONMAN_COMMON_STATS_H
#define IRONMAN_COMMON_STATS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace ironman {

/** A named bag of monotonically increasing counters. */
class StatSet
{
  public:
    /** Add @p delta to counter @p name (creating it at zero). */
    void
    add(const std::string &name, uint64_t delta = 1)
    {
        counters[name] += delta;
    }

    /** Current value (0 if never touched). */
    uint64_t get(const std::string &name) const;

    /** Reset every counter to zero. */
    void clear() { counters.clear(); }

    /** Merge another set into this one (summing matching names).
     * Self-merge is a no-op. */
    void merge(const StatSet &o);

    const std::map<std::string, uint64_t> &all() const { return counters; }

  private:
    std::map<std::string, uint64_t> counters;
};

/** Monotonic stopwatch measuring seconds of wall time. */
class Timer
{
  public:
    Timer() { reset(); }

    void reset() { start = std::chrono::steady_clock::now(); }

    /** Seconds elapsed since construction or last reset(). */
    double
    seconds() const
    {
        auto now = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(now - start).count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

} // namespace ironman

#endif // IRONMAN_COMMON_STATS_H
