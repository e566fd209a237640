/**
 * @file
 * Process-wide live telemetry registry: lock-free counters, gauges and
 * HDR-style log-linear latency histograms with pre-registered handles.
 *
 * Division of labor vs common/stats.h:
 *  - `metrics::` (this file) is the RUNTIME surface. Handles are
 *    registered once (allocating, mutex-guarded) and then recorded
 *    through forever after with a single relaxed atomic RMW — safe on
 *    the zero-alloc warm paths (DESIGN.md invariants 12 and 17) and
 *    from any thread. Snapshots (text render, JSON, percentiles) do
 *    all the expensive work at read time, never at record time.
 *  - `StatSet` (common/stats.h) stays the OFFLINE bench surface:
 *    string-keyed, allocating, single-threaded.
 *
 * Recording is always on.
 */

#ifndef IRONMAN_COMMON_METRICS_H
#define IRONMAN_COMMON_METRICS_H

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ironman::metrics {

/** Always true; kept because bench/ledger/ledger.cpp's hygiene check
 *  reads it. */
inline bool enabled() { return true; }

/** Monotonic microseconds (steady clock) for latency measurement. */
uint64_t nowUs();

/** Monotonically increasing event count. Record path: 1 relaxed RMW. */
class Counter
{
  public:
    void
    inc(uint64_t delta = 1)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/** Signed level (stock depth, active sessions). Updated by deltas so
 * several instances sharing one name sum instead of clobbering. */
class Gauge
{
  public:
    void
    add(int64_t delta)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    void sub(int64_t delta) { add(-delta); }

    /** Absolute store — only for single-writer gauges. */
    void
    set(int64_t value)
    {
        v_.store(value, std::memory_order_relaxed);
    }

    int64_t value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> v_{0};
};

/**
 * Log-linear (HDR-style) histogram of non-negative integer samples.
 *
 * Values below 2*kSubBuckets get exact unit buckets; above that each
 * power-of-two octave is split into kSubBuckets equal slices, so the
 * relative bucket width is bounded by 1/kSubBuckets (12.5%) across the
 * whole tracked range [0, 2^36). Larger samples land in one overflow
 * bucket. Recording is three relaxed RMWs and no branches;
 * percentiles are computed only in snapshot().
 */
class Histogram
{
  public:
    static constexpr unsigned kSubBucketBits = 3;
    static constexpr unsigned kSubBuckets = 1u << kSubBucketBits;
    /** Octaves with sub-bucket resolution; tracked max is
     * kSubBuckets << kOctaves = 2^36 (19h in us, 64 GB in bytes). */
    static constexpr unsigned kOctaves = 33;
    static constexpr unsigned kBuckets = (kOctaves + 1) * kSubBuckets;
    static constexpr unsigned kOverflowIndex = kBuckets;

    /** Bucket for sample @p v (kOverflowIndex for v >= 2^36). */
    static size_t
    bucketIndex(uint64_t v)
    {
        if (v < 2 * kSubBuckets)
            return size_t(v);
        const unsigned msb = 63u - unsigned(std::countl_zero(v));
        const size_t idx = size_t(msb - kSubBucketBits + 1) * kSubBuckets +
                           size_t((v >> (msb - kSubBucketBits)) - kSubBuckets);
        return idx < kBuckets ? idx : kOverflowIndex;
    }

    /** Smallest sample that lands in bucket @p i. */
    static uint64_t
    bucketLowerBound(size_t i)
    {
        if (i >= kBuckets)
            return uint64_t(kSubBuckets) << kOctaves;
        if (i < 2 * kSubBuckets)
            return uint64_t(i);
        return (uint64_t(kSubBuckets) + i % kSubBuckets)
               << (i / kSubBuckets - 1);
    }

    void
    record(uint64_t v)
    {
        buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    /** Convenience: record now()-t0 for a metrics::nowUs() start. */
    void
    recordSinceUs(uint64_t t0_us)
    {
        record(nowUs() - t0_us);
    }

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

    struct Snapshot {
        uint64_t count = 0;
        uint64_t sum = 0;
        /** Percentiles reported as the containing bucket's lower
         * bound: deterministic, and monotone by construction. */
        uint64_t p50 = 0;
        uint64_t p90 = 0;
        uint64_t p99 = 0;
        uint64_t overflow = 0; ///< samples beyond the tracked range
    };

    /** Consistent-enough read (relaxed loads; concurrent recording
     * may skew the tail by in-flight samples, never corrupt it). */
    Snapshot snapshot() const;

    /**
     * Visit the non-empty buckets in ascending order as
     * fn(upper_bound, cumulative_count) — the Prometheus
     * `_bucket{le="..."}` shape, sparse so a 272-bucket histogram
     * with a tight distribution stays a handful of lines. Overflow
     * samples are NOT visited; the caller closes the series with an
     * explicit le="+Inf" line at count().
     */
    template <typename Fn>
    void
    forEachNonEmptyBucket(Fn &&fn) const
    {
        uint64_t cum = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            const uint64_t c =
                buckets_[i].load(std::memory_order_relaxed);
            if (c == 0)
                continue;
            cum += c;
            fn(bucketLowerBound(i + 1), cum);
        }
    }

  private:
    std::atomic<uint64_t> buckets_[kBuckets + 1] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
};

/**
 * Process-wide name -> handle registry. Handles live forever at
 * stable addresses (deque-backed); registering the same name twice
 * returns the same handle, so independent subsystems (or several
 * instances of one) share a process-wide total. Registration takes a
 * mutex and may allocate — do it at construction/warm-up, never on
 * the hot path (invariant 17).
 */
class Registry
{
  public:
    static Registry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Read-side lookups by name; zero/default when absent. */
    uint64_t counterValue(const std::string &name) const;
    int64_t gaugeValue(const std::string &name) const;
    Histogram::Snapshot histogramSnapshot(const std::string &name) const;

    /**
     * Prometheus-style exposition: one "name value" line per counter
     * and gauge, and name_count/_sum/_p50/_p90/_p99 plus cumulative
     * name_bucket{le="..."} lines per histogram, sorted by name.
     */
    std::string renderText() const;

    /** The writeJson() document as a string (the /metrics.json
     * endpoint body). Schema "ironman.metrics.v1". */
    std::string renderJson() const;

    /** JSON snapshot (bench::JsonWriter idiom — see BENCH_*.json).
     * Returns false if the file cannot be written. */
    bool writeJson(const std::string &path) const;

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

  private:
    Registry() = default;
    struct Impl;
    Impl &impl() const;
};

/** Shorthands for the singleton. */
inline Counter &counter(const std::string &name)
{
    return Registry::instance().counter(name);
}
inline Gauge &gauge(const std::string &name)
{
    return Registry::instance().gauge(name);
}
inline Histogram &histogram(const std::string &name)
{
    return Registry::instance().histogram(name);
}

} // namespace ironman::metrics

#endif // IRONMAN_COMMON_METRICS_H
