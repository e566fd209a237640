/**
 * @file
 * Shared pieces of the perf ledger's workload runner: run settings,
 * operation accounting, the metric report and sample statistics.
 *
 * Every workload times calls into the layers' public functions from
 * outside and reads counters the library already keeps (engine
 * stats(), the metrics::Registry, MlpRunner::layerStats(), channel
 * byte/turn counters). It never changes library code.
 */

#ifndef IRONMAN_LEDGER_LEDGER_H
#define IRONMAN_LEDGER_LEDGER_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "ot/ferret_params.h"
#include "svc/engine_pool.h"

namespace ledger {

/** One workload run, as the command line asked for it. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;  ///< each measured phase (default: run_seconds)
    bool trace = false;  ///< per-layer run (untraced + traced phases)
    int setups = 5;      ///< fresh set-ups; setup_s is their median
    bool reduced = false; ///< selfcheck: ote-2e24 runs the 2^20 set
    /** Selfcheck: corrupt the output of measured operation
     * corruptOp (0-based) before it is checked; -1 = never. */
    long corruptOp = -1;
    std::string traceOut; ///< Chrome trace of the traced phase
};

/** Attempted and failed operations; every operation is checked. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    note(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note; ///< printed beside the value, not in the JSON
};

/** Metrics one run measured, in the order they were set. */
class Report
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit,
        const std::string &note = std::string())
    {
        metrics.push_back({name, value, unit, note});
    }

    const Metric *
    find(const std::string &name) const
    {
        for (const Metric &m : metrics)
            if (m.name == name)
                return &m;
        return nullptr;
    }

    const std::vector<Metric> &all() const { return metrics; }

  private:
    std::vector<Metric> metrics;
};

/** What one workload run hands back to main(). */
struct RunResult
{
    Tally tally;
    Report report;
    /** Configured concurrency, printed so the 4-thread budget can be
     * checked: load threads, connections, engine worker threads. */
    int loadThreads = 0;
    int connections = 0;
    int engineWorkers = 0;
};

/** Linear-interpolated percentile (q in [0, 1]); 0 when empty. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

/** Seconds to milliseconds, element-wise. */
inline std::vector<double>
toMs(std::vector<double> seconds)
{
    for (double &s : seconds)
        s *= 1e3;
    return seconds;
}

/** Time one call; returns seconds. */
template <typename F>
double
timed(F &&fn)
{
    ironman::Timer t;
    fn();
    return t.seconds();
}

/** Peak resident set of this process so far, MB (getrusage). */
double peakRssMb();

/**
 * Hand freed heap back to the OS after tearing a set-up down, so the
 * next set-up's peak is not stacked on the last one's free lists and
 * peak_rss_mb measures one live system.
 */
void releaseFreedMemory();

/**
 * The phases of a per-layer run: @p measure runs untraced for half of
 * cfg.seconds, with the span recorder on for cfg.seconds (its Chrome
 * trace goes to cfg.traceOut), then untraced for another half. Returns
 * the traced phase and the throughput (@p rate) tracing cost, in % of
 * the mean of the two untraced halves — which cancels drift that is
 * linear in time.
 */
template <typename Measure, typename Rate>
auto
tracedPhases(const RunConfig &cfg, Measure &&measure, Rate &&rate)
{
    RunConfig half = cfg;
    half.seconds = cfg.seconds / 2;
    const auto before = measure(half);
    ironman::trace::setEnabled(true);
    auto traced = measure(cfg);
    ironman::trace::setEnabled(false);
    if (!cfg.traceOut.empty() &&
        !ironman::trace::writeChromeTrace(cfg.traceOut))
        throw std::runtime_error("cannot write " + cfg.traceOut);
    const auto after = measure(half);
    const double untraced = (rate(before) + rate(after)) / 2;
    return std::make_pair(std::move(traced),
                          100 * (untraced - rate(traced)) / untraced);
}

/**
 * Engine times of one role (sender or receiver), summed over the
 * engines of that role a workload can read (StatSet deltas).
 */
struct EngineTimes
{
    double extensions = 0;
    double extendUs = 0;
    double spcotUs = 0;
    double lpnUs = 0;
    double prgOps = 0;

    /** Add @p now - @p before of one engine's stats(). */
    void add(const ironman::StatSet &now, const ironman::StatSet &before);

    EngineTimes
    operator-(const EngineTimes &o) const
    {
        return {extensions - o.extensions, extendUs - o.extendUs,
                spcotUs - o.spcotUs, lpnUs - o.lpnUs, prgOps - o.prgOps};
    }

    /** Mean extendInto time, us (0 with no extensions). */
    double
    extendUsPerExt() const
    {
        return extensions > 0 ? extendUs / extensions : 0;
    }
};

/**
 * The end-to-end metrics every workload reports: set-up time (median
 * of the set-ups), throughput in the workload's operations, and the
 * latency median and @p tail_q percentile of @p latency_ms (one sample
 * per @p sample_name).
 */
void reportEndToEnd(Report &r, const std::vector<double> &setup_s,
                    double ops_per_s, const std::string &ops_note,
                    const std::vector<double> &latency_ms, double tail_q,
                    const std::string &sample_name);

/**
 * Set the ot.* engine metrics, per extension, from the slower of
 * @p sender and @p receiver (the role on the blocking path; a role with
 * no extensions is skipped), plus wire bytes per extension. SPCOT of a
 * pipelined sender runs inside its LPN window, so only the receiver's
 * SPCOT counts as serial. @p covers says what span of the run the
 * times come from.
 */
void reportEngine(Report &r, const EngineTimes &sender,
                  const EngineTimes &receiver, double wire_bytes_per_ext,
                  const std::string &covers);

/**
 * Lifetime engine times, per role, of every idle engine in @p pool (all
 * built for @p p). Call only once no session holds an engine; the
 * difference of two calls covers what ran between them.
 */
std::pair<EngineTimes, EngineTimes>
poolEngineTimes(ironman::svc::EnginePool &pool,
                const ironman::ot::FerretParams &p);

/** Current value of a metrics::Registry counter. */
uint64_t registryCounter(const char *name);

/**
 * svc.engine_* from the EnginePool registry counters (whole run), less
 * the checkouts poolEngineTimes() made to read engine stats.
 */
void reportPoolCounters(Report &r, int setups);

/** Poll @p done every millisecond; throw after @p timeout_s seconds. */
template <typename F>
void
waitUntil(F &&done, double timeout_s, const char *what)
{
    ironman::Timer t;
    while (!done()) {
        if (t.seconds() > timeout_s)
            throw std::runtime_error(std::string("timed out waiting for ") +
                                     what);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

// Workloads (each in its own translation unit).
RunResult runOte(const RunConfig &cfg);
RunResult runCotSvc(const RunConfig &cfg);
RunResult runInfer(const RunConfig &cfg, bool wan);

/** Isolated kernel timings on the 2^20 and 2^24 sets (traced runs,
 * after the workload has freed its system). */
void reportKernels(Report &r);

} // namespace ledger

#endif // IRONMAN_LEDGER_LEDGER_H
