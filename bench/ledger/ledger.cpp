/**
 * @file
 * The perf ledger's workload runner: runs ONE workload in this process
 * and prints every metric BENCHMARK.json names for the run's mode, one
 * `workload metric value unit` line each, then a final JSON line
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * and the same result (plus the host fingerprint) to --json-out.
 *
 *   ledger --workload W --seed S [--seconds T] [--trace 0|1]
 *          [--json-out FILE] [--trace-out FILE] [--bench BENCHMARK.json]
 *   ledger --selfcheck
 *
 * --seconds defaults to BENCHMARK.json's run_seconds.
 *
 * Untraced runs (--trace 0) report the end-to-end metrics; traced runs
 * (--trace 1) measure the workload untraced, traced, then untraced
 * again, report the per-layer metrics and write the traced phase's
 * Chrome trace. A per-layer metric of a layer the workload does not
 * exercise is 0 and marked idle. The exit code is non-zero when any
 * operation failed its check.
 *
 * Run hygiene: untraced runs refuse to start with IRONMAN_TRACE on,
 * and every run refuses IRONMAN_METRICS=off (the ledger reads the
 * registry). bench/ledger/run.sh starts one process per workload.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/metrics.h"
#include "common/trace.h"
#include "json.h"
#include "ledger.h"
#include "ot/lpn.h"

namespace ledger {

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}

void
releaseFreedMemory()
{
    malloc_trim(0);
}

namespace {

/** Checkouts poolEngineTimes() made; every one is a warm hit. */
uint64_t statReadCheckouts = 0;

} // namespace

uint64_t
registryCounter(const char *name)
{
    return ironman::metrics::Registry::instance().counterValue(name);
}

void
reportPoolCounters(Report &r, int setups)
{
    const double checkouts =
        double(registryCounter("svc_engine_checkouts_total") -
               statReadCheckouts);
    const double warm_hits =
        double(registryCounter("svc_engine_warm_hits_total") -
               statReadCheckouts);
    r.set("svc.engine_checkouts", checkouts, "count",
          "whole run, " + std::to_string(setups) + " set-ups");
    r.set("svc.engine_warm_hit_ratio", warm_hits / checkouts, "ratio",
          "warm hits over checkouts");
    r.set("svc.engines_built",
          double(registryCounter("svc_engine_built_total")), "count",
          "whole run");
}

void
EngineTimes::add(const ironman::StatSet &now, const ironman::StatSet &before)
{
    auto d = [&](const char *key) {
        return double(now.get(key) - before.get(key));
    };
    extensions += d("extensions");
    extendUs += d("extend_us");
    spcotUs += d("spcot_us");
    lpnUs += d("lpn_prefix_us") + d("lpn_bits_us") + d("lpn_us");
    prgOps += d("spcot_prg_ops");
}

void
reportEndToEnd(Report &r, const std::vector<double> &setup_s,
               double ops_per_s, const std::string &ops_note,
               const std::vector<double> &latency_ms, double tail_q,
               const std::string &sample_name)
{
    const std::string of =
        " of " + std::to_string(latency_ms.size()) + " " + sample_name;
    std::string tail = "p";
    tail += std::to_string(int(tail_q * 100 + 0.5));
    r.set("setup_s", median(setup_s), "s",
          "median of " + std::to_string(setup_s.size()) + " set-ups");
    r.set("ops_per_s", ops_per_s, "op/s", ops_note);
    r.set("op_p50_ms", median(latency_ms), "ms", "p50" + of);
    r.set("op_tail_ms", percentile(latency_ms, tail_q), "ms", tail + of);
}

void
reportEngine(Report &r, const EngineTimes &sender,
             const EngineTimes &receiver, double wire_bytes_per_ext,
             const std::string &covers)
{
    const bool recv = receiver.extendUsPerExt() >= sender.extendUsPerExt();
    const EngineTimes &e = recv ? receiver : sender;
    const EngineTimes &other = recv ? sender : receiver;
    const double n = e.extensions > 0 ? e.extensions : 1;
    r.set("ot.extend_ms", e.extendUs / n / 1e3, "ms",
          std::string(recv ? "receiver" : "sender") + " engines" +
              (other.extensions > 0 ? ", the slower role" : "") + "; " +
              covers);
    r.set("ot.spcot_ms_per_ext", e.spcotUs / n / 1e3, "ms");
    r.set("ot.lpn_ms_per_ext", e.lpnUs / n / 1e3, "ms");
    const double serial_spcot = recv ? e.spcotUs : 0;
    r.set("ot.wait_ms_per_ext", (e.extendUs - e.lpnUs - serial_spcot) / n / 1e3,
          "ms", recv ? "extend - lpn - spcot" : "extend - lpn");
    r.set("ot.prg_ops_per_ext", e.prgOps / n, "count");
    r.set("ot.wire_kb_per_ext", wire_bytes_per_ext / 1024, "KB");
}

std::pair<EngineTimes, EngineTimes>
poolEngineTimes(ironman::svc::EnginePool &pool,
                const ironman::ot::FerretParams &p)
{
    EngineTimes s, rc;
    const ironman::StatSet none;
    // Hold every lease until done so each checkout returns a distinct
    // idle engine; the leases hand them back on scope exit.
    std::vector<ironman::svc::EnginePool::SenderLease> senders;
    std::vector<ironman::svc::EnginePool::ReceiverLease> receivers;
    for (size_t i = pool.idleSenders(); i > 0; --i) {
        senders.push_back(pool.checkoutSender(p));
        s.add(senders.back()->stats(), none);
    }
    for (size_t i = pool.idleReceivers(); i > 0; --i) {
        receivers.push_back(pool.checkoutReceiver(p));
        rc.add(receivers.back()->stats(), none);
    }
    statReadCheckouts += senders.size() + receivers.size();
    return {s, rc};
}

namespace {

const char *const kWorkloads[] = {"ote-2e24", "cot-svc", "infer-lan",
                                  "infer-wan"};

struct Host
{
    std::string cpu = "unknown";
    long nproc = 0;
    long l2Kb = 0;
    long l3Kb = 0;
    std::string lpnKernel;
    bool lpnPrefetch = false;

    /** Lower-case CPU model without trademarks, plus the core count. */
    std::string
    tag() const
    {
        std::string name = cpu;
        for (const char *mark : {"(R)", "(TM)", "(tm)", "CPU"})
            for (size_t at; (at = name.find(mark)) != std::string::npos;)
                name.erase(at, std::strlen(mark));
        std::string t;
        for (const char c : name) {
            if (std::isalnum(static_cast<unsigned char>(c)))
                t += char(std::tolower(static_cast<unsigned char>(c)));
            else if (!t.empty() && t.back() != '-')
                t += '-';
        }
        while (!t.empty() && t.back() == '-')
            t.pop_back();
        return t + "-" + std::to_string(nproc) + "c";
    }

    std::string
    json() const
    {
        return "{\"cpu\": " + json::quote(cpu) +
               ", \"tag\": " + json::quote(tag()) +
               ", \"nproc\": " + std::to_string(nproc) +
               ", \"l2_kb\": " + std::to_string(l2Kb) +
               ", \"l3_kb\": " + std::to_string(l3Kb) +
               ", \"lpn_kernel\": " + json::quote(lpnKernel) +
               ", \"lpn_prefetch\": " + (lpnPrefetch ? "true" : "false") +
               "}";
    }
};

/** CPU model from the CPUID brand string (no file reads). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
        s = s.c_str();
        const size_t b = s.find_first_not_of(' ');
        const size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

/** Read after the workload ran, so calibration has resolved. */
Host
hostFingerprint()
{
    Host h;
    h.cpu = cpuModel();
    h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
    h.l2Kb = sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024;
    h.l3Kb = sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024;
    h.lpnKernel = ironman::ot::LpnEncoder::activeKernelName();
    h.lpnPrefetch = ironman::ot::detail::lpnPrefetchEnabled();
    return h;
}

RunResult
runWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "ote-2e24")
        return runOte(cfg);
    if (cfg.workload == "cot-svc")
        return runCotSvc(cfg);
    if (cfg.workload == "infer-lan")
        return runInfer(cfg, false);
    if (cfg.workload == "infer-wan")
        return runInfer(cfg, true);
    throw std::invalid_argument("unknown workload " + cfg.workload);
}

/**
 * Print the metrics BENCHMARK.json lists for this mode and return the
 * JSON "metrics" object. Throws when the report and the list disagree.
 */
std::string
emitMetrics(const RunConfig &cfg, const RunResult &res,
            const json::Value &bench)
{
    const char *section = cfg.trace ? "per_layer" : "end_to_end";
    std::set<std::string> declared;
    std::string out = "{";
    for (const json::Value &m : bench.at(section).array) {
        const std::string name = m.at("name").string;
        const std::string unit = m.at("unit").string;
        declared.insert(name);
        const Metric *got = res.report.find(name);
        if (!got && !cfg.trace)
            throw std::runtime_error(cfg.workload + " did not measure " +
                                     name);
        if (got && got->unit != unit)
            throw std::runtime_error(name + " is in " + got->unit +
                                     ", BENCHMARK.json says " + unit);
        const double v = got ? got->value : 0;
        const std::string note =
            got ? got->note : std::string("idle on this workload");
        std::printf("%s %s %.6g %s%s%s\n", cfg.workload.c_str(),
                    name.c_str(), v, unit.c_str(),
                    note.empty() ? "" : "  # ", note.c_str());
        if (out.size() > 1)
            out += ", ";
        out += json::quote(name) + ": {\"value\": " + json::number(v) +
               ", \"unit\": " + json::quote(unit) + "}";
    }
    for (const Metric &m : res.report.all())
        if (!declared.count(m.name))
            throw std::runtime_error(m.name + " is not in BENCHMARK.json " +
                                     section);
    return out + "}";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ledger: %s\nusage: ledger --workload W --seed S "
                 "[--seconds T] [--trace 0|1] [--json-out FILE] "
                 "[--trace-out FILE] [--bench FILE]\n       ledger "
                 "--selfcheck\n",
                 why);
    std::exit(2);
}

/**
 * Each workload at reduced size, then with one corrupted correlation
 * or inference output fed to its checker: the clean runs must count
 * no failure and each corrupted run exactly one.
 */
int
selfcheck()
{
    struct Case
    {
        const char *workload;
        double seconds;
        long corrupt;
    };
    const Case cases[] = {
        {"ote-2e24", 0.3, -1},  {"cot-svc", 0.3, -1},
        {"infer-lan", 0.5, -1}, {"infer-wan", 1.0, -1},
        {"ote-2e24", 0.3, 1},   {"cot-svc", 0.3, 1},
        {"infer-lan", 0.5, 1},
    };
    bool all_ok = true;
    for (const Case &c : cases) {
        RunConfig cfg;
        cfg.workload = c.workload;
        cfg.seconds = c.seconds;
        cfg.setups = 1;
        cfg.reduced = true;
        cfg.corruptOp = c.corrupt;
        ironman::Timer t;
        const RunResult res = runWorkload(cfg);
        const uint64_t want = c.corrupt >= 0 ? 1 : 0;
        const bool ok = res.tally.attempted > want && res.tally.failed == want;
        all_ok &= ok;
        std::printf("selfcheck %-9s %-9s attempted %4llu failed %llu "
                    "(want %llu) %.1fs %s\n",
                    c.workload, c.corrupt >= 0 ? "corrupted" : "clean",
                    (unsigned long long)res.tally.attempted,
                    (unsigned long long)res.tally.failed,
                    (unsigned long long)want, t.seconds(),
                    ok ? "ok" : "FAIL");
    }
    std::printf("selfcheck %s\n", all_ok ? "passed" : "FAILED");
    return all_ok ? 0 : 1;
}

} // namespace

} // namespace ledger

int
main(int argc, char **argv)
{
    using namespace ledger;
    RunConfig cfg;
    std::string json_out, bench_path = "BENCHMARK.json";
    bool self = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        auto number = [&](auto parse) {
            const std::string v = value();
            try {
                return parse(v);
            } catch (const std::exception &) {
                usage(("bad number for " + a + ": " + v).c_str());
            }
        };
        if (a == "--workload") {
            cfg.workload = value();
        } else if (a == "--seed") {
            cfg.seed = number(
                [](const std::string &v) { return std::stoull(v); });
            have_seed = true;
        } else if (a == "--seconds") {
            cfg.seconds =
                number([](const std::string &v) { return std::stod(v); });
            have_seconds = true;
        } else if (a == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            cfg.trace = v == "1";
        } else if (a == "--json-out") {
            json_out = value();
        } else if (a == "--trace-out") {
            cfg.traceOut = value();
        } else if (a == "--bench") {
            bench_path = value();
        } else if (a == "--selfcheck") {
            self = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }

    if (!ironman::metrics::enabled()) {
        std::fprintf(stderr, "ledger: refusing to run with "
                             "IRONMAN_METRICS=off (the ledger reads the "
                             "metrics registry)\n");
        return 2;
    }
    if (!cfg.trace && ironman::trace::enabled()) {
        std::fprintf(stderr, "ledger: refusing an untraced run with "
                             "IRONMAN_TRACE on (end-to-end metrics are "
                             "measured with tracing off)\n");
        return 2;
    }
    ironman::trace::setEnabled(false); // traced runs switch it per phase

    if (self)
        return selfcheck();
    bool known = false;
    for (const char *w : kWorkloads)
        known |= cfg.workload == w;
    if (!known)
        usage("--workload must be one of ote-2e24, cot-svc, infer-lan, "
              "infer-wan");
    if (!have_seed)
        usage("--seed is required");

    try {
        const json::Value bench = json::parseFile(bench_path);
        if (!have_seconds)
            cfg.seconds = bench.at("run_seconds").number;
        if (!(cfg.seconds > 0 && cfg.seconds <= 600))
            usage("--seconds must be in (0, 600]");
        RunResult res = runWorkload(cfg);
        if (cfg.trace) {
            // Before the kernel timings' 2^24 buffers raise the peak.
            res.report.set("peak_rss_mb", peakRssMb(), "MB",
                           "set-ups, warm-up and all three phases");
            reportKernels(res.report);
        }
        std::printf("# %s: seed %llu, %g s per phase, %s; load threads "
                    "%d, connections %d, engine worker threads %d\n",
                    cfg.workload.c_str(), (unsigned long long)cfg.seed,
                    cfg.seconds, cfg.trace ? "traced" : "untraced",
                    res.loadThreads, res.connections, res.engineWorkers);
        const std::string metrics = emitMetrics(cfg, res, bench);
        const Tally &t = res.tally;
        std::printf("# %s error_rate %.6g (%llu failed of %llu attempted)\n",
                    cfg.workload.c_str(),
                    double(t.failed) / double(t.attempted),
                    (unsigned long long)t.failed,
                    (unsigned long long)t.attempted);
        const bool correct = t.failed == 0 && t.attempted > 0;
        const std::string result =
            std::string("{\"correct\": ") + (correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(t.attempted) +
            ", \"failed\": " + std::to_string(t.failed) +
            ", \"metrics\": " + metrics + "}";
        if (!json_out.empty()) {
            std::ofstream f(json_out);
            f << "{\"workload\": " << json::quote(cfg.workload)
              << ", \"seed\": " << cfg.seed
              << ", \"seconds\": " << json::number(cfg.seconds)
              << ", \"trace\": " << (cfg.trace ? "true" : "false")
              << ", \"host\": " << hostFingerprint().json()
              << ", \"result\": " << result << "}\n";
            if (!f)
                throw std::runtime_error("cannot write " + json_out);
        }
        std::printf("%s\n", result.c_str());
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger: %s: %s\n", cfg.workload.c_str(),
                     e.what());
        return 1;
    }
}
