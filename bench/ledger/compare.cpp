/**
 * @file
 * ledger_compare: judge two sets of perf-ledger runs against the bounds
 * in BENCHMARK.json, or summarise one set as a committed baseline.
 * Standard library only.
 *
 *   ledger_compare [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR
 *   ledger_compare [--bench BENCHMARK.json] --baseline DIR [--git-sha S]
 *
 * Each directory holds the run JSONs `ledger --json-out` writes; traced
 * runs are skipped. For every workload x end-to-end metric the table
 * gives each side's median and quartiles (Python's
 * statistics.quantiles(values, n=4)), the spread (IQR over median),
 * the pairs the change wins (runs paired in seed order, ties count for
 * neither side) and a verdict:
 *
 *   unresolved  a side's spread exceeds the bound, unless every change
 *               run reads better than every parent run;
 *   regressed   the change's median is worse by more than the bound;
 *   improved    the change wins >= 9/10 of the pairs and its median
 *               differs from the parent's by more than the parent's IQR;
 *   no-worse    otherwise.
 *
 * Exit code: 0 when nothing regressed or is unresolved, 1 when
 * something regressed, 3 when something is unresolved, 2 on bad input.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "json.h"

namespace {

using ledger::json::Value;

struct Run
{
    uint64_t seed = 0;
    std::map<std::string, double> metrics;
};

/** workload -> runs, sorted by seed. */
using RunSet = std::map<std::string, std::vector<Run>>;

struct Spec
{
    std::string name, unit;
    bool higherIsBetter = false;
    double bound = 0;
};

/**
 * The untraced runs in @p dir. @p host, when given, receives the first
 * run's host fingerprint with its per-process calibration verdict
 * lpn_prefetch replaced by lpn_prefetch_runs, "<on> of <runs>" over
 * every run read.
 */
RunSet
loadRuns(const std::string &dir, Value *host)
{
    size_t prefetch_on = 0, read = 0;
    std::vector<std::filesystem::path> files;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".json")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    RunSet runs;
    for (const auto &path : files) {
        const Value doc = ledger::json::parseFile(path.string());
        if (doc.at("trace").boolean)
            continue;
        if (host && host->type == Value::Type::Null)
            *host = doc.at("host");
        prefetch_on += doc.at("host").at("lpn_prefetch").boolean;
        ++read;
        Run r;
        r.seed = uint64_t(doc.at("seed").number);
        const Value &result = doc.at("result");
        if (!result.at("correct").boolean)
            throw std::runtime_error(path.string() +
                                     ": run reported failed operations");
        for (const auto &[name, m] : result.at("metrics").object)
            r.metrics[name] = m.at("value").number;
        runs[doc.at("workload").string].push_back(std::move(r));
    }
    if (host && host->type == Value::Type::Object) {
        for (auto &[k, v] : host->object)
            if (k == "lpn_prefetch") {
                k = "lpn_prefetch_runs";
                v.type = Value::Type::String;
                v.string = std::to_string(prefetch_on) + " of " +
                           std::to_string(read);
            }
    }
    for (auto &[w, v] : runs)
        std::sort(v.begin(), v.end(),
                  [](const Run &a, const Run &b) { return a.seed < b.seed; });
    return runs;
}

std::vector<Spec>
loadSpecs(const std::string &path)
{
    const Value bench = ledger::json::parseFile(path);
    std::vector<Spec> specs;
    for (const Value &m : bench.at("end_to_end").array)
        specs.push_back({m.at("name").string, m.at("unit").string,
                         m.at("better").string == "higher",
                         m.at("bound").number});
    return specs;
}

struct Summary
{
    double q1 = 0, median = 0, q3 = 0;

    double
    spread() const
    {
        return median != 0 ? (q3 - q1) / std::fabs(median) : 0;
    }
};

/** statistics.quantiles(v, n=4) (method "exclusive") plus the median. */
Summary
summarise(std::vector<double> v)
{
    Summary s;
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    const size_t ld = v.size();
    s.median = ld % 2 ? v[ld / 2] : (v[ld / 2 - 1] + v[ld / 2]) / 2;
    if (ld < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    const long m = long(ld) + 1;
    double q[3];
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, long(ld) - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[size_t(j - 1)] * double(4 - delta) +
                    v[size_t(j)] * double(delta)) /
                   4;
    }
    s.q1 = q[0];
    s.q3 = q[2];
    return s;
}

std::vector<double>
values(const std::vector<Run> &runs, const std::string &metric)
{
    std::vector<double> v;
    for (const Run &r : runs) {
        const auto it = r.metrics.find(metric);
        if (it == r.metrics.end())
            throw std::runtime_error("a run lacks metric " + metric);
        v.push_back(it->second);
    }
    return v;
}

int
compare(const std::vector<Spec> &specs, const RunSet &parent,
        const RunSet &change)
{
    std::printf("%-10s %-12s %-6s %28s %28s %8s %7s %7s %6s %6s  %s\n",
                "workload", "metric", "unit", "parent median [q1, q3]",
                "change median [q1, q3]", "delta%", "sprdP%", "sprdC%",
                "bound%", "wins", "verdict");
    int regressed = 0, unresolved = 0;
    for (const auto &[workload, pruns] : parent) {
        const auto cit = change.find(workload);
        if (cit == change.end()) {
            std::printf("%-10s missing from the change side\n",
                        workload.c_str());
            ++unresolved;
            continue;
        }
        const std::vector<Run> &cruns = cit->second;
        for (const Spec &sp : specs) {
            const std::vector<double> a = values(pruns, sp.name);
            const std::vector<double> b = values(cruns, sp.name);
            const Summary sa = summarise(a), sb = summarise(b);
            const double dir = sp.higherIsBetter ? 1 : -1;
            auto better = [&](double x, double y) { return dir * (x - y) > 0; };
            size_t wins = 0;
            const size_t pairs = std::min(a.size(), b.size());
            for (size_t i = 0; i < pairs; ++i)
                wins += better(b[i], a[i]);
            const double gain =
                dir * (sb.median - sa.median) / std::fabs(sa.median);
            const double worst_b = sp.higherIsBetter
                                       ? *std::min_element(b.begin(), b.end())
                                       : *std::max_element(b.begin(), b.end());
            const double best_a = sp.higherIsBetter
                                      ? *std::max_element(a.begin(), a.end())
                                      : *std::min_element(a.begin(), a.end());
            const bool all_better = better(worst_b, best_a);
            const char *verdict = "no-worse";
            if ((sa.spread() > sp.bound || sb.spread() > sp.bound) &&
                !all_better) {
                verdict = "unresolved";
                ++unresolved;
            } else if (-gain > sp.bound) {
                verdict = "regressed";
                ++regressed;
            } else if (gain > 0 && pairs > 0 &&
                       double(wins) >= 0.9 * double(pairs) &&
                       std::fabs(sb.median - sa.median) > sa.q3 - sa.q1) {
                verdict = "improved";
            }
            char pa[64], pb[64];
            std::snprintf(pa, sizeof(pa), "%.4g [%.4g, %.4g]", sa.median,
                          sa.q1, sa.q3);
            std::snprintf(pb, sizeof(pb), "%.4g [%.4g, %.4g]", sb.median,
                          sb.q1, sb.q3);
            std::printf("%-10s %-12s %-6s %28s %28s %+8.2f %7.2f %7.2f "
                        "%6.1f %3zu/%-2zu  %s\n",
                        workload.c_str(), sp.name.c_str(), sp.unit.c_str(),
                        pa, pb, 100 * dir * gain, 100 * sa.spread(),
                        100 * sb.spread(), 100 * sp.bound, wins, pairs,
                        verdict);
        }
    }
    std::printf("\n%d regressed, %d unresolved\n", regressed, unresolved);
    return regressed ? 1 : unresolved ? 3 : 0;
}

int
baseline(const std::vector<Spec> &specs, const RunSet &runs,
         const Value &host, const std::string &git_sha)
{
    std::string out = "{\n  \"host\": {";
    bool first = true;
    for (const auto &[k, v] : host.object) {
        out += std::string(first ? "" : ", ") + ledger::json::quote(k) + ": ";
        first = false;
        if (v.type == Value::Type::String)
            out += ledger::json::quote(v.string);
        else if (v.type == Value::Type::Bool)
            out += v.boolean ? "true" : "false";
        else
            out += ledger::json::number(v.number);
    }
    out += std::string(first ? "" : ", ") +
           "\"git_sha\": " + ledger::json::quote(git_sha) + "},\n";
    out += "  \"workloads\": {";
    bool first_w = true;
    for (const auto &[workload, rs] : runs) {
        out += std::string(first_w ? "\n" : ",\n") + "    " +
               ledger::json::quote(workload) + ": {\"runs\": " +
               std::to_string(rs.size()) + ", \"seeds\": [";
        first_w = false;
        for (size_t i = 0; i < rs.size(); ++i)
            out += (i ? ", " : "") + std::to_string(rs[i].seed);
        out += "], \"metrics\": {";
        for (size_t i = 0; i < specs.size(); ++i) {
            const Summary s = summarise(values(rs, specs[i].name));
            out += std::string(i ? ",\n" : "\n") + "      " +
                   ledger::json::quote(specs[i].name) +
                   ": {\"unit\": " + ledger::json::quote(specs[i].unit) +
                   ", \"median\": " + ledger::json::number(s.median) +
                   ", \"q1\": " + ledger::json::number(s.q1) +
                   ", \"q3\": " + ledger::json::number(s.q3) + "}";
        }
        out += "}}";
    }
    out += "\n  }\n}\n";
    std::fputs(out.c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = "BENCHMARK.json", base_dir, git_sha = "unknown";
    std::vector<std::string> dirs;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if ((a == "--bench" || a == "--baseline" || a == "--git-sha") &&
            i + 1 < argc) {
            const std::string v = argv[++i];
            (a == "--bench"      ? bench
             : a == "--baseline" ? base_dir
                                 : git_sha) = v;
        } else {
            dirs.push_back(a);
        }
    }
    try {
        const std::vector<Spec> specs = loadSpecs(bench);
        if (!base_dir.empty() && dirs.empty()) {
            Value host;
            const RunSet runs = loadRuns(base_dir, &host);
            return baseline(specs, runs, host, git_sha);
        }
        if (dirs.size() != 2 || !base_dir.empty()) {
            std::fprintf(stderr,
                         "usage: ledger_compare [--bench FILE] PARENT_DIR "
                         "CHANGE_DIR\n       ledger_compare [--bench FILE] "
                         "--baseline DIR [--git-sha SHA]\n");
            return 2;
        }
        return compare(specs, loadRuns(dirs[0], nullptr),
                       loadRuns(dirs[1], nullptr));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ledger_compare: %s\n", e.what());
        return 2;
    }
}
