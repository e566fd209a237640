#include "common/metrics.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>

namespace ironman::metrics {

uint64_t
nowUs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot s;
    uint64_t counts[kBuckets + 1];
    for (size_t i = 0; i <= kBuckets; ++i) {
        counts[i] = buckets_[i].load(std::memory_order_relaxed);
        s.count += counts[i];
    }
    s.sum = sum_.load(std::memory_order_relaxed);
    s.overflow = counts[kOverflowIndex];
    if (s.count == 0)
        return s;
    // Percentile q = lower bound of the bucket holding the
    // ceil(q*count)-th sample (1-based).
    const auto pct = [&](double q) {
        uint64_t target = uint64_t(q * double(s.count));
        if (target * 1.0 < q * double(s.count))
            ++target;
        if (target == 0)
            target = 1;
        uint64_t seen = 0;
        for (size_t i = 0; i <= kBuckets; ++i) {
            seen += counts[i];
            if (seen >= target)
                return bucketLowerBound(i);
        }
        return bucketLowerBound(kOverflowIndex);
    };
    s.p50 = pct(0.50);
    s.p90 = pct(0.90);
    s.p99 = pct(0.99);
    return s;
}

/**
 * Singleton state. Deques give every handle a stable address for the
 * lifetime of the process; the maps (sorted, for deterministic
 * exposition order) dedup by name.
 */
struct Registry::Impl {
    mutable std::mutex m;
    std::deque<Counter> counterSlots;
    std::deque<Gauge> gaugeSlots;
    std::deque<Histogram> histogramSlots;
    std::map<std::string, Counter *> counters;
    std::map<std::string, Gauge *> gauges;
    std::map<std::string, Histogram *> histograms;
};

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Registry::Impl &
Registry::impl() const
{
    static Impl impl;
    return impl;
}

Counter &
Registry::counter(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    Counter *&slot = i.counters[name];
    if (!slot)
        slot = &i.counterSlots.emplace_back();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    Gauge *&slot = i.gauges[name];
    if (!slot)
        slot = &i.gaugeSlots.emplace_back();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    Histogram *&slot = i.histograms[name];
    if (!slot)
        slot = &i.histogramSlots.emplace_back();
    return *slot;
}

uint64_t
Registry::counterValue(const std::string &name) const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    const auto it = i.counters.find(name);
    return it == i.counters.end() ? 0 : it->second->value();
}

int64_t
Registry::gaugeValue(const std::string &name) const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    const auto it = i.gauges.find(name);
    return it == i.gauges.end() ? 0 : it->second->value();
}

Histogram::Snapshot
Registry::histogramSnapshot(const std::string &name) const
{
    Histogram *h = nullptr;
    {
        Impl &i = impl();
        std::lock_guard<std::mutex> lock(i.m);
        const auto it = i.histograms.find(name);
        if (it != i.histograms.end())
            h = it->second;
    }
    return h ? h->snapshot() : Histogram::Snapshot{};
}

std::string
Registry::renderText() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    std::string out;
    out.reserve(4096);
    char line[256];
    for (const auto &[name, c] : i.counters) {
        std::snprintf(line, sizeof(line), "%s %llu\n", name.c_str(),
                      (unsigned long long)c->value());
        out += line;
    }
    for (const auto &[name, g] : i.gauges) {
        std::snprintf(line, sizeof(line), "%s %lld\n", name.c_str(),
                      (long long)g->value());
        out += line;
    }
    for (const auto &[name, h] : i.histograms) {
        const Histogram::Snapshot s = h->snapshot();
        std::snprintf(line, sizeof(line),
                      "%s_count %llu\n%s_sum %llu\n%s_p50 %llu\n"
                      "%s_p90 %llu\n%s_p99 %llu\n",
                      name.c_str(), (unsigned long long)s.count,
                      name.c_str(), (unsigned long long)s.sum,
                      name.c_str(), (unsigned long long)s.p50,
                      name.c_str(), (unsigned long long)s.p90,
                      name.c_str(), (unsigned long long)s.p99);
        out += line;
        // Sparse cumulative buckets, closed by the mandatory +Inf
        // line (= _count, including overflow samples).
        h->forEachNonEmptyBucket([&](uint64_t le, uint64_t cum) {
            std::snprintf(line, sizeof(line),
                          "%s_bucket{le=\"%llu\"} %llu\n", name.c_str(),
                          (unsigned long long)le,
                          (unsigned long long)cum);
            out += line;
        });
        std::snprintf(line, sizeof(line),
                      "%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                      (unsigned long long)s.count);
        out += line;
    }
    return out;
}

std::string
Registry::renderJson() const
{
    Impl &i = impl();
    std::lock_guard<std::mutex> lock(i.m);
    std::string out;
    out.reserve(4096);
    char line[320];
    out += "{\n  \"schema\": \"ironman.metrics.v1\",\n";
    out += "  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : i.counters) {
        std::snprintf(line, sizeof(line), "%s\n    \"%s\": %llu",
                      first ? "" : ",", name.c_str(),
                      (unsigned long long)c->value());
        out += line;
        first = false;
    }
    out += "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : i.gauges) {
        std::snprintf(line, sizeof(line), "%s\n    \"%s\": %lld",
                      first ? "" : ",", name.c_str(),
                      (long long)g->value());
        out += line;
        first = false;
    }
    out += "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : i.histograms) {
        const Histogram::Snapshot s = h->snapshot();
        std::snprintf(line, sizeof(line),
                      "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, "
                      "\"p50\": %llu, \"p90\": %llu, \"p99\": %llu, "
                      "\"overflow\": %llu}",
                      first ? "" : ",", name.c_str(),
                      (unsigned long long)s.count,
                      (unsigned long long)s.sum, (unsigned long long)s.p50,
                      (unsigned long long)s.p90, (unsigned long long)s.p99,
                      (unsigned long long)s.overflow);
        out += line;
        first = false;
    }
    out += "\n  }\n}\n";
    return out;
}

bool
Registry::writeJson(const std::string &path) const
{
    // renderJson takes the registry lock; the file write happens
    // outside it.
    const std::string doc = renderJson();
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const size_t wrote = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    return wrote == doc.size();
}

} // namespace ironman::metrics
