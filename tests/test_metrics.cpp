/**
 * @file
 * The live telemetry layer (common/metrics.h, net/metrics_endpoint.h)
 * and its guardrails:
 *
 *  - log-linear histogram bucket geometry: exact unit buckets below
 *    2*kSubBuckets, <=1/kSubBuckets relative width above, a single
 *    overflow bucket past the tracked range;
 *  - percentile monotonicity (p50 <= p90 <= p99) by construction;
 *  - registry identity: one name, one handle, process-wide totals;
 *  - concurrent recording from many threads (the TSan job runs this
 *    binary — the registry's whole point is hot-path thread safety);
 *  - the text/JSON/trace/flight scrape surfaces;
 *  - StatSet self-merge stays a no-op (the bench-side guardrail that
 *    rode along with the registry split, see common/stats.h).
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "net/metrics_endpoint.h"

namespace ironman {
namespace {

using metrics::Histogram;

// ---------------------------------------------------------------------------
// Histogram bucket geometry
// ---------------------------------------------------------------------------

TEST(MetricsHistogramTest, SmallValuesGetExactUnitBuckets)
{
    for (uint64_t v = 0; v < 2 * Histogram::kSubBuckets; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), size_t(v)) << "v=" << v;
        EXPECT_EQ(Histogram::bucketLowerBound(v), v);
    }
}

TEST(MetricsHistogramTest, BucketsAreContiguousAndMonotone)
{
    // Every bucket's lower bound maps back into that bucket, and the
    // value just below the NEXT bucket's lower bound still maps here:
    // no gaps, no overlaps, monotone bounds.
    for (size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
        const uint64_t lo = Histogram::bucketLowerBound(i);
        const uint64_t next = Histogram::bucketLowerBound(i + 1);
        ASSERT_LT(lo, next) << "bucket " << i;
        EXPECT_EQ(Histogram::bucketIndex(lo), i) << "bucket " << i;
        EXPECT_EQ(Histogram::bucketIndex(next - 1), i)
            << "bucket " << i;
    }
}

TEST(MetricsHistogramTest, RelativeBucketWidthIsBounded)
{
    // The HDR property: above the unit range, bucket width / lower
    // bound never exceeds 1/kSubBuckets (12.5% at kSubBucketBits=3).
    for (size_t i = 2 * Histogram::kSubBuckets;
         i + 1 < Histogram::kBuckets; ++i) {
        const uint64_t lo = Histogram::bucketLowerBound(i);
        const uint64_t width = Histogram::bucketLowerBound(i + 1) - lo;
        EXPECT_LE(width * Histogram::kSubBuckets, lo)
            << "bucket " << i;
    }
}

TEST(MetricsHistogramTest, OverflowBucketCatchesOutOfRange)
{
    const uint64_t max_tracked =
        (uint64_t(Histogram::kSubBuckets) << Histogram::kOctaves) - 1;
    EXPECT_LT(Histogram::bucketIndex(max_tracked),
              size_t(Histogram::kBuckets));
    EXPECT_EQ(Histogram::bucketIndex(max_tracked + 1),
              size_t(Histogram::kOverflowIndex));
    EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX),
              size_t(Histogram::kOverflowIndex));

    Histogram h;
    h.record(5);
    h.record(max_tracked + 1);
    h.record(UINT64_MAX);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.overflow, 2u);
}

TEST(MetricsHistogramTest, PercentilesAreMonotoneAndBucketAligned)
{
    Histogram h;
    // A deliberately skewed distribution: lots of small samples, a
    // long tail.
    for (uint64_t i = 0; i < 850; ++i)
        h.record(10 + i % 7);
    for (uint64_t i = 0; i < 145; ++i)
        h.record(1000 + i * 13);
    for (uint64_t i = 0; i < 5; ++i)
        h.record(100000 + i * 997);

    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 1000u);
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
    // Percentiles are reported as bucket lower bounds.
    EXPECT_EQ(s.p50,
              Histogram::bucketLowerBound(Histogram::bucketIndex(s.p50)));
    EXPECT_EQ(s.p99,
              Histogram::bucketLowerBound(Histogram::bucketIndex(s.p99)));
    // And land in the right regions of the skew.
    EXPECT_LT(s.p50, 20u);
    EXPECT_GE(s.p90, 100u);
    EXPECT_GE(s.p99, 1000u);
}

TEST(MetricsHistogramTest, EmptySnapshotIsAllZero)
{
    Histogram h;
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0u);
    EXPECT_EQ(s.p50, 0u);
    EXPECT_EQ(s.p99, 0u);
}

// ---------------------------------------------------------------------------
// Registry identity + scrape surfaces
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SameNameYieldsSameHandle)
{
    metrics::Counter &a = metrics::counter("test_registry_shared");
    metrics::Counter &b = metrics::counter("test_registry_shared");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    b.inc(4);
    EXPECT_EQ(metrics::Registry::instance().counterValue(
                  "test_registry_shared"),
              7u);

    metrics::Gauge &g1 = metrics::gauge("test_registry_gauge");
    metrics::Gauge &g2 = metrics::gauge("test_registry_gauge");
    EXPECT_EQ(&g1, &g2);
    g1.add(10);
    g2.sub(4);
    EXPECT_EQ(metrics::Registry::instance().gaugeValue(
                  "test_registry_gauge"),
              6);
}

TEST(MetricsRegistryTest, AbsentNamesReadAsZero)
{
    EXPECT_EQ(metrics::Registry::instance().counterValue(
                  "test_registry_never_registered"),
              0u);
    EXPECT_EQ(metrics::Registry::instance()
                  .histogramSnapshot("test_registry_never_registered")
                  .count,
              0u);
}

TEST(MetricsRegistryTest, RenderTextExposesAllKinds)
{
    metrics::counter("test_render_counter").inc(42);
    metrics::gauge("test_render_gauge").add(-5);
    metrics::histogram("test_render_hist").record(100);

    const std::string text =
        metrics::Registry::instance().renderText();
    EXPECT_NE(text.find("test_render_counter 42\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("test_render_gauge -5\n"), std::string::npos);
    EXPECT_NE(text.find("test_render_hist_count 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_render_hist_p99 "), std::string::npos);
}

TEST(MetricsRegistryTest, RenderTextEmitsCumulativeBucketLines)
{
    metrics::Histogram &h =
        metrics::histogram("test_bucket_lines_hist");
    h.record(10);
    h.record(10);
    h.record(5000);

    const std::string text =
        metrics::Registry::instance().renderText();
    // Existing series survive (the CI smoke greps _count/_p99)...
    EXPECT_NE(text.find("test_bucket_lines_hist_count 3\n"),
              std::string::npos)
        << text;
    // ...and the new cumulative buckets close with a mandatory +Inf
    // line equal to _count.
    EXPECT_NE(text.find("test_bucket_lines_hist_bucket{le=\"11\"} 2\n"),
              std::string::npos)
        << text;
    EXPECT_NE(
        text.find("test_bucket_lines_hist_bucket{le=\"+Inf\"} 3\n"),
        std::string::npos)
        << text;
    // Cumulative means the tail bucket counts all three samples.
    size_t last_cum = 0;
    size_t at = 0;
    while ((at = text.find("test_bucket_lines_hist_bucket{le=\"",
                           at)) != std::string::npos) {
        const size_t sp = text.find("} ", at);
        const size_t cum = size_t(
            std::atoll(text.c_str() + sp + 2));
        EXPECT_GE(cum, last_cum);
        last_cum = cum;
        at = sp;
    }
    EXPECT_EQ(last_cum, 3u);
}

TEST(MetricsRegistryTest, RenderJsonMatchesWriteJson)
{
    metrics::counter("test_render_json_counter").inc(9);
    const std::string doc =
        metrics::Registry::instance().renderJson();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc[doc.size() - 2], '}'); // trailing newline after }
    EXPECT_NE(doc.find("\"ironman.metrics.v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"test_render_json_counter\": 9"),
              std::string::npos);

    const std::string path = "test_metrics_render_json.json";
    ASSERT_TRUE(metrics::Registry::instance().writeJson(path));
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string body(1 << 20, '\0');
    body.resize(std::fread(body.data(), 1, body.size(), f));
    std::fclose(f);
    std::remove(path.c_str());
    // One code path: the file IS the endpoint body (modulo counters
    // that moved between the two snapshots — compare the prefix up to
    // the first volatile value instead of full equality).
    EXPECT_EQ(body.substr(0, body.find("\"counters\"")),
              doc.substr(0, doc.find("\"counters\"")));
}

TEST(MetricsRegistryTest, WriteJsonProducesSnapshotFile)
{
    metrics::counter("test_json_counter").inc(7);
    const std::string path = "test_metrics_snapshot.json";
    ASSERT_TRUE(metrics::Registry::instance().writeJson(path));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string body(1 << 16, '\0');
    body.resize(std::fread(body.data(), 1, body.size(), f));
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_NE(body.find("\"ironman.metrics.v1\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"test_json_counter\""), std::string::npos);
}

TEST(MetricsRegistryTest, ConcurrentRecordingIsExact)
{
    // The TSan job runs this binary: hammer one counter, one gauge and
    // one histogram from several threads and require exact totals.
    metrics::Counter &c = metrics::counter("test_concurrent_counter");
    metrics::Gauge &g = metrics::gauge("test_concurrent_gauge");
    metrics::Histogram &h =
        metrics::histogram("test_concurrent_hist");
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;

    const uint64_t c0 = c.value();
    const uint64_t h0 = h.count();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                c.inc();
                g.add(1);
                g.sub(1);
                h.record(uint64_t(t) * 1000 + uint64_t(i % 100));
            }
        });
    for (std::thread &w : workers)
        w.join();

    EXPECT_EQ(c.value() - c0, uint64_t(kThreads) * kIters);
    EXPECT_EQ(h.count() - h0, uint64_t(kThreads) * kIters);
    EXPECT_EQ(g.value(), 0);
    const Histogram::Snapshot s = h.snapshot();
    EXPECT_LE(s.p50, s.p90);
    EXPECT_LE(s.p90, s.p99);
}

// ---------------------------------------------------------------------------
// Metrics endpoint (scrape over plain HTTP)
// ---------------------------------------------------------------------------

std::string
scrapeOnce(uint16_t port, const std::string &path = "/metrics")
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
              ssize_t(req.size()));
    std::string body;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        body.append(buf, size_t(n));
    }
    ::close(fd);
    return body;
}

TEST(MetricsEndpointTest, ServesRegistryAsText)
{
    metrics::counter("test_endpoint_counter").inc(11);
    net::MetricsEndpoint ep;
    const uint16_t port = ep.listenTcp(0);
    ASSERT_NE(port, 0);
    EXPECT_TRUE(ep.listening());

    const std::string reply = scrapeOnce(port);
    EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos)
        << reply;
    EXPECT_NE(reply.find("test_endpoint_counter 11\n"),
              std::string::npos)
        << reply;

    // Serial accept loop: a second scrape works too.
    const std::string again = scrapeOnce(port);
    EXPECT_NE(again.find("test_endpoint_counter 11\n"),
              std::string::npos);

    ep.stop();
    EXPECT_FALSE(ep.listening());
    ep.stop(); // idempotent
}

TEST(MetricsEndpointTest, RoutesPathsWithCorrectTypes)
{
    metrics::counter("test_routes_counter").inc(5);
    trace::SessionScope scope(1);
    trace::note("probe", 1, 2);
    trace::dumpAllSessions("test");

    net::MetricsEndpoint ep;
    const uint16_t port = ep.listenTcp(0);

    // /metrics and / and the bare (request-less) reader all serve the
    // Prometheus text.
    EXPECT_NE(scrapeOnce(port, "/metrics")
                  .find("test_routes_counter 5\n"),
              std::string::npos);
    EXPECT_NE(scrapeOnce(port, "/").find("test_routes_counter 5\n"),
              std::string::npos);

    // /metrics.json: JSON body, JSON Content-Type.
    const std::string json = scrapeOnce(port, "/metrics.json");
    EXPECT_NE(json.find("Content-Type: application/json"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ironman.metrics.v1\""), std::string::npos);
    EXPECT_NE(json.find("\"test_routes_counter\": 5"),
              std::string::npos);

    // /trace: always a parseable trace document (live export when no
    // session retained one yet).
    const std::string tr = scrapeOnce(port, "/trace");
    EXPECT_NE(tr.find("Content-Type: application/json"),
              std::string::npos);
    EXPECT_NE(tr.find("\"traceEvents\""), std::string::npos) << tr;

    // /flight: the retained all-sessions dump.
    const std::string fl = scrapeOnce(port, "/flight");
    EXPECT_NE(fl.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(fl.find("probe"), std::string::npos) << fl;

    // Unknown paths are a 404, not a silent /metrics alias.
    const std::string missing = scrapeOnce(port, "/nope");
    EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"),
              std::string::npos)
        << missing;
    EXPECT_EQ(missing.find("test_routes_counter"), std::string::npos);

    // Every reply advertises a correct Content-Length.
    const size_t hdr_end = json.find("\r\n\r\n");
    ASSERT_NE(hdr_end, std::string::npos);
    const size_t cl = json.find("Content-Length: ");
    ASSERT_NE(cl, std::string::npos);
    EXPECT_EQ(size_t(std::atoll(json.c_str() + cl + 16)),
              json.size() - (hdr_end + 4));

    ep.stop();
}

// ---------------------------------------------------------------------------
// StatSet guardrail (satellite of the registry split)
// ---------------------------------------------------------------------------

TEST(StatSetGuardrailTest, SelfMergeIsANoOp)
{
    StatSet s;
    s.add("alpha", 3);
    s.add("alpha", 5);
    s.add("beta", 2);

    s.merge(s); // must not double every counter

    EXPECT_EQ(s.get("alpha"), 8u);
    EXPECT_EQ(s.get("beta"), 2u);

    // A genuine merge still sums.
    StatSet other;
    other.add("alpha", 1);
    s.merge(other);
    EXPECT_EQ(s.get("alpha"), 9u);
}

} // namespace
} // namespace ironman
