/**
 * @file
 * COT service daemon demo: serve correlated randomness to concurrent
 * clients over real sockets from warm pooled engines.
 *
 *   ./cot_server --tcp 17517               # loopback TCP, run forever
 *   ./cot_server --tcp 0                   # ephemeral port (printed)
 *   ./cot_server --unix /tmp/ironman.sock  # Unix-domain transport
 *   ./cot_server --tcp 17517 --sessions 2  # exit after 2 sessions (CI)
 *   ./cot_server --tcp 17517 --metrics-port 17519  # scrape surface
 *   ./cot_server --tcp 17517 --status 5    # one-line status every 5s
 *
 * --metrics-port serves the process metrics registry as `name value`
 * text over plain HTTP; --metrics-json FILE rewrites a JSON snapshot
 * at every status interval. Out-of-band: the MPC wire is untouched.
 *
 * Pair with ./cot_client. The engine pool keeps finished sessions'
 * engines warm, so a burst of same-shape clients sizes one engine per
 * concurrency slot, not one per connection, and every engine of the
 * set shares one LPN index tape, built once while any of them lives.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"
#include "net/metrics_endpoint.h"
#include "svc/cot_server.h"

using namespace ironman;

namespace {

/** Set by SIGUSR1; the tick loop answers with an all-sessions flight
 * recorder dump. */
std::atomic<bool> g_flight_signal{false};

void
onFlightSignal(int)
{
    g_flight_signal.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    uint16_t tcp_port = 0;
    bool use_tcp = false;
    std::string unix_path;
    long max_sessions = -1; // -1 = serve forever
    int engine_threads = 1;
    int metrics_port = -1; // -1 = no endpoint; 0 = ephemeral
    long status_secs = 0;  // 0 = no periodic status line
    std::string metrics_json;
    std::string trace_file;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--tcp") {
            use_tcp = true;
            tcp_port = uint16_t(std::atoi(next()));
        } else if (arg == "--unix") {
            unix_path = next();
        } else if (arg == "--sessions") {
            max_sessions = std::atol(next());
        } else if (arg == "--threads") {
            engine_threads = std::atoi(next());
        } else if (arg == "--metrics-port") {
            metrics_port = std::atoi(next());
        } else if (arg == "--status") {
            status_secs = std::atol(next());
        } else if (arg == "--metrics-json") {
            metrics_json = next();
        } else if (arg == "--trace") {
            trace_file = next();
        } else {
            std::fprintf(stderr,
                         "usage: cot_server [--tcp PORT | --unix PATH] "
                         "[--sessions N] [--threads T] "
                         "[--metrics-port PORT] [--status SECS] "
                         "[--metrics-json FILE] [--trace FILE]\n");
            return 2;
        }
    }
    if (!use_tcp && unix_path.empty()) {
        use_tcp = true; // default: loopback TCP, ephemeral port
    }

    std::signal(SIGUSR1, onFlightSignal);
    if (!trace_file.empty()) {
        trace::setEnabled(true);
        trace::setParty(1); // service operator = MPC party 1
    }

    svc::CotServer::Config cfg;
    cfg.engineThreads = engine_threads;
    // A silent peer must not pin a session thread forever.
    cfg.sessionRecvTimeoutMs = net::kDaemonSessionTimeoutMs;
    cfg.sessionSendTimeoutMs = net::kDaemonSessionTimeoutMs;
    cfg.idleTimeoutMs = net::kDaemonSessionTimeoutMs;
    svc::CotServer server(cfg);

    if (use_tcp) {
        const uint16_t port = server.listenTcp(tcp_port);
        std::printf("cot_server: listening on 127.0.0.1:%u "
                    "(engine threads %d)\n",
                    unsigned(port), engine_threads);
    } else {
        server.listenUnix(unix_path);
        std::printf("cot_server: listening on %s (engine threads %d)\n",
                    unix_path.c_str(), engine_threads);
    }
    net::MetricsEndpoint metrics_ep;
    if (metrics_port >= 0) {
        const uint16_t mp =
            metrics_ep.listenTcp(uint16_t(metrics_port));
        std::printf("cot_server: metrics on 127.0.0.1:%u\n",
                    unsigned(mp));
    }
    std::fflush(stdout);

    // Serve until the requested session count completed (or forever).
    uint64_t last_report = 0;
    uint64_t status_cots = server.cotsServed();
    uint64_t status_t0_us = metrics::nowUs();
    uint64_t ticks = 0;
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ++ticks;
        if (status_secs > 0 && ticks % (uint64_t(status_secs) * 10) == 0) {
            const uint64_t now_us = metrics::nowUs();
            const uint64_t cots_now = server.cotsServed();
            const double secs = double(now_us - status_t0_us) / 1e6;
            const double cotps =
                secs > 0 ? double(cots_now - status_cots) / secs : 0.0;
            const auto dur = metrics::Registry::instance()
                                 .histogramSnapshot(
                                     "cot_session_duration_us");
            std::printf("cot_server: status %.0f COTs/s, %zu active, "
                        "%llu reaped, session p99 %llu us\n",
                        cotps, server.activeSessions(),
                        (unsigned long long)server.sessionsReaped(),
                        (unsigned long long)dur.p99);
            std::fflush(stdout);
            status_cots = cots_now;
            status_t0_us = now_us;
            if (!metrics_json.empty())
                metrics::Registry::instance().writeJson(metrics_json);
        }
        if (g_flight_signal.exchange(false))
            trace::dumpAllSessions("SIGUSR1");
        const uint64_t done = server.sessionsServed();
        if (done != last_report) {
            std::printf("cot_server: %llu sessions served, %llu "
                        "extensions, %llu COTs, %llu engines built\n",
                        (unsigned long long)done,
                        (unsigned long long)server.extensionsServed(),
                        (unsigned long long)server.cotsServed(),
                        (unsigned long long)(
                            server.pool().sendersCreated() +
                            server.pool().receiversCreated()));
            std::fflush(stdout);
            last_report = done;
        }
        if (max_sessions >= 0 && done >= uint64_t(max_sessions) &&
            server.activeSessions() == 0)
            break;
    }
    server.stop();
    metrics_ep.stop();
    if (!metrics_json.empty())
        metrics::Registry::instance().writeJson(metrics_json);
    if (!trace_file.empty() && !trace::writeChromeTrace(trace_file))
        std::fprintf(stderr, "cot_server: cannot write trace %s\n",
                     trace_file.c_str());
    std::printf("cot_server: done (%llu sessions)\n",
                (unsigned long long)server.sessionsServed());
    return 0;
}
