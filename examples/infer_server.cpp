/**
 * @file
 * Private-inference daemon demo: serve GMW MLP inference over real
 * sockets, with an embedded COT service feeding reservoir-supplied
 * sessions.
 *
 *   ./infer_server --tcp 17617                    # + ephemeral COT port
 *   ./infer_server --tcp 17617 --cot-tcp 17618    # pin both ports
 *   ./infer_server --tcp 17617 --sessions 2       # exit after 2 (CI)
 *   ./infer_server --tcp 17617 --metrics-port 17619  # scrape surface
 *   ./infer_server --tcp 17617 --status 5         # one-liner every 5s
 *
 * --metrics-port serves the process metrics registry as Prometheus-
 * style `name value` text over plain HTTP (curl-able); --metrics-json
 * FILE rewrites a JSON snapshot of the same registry at every status
 * interval. Neither touches the MPC wire (DESIGN.md invariant 17).
 *
 * Pair with ./infer_client. One process runs both daemons: the
 * inference server is MPC party 1 AND the COT-service operator, so a
 * reservoir-fed client's two COT sessions deliver the client halves
 * to the client and the operator halves (via svc::OperatorStock)
 * straight to the inference engine — the paper's Sec. 5.2
 * role-switching architecture as served traffic.
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
#include "infer/infer_server.h"
#include "net/metrics_endpoint.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

using namespace ironman;

namespace {

/** Set by the --drain-on signal handler; polled by the main loop. */
std::atomic<int> g_drain_signal{0};

void
onDrainSignal(int sig)
{
    g_drain_signal.store(sig);
}

/** Set by SIGUSR1; the main loop answers with an all-sessions flight
 * recorder dump (async-signal-safe handler, cold work on the tick). */
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
    uint16_t infer_port = 0;
    uint16_t cot_port = 0;
    long max_sessions = -1; // -1 = serve forever
    int engine_threads = 1;
    bool drain_on_term = false;
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
            infer_port = uint16_t(std::atoi(next()));
        } else if (arg == "--cot-tcp") {
            cot_port = uint16_t(std::atoi(next()));
        } else if (arg == "--sessions") {
            max_sessions = std::atol(next());
        } else if (arg == "--threads") {
            engine_threads = std::atoi(next());
        } else if (arg == "--drain-on") {
            // Rolling-restart posture: the named signal triggers a
            // graceful drain (finish in-flight sessions, refuse new
            // connects) instead of the default hard kill.
            const std::string sig = next();
            if (sig != "SIGTERM") {
                std::fprintf(stderr,
                             "infer_server: only --drain-on SIGTERM "
                             "is supported\n");
                return 2;
            }
            drain_on_term = true;
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
                         "usage: infer_server [--tcp PORT] "
                         "[--cot-tcp PORT] [--sessions N] "
                         "[--threads T] [--drain-on SIGTERM] "
                         "[--metrics-port PORT] [--status SECS] "
                         "[--metrics-json FILE] [--trace FILE]\n");
            return 2;
        }
    }

    if (drain_on_term)
        std::signal(SIGTERM, onDrainSignal);
    std::signal(SIGUSR1, onFlightSignal);
    if (!trace_file.empty()) {
        trace::setEnabled(true);
        trace::setParty(1); // the inference server is MPC party 1
    }

    // Daemon posture: only the shapes this deployment actually serves
    // — an unlisted (if structurally valid) COT hello gets a clean
    // wire-level reject instead of a multi-MB engine.
    const std::vector<ot::FerretParams> allowed = {
        ot::tinyTestParams(), ot::tinyAlignedParams()};

    // The embedded COT service + the operator's retained halves.
    svc::OperatorStock stock;
    // Containment: a silent peer must not pin a session thread (nor,
    // eight of them, every inference slot) forever.
    svc::CotServer::Config cot_cfg;
    cot_cfg.engineThreads = engine_threads;
    cot_cfg.paramsAllowlist = allowed;
    cot_cfg.sessionRecvTimeoutMs = net::kDaemonSessionTimeoutMs;
    cot_cfg.sessionSendTimeoutMs = net::kDaemonSessionTimeoutMs;
    cot_cfg.idleTimeoutMs = net::kDaemonSessionTimeoutMs;
    svc::CotServer cot(cot_cfg);
    stock.attach(cot);
    const uint16_t bound_cot = cot.listenTcp(cot_port);

    infer::InferServer::Config infer_cfg;
    infer_cfg.sessionRecvTimeoutMs = net::kDaemonSessionTimeoutMs;
    infer_cfg.sessionSendTimeoutMs = net::kDaemonSessionTimeoutMs;
    infer_cfg.idleTimeoutMs = net::kDaemonSessionTimeoutMs;
    infer::InferServer server(infer_cfg);
    server.attachOperatorStock(stock);
    const uint16_t bound = server.listenTcp(infer_port);

    std::printf("infer_server: inference on 127.0.0.1:%u, COT service "
                "on 127.0.0.1:%u (engine threads %d)\n",
                unsigned(bound), unsigned(bound_cot), engine_threads);

    net::MetricsEndpoint metrics_ep;
    if (metrics_port >= 0) {
        const uint16_t mp =
            metrics_ep.listenTcp(uint16_t(metrics_port));
        std::printf("infer_server: metrics on 127.0.0.1:%u\n",
                    unsigned(mp));
    }
    std::fflush(stdout);

    uint64_t last_report = 0;
    uint64_t status_images = server.imagesServed();
    uint64_t status_t0_us = metrics::nowUs();
    uint64_t ticks = 0;
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        ++ticks;
        if (status_secs > 0 && ticks % (uint64_t(status_secs) * 10) == 0) {
            const uint64_t now_us = metrics::nowUs();
            const uint64_t images_now = server.imagesServed();
            const double secs =
                double(now_us - status_t0_us) / 1e6;
            const double imgps =
                secs > 0 ? double(images_now - status_images) / secs
                         : 0.0;
            const auto lat = metrics::Registry::instance()
                                 .histogramSnapshot(
                                     "infer_commit_latency_us");
            std::printf(
                "infer_server: status %.1f img/s, %zu active, "
                "operator bank %lld, reservoir stock %lld, commit "
                "p99 %llu us\n",
                imgps, server.activeSessions(),
                (long long)metrics::Registry::instance().gaugeValue(
                    "svc_operator_bank_depth"),
                (long long)metrics::Registry::instance().gaugeValue(
                    "svc_reservoir_stock_cots"),
                (unsigned long long)lat.p99);
            std::fflush(stdout);
            status_images = images_now;
            status_t0_us = now_us;
            if (!metrics_json.empty())
                metrics::Registry::instance().writeJson(metrics_json);
        }
        if (g_flight_signal.exchange(false))
            trace::dumpAllSessions("SIGUSR1");
        const uint64_t done = server.sessionsServed();
        if (done != last_report) {
            std::printf(
                "infer_server: %llu sessions, %llu requests, %llu "
                "images, %llu COTs consumed, %llu engines built\n",
                (unsigned long long)done,
                (unsigned long long)server.requestsServed(),
                (unsigned long long)server.imagesServed(),
                (unsigned long long)server.cotsConsumed(),
                (unsigned long long)(cot.pool().sendersCreated() +
                                     cot.pool().receiversCreated()));
            std::fflush(stdout);
            last_report = done;
        }
        if (max_sessions >= 0 && done >= uint64_t(max_sessions) &&
            server.activeSessions() == 0)
            break;
        if (g_drain_signal.load() != 0) {
            std::printf("infer_server: SIGTERM, draining...\n");
            std::fflush(stdout);
            const bool infer_clean = server.drain(10000);
            const bool cot_clean = cot.drain(10000);
            std::printf("infer_server: drained %s (%llu sessions "
                        "served)\n",
                        infer_clean && cot_clean ? "clean" : "forced",
                        (unsigned long long)server.sessionsServed());
            break;
        }
    }
    server.stop();
    cot.stop();
    metrics_ep.stop();
    // Final snapshot after the last session's counters landed, so a
    // harness reading the file post-exit sees the complete run.
    if (!metrics_json.empty())
        metrics::Registry::instance().writeJson(metrics_json);
    if (!trace_file.empty()) {
        if (trace::writeChromeTrace(trace_file))
            std::printf("infer_server: trace written to %s\n",
                        trace_file.c_str());
        else
            std::fprintf(stderr,
                         "infer_server: cannot write trace %s\n",
                         trace_file.c_str());
    }
    std::printf("infer_server: done (%llu sessions)\n",
                (unsigned long long)server.sessionsServed());
    return 0;
}
