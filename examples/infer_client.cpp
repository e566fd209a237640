/**
 * @file
 * Private-inference client demo: secret-share an input image, drive a
 * served GMW MLP inference against ./infer_server, reconstruct the
 * output, and check it against the plaintext reference.
 *
 *   ./infer_client --tcp 127.0.0.1:17617 --cot-tcp 127.0.0.1:17618
 *   ./infer_client --tcp ... --cot-tcp ... --model mlp-32x16x10 \
 *       --width 24 --images 8
 *   ./infer_client --tcp ... --cot-tcp ... --depth 8    # pipelined
 *   ./infer_client --tcp ... --cot-tcp ... --depth auto # RTT-tuned
 *
 * The client opens two sessions of opposite roles on the server's COT
 * service (--cot-tcp, printed by ./infer_server) and stocks them in
 * the background while the online phase runs. Exit code 0 iff every
 * output matches the plaintext forward pass within the model's
 * truncation bound.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "infer/infer_client.h"
#include "ppml/model_zoo.h"

using namespace ironman;

namespace {

bool
parseHostPort(const std::string &hp, std::string *host, uint16_t *port)
{
    const size_t colon = hp.rfind(':');
    if (colon == std::string::npos) {
        *port = uint16_t(std::atoi(hp.c_str()));
        return *port != 0;
    }
    *host = hp.substr(0, colon);
    *port = uint16_t(std::atoi(hp.c_str() + colon + 1));
    return *port != 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string host = "127.0.0.1", cot_host = "127.0.0.1";
    uint16_t port = 0, cot_port = 0;
    std::string model_name = "mlp-16x8x4";
    unsigned images = 4;
    bool chaos = false;
    std::string trace_file;
    infer::InferClient::Options opt;
    opt.batch = 2;
    opt.setupSeed = 0x5eedULL ^ uint64_t(::getpid()) << 16;

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
            if (!parseHostPort(next(), &host, &port)) {
                std::fprintf(stderr, "bad --tcp\n");
                return 2;
            }
        } else if (arg == "--cot-tcp") {
            if (!parseHostPort(next(), &cot_host, &cot_port)) {
                std::fprintf(stderr, "bad --cot-tcp\n");
                return 2;
            }
        } else if (arg == "--model") {
            model_name = next();
        } else if (arg == "--width") {
            opt.width = unsigned(std::atoi(next()));
        } else if (arg == "--batch") {
            opt.batch = uint32_t(std::atoi(next()));
        } else if (arg == "--images") {
            images = unsigned(std::atoi(next()));
        } else if (arg == "--seed") {
            opt.setupSeed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--depth") {
            const std::string d = next();
            if (d == "auto")
                opt.depthAuto = true;
            else
                opt.depth = uint16_t(std::atoi(d.c_str()));
        } else if (arg == "--chaos") {
            // Survive a restarting server: reconnect under backoff and
            // resubmit uncommitted requests, narrating every retry.
            chaos = true;
            opt.autoReconnect = true;
            opt.retry.maxAttempts = 10; // outlast a slow restart
            opt.retryHook = [](unsigned attempt, uint64_t backoff_ms,
                               const std::string &what) {
                std::fprintf(stderr,
                             "infer_client: retry %u in %llu ms (%s)\n",
                             attempt, (unsigned long long)backoff_ms,
                             what.c_str());
            };
        } else if (arg == "--trace") {
            // Record locally AND propagate the trace id over the
            // handshake so the server's export joins this timeline.
            trace_file = next();
            opt.traceWire = true;
        } else {
            std::fprintf(
                stderr,
                "usage: infer_client --tcp HOST:PORT "
                "--cot-tcp HOST:PORT [--model NAME] [--width W] "
                "[--batch B] [--images N] [--depth D|auto] "
                "[--seed S] [--chaos] [--trace FILE]\n");
            return 2;
        }
    }

    if (!trace_file.empty()) {
        trace::setEnabled(true);
        trace::setParty(0); // the inference client is MPC party 0
        trace::setThreadLabel("client");
    }

    const ppml::MlpModelSpec *spec = ppml::findMlpModel(model_name);
    if (!spec) {
        std::fprintf(stderr, "unknown model %s; zoo:\n",
                     model_name.c_str());
        for (const auto &s : ppml::inferenceZoo())
            std::fprintf(stderr, "  %u  %s\n", s.id, s.name.c_str());
        return 2;
    }
    opt.modelId = spec->id;

    if (cot_port == 0) {
        std::fprintf(stderr, "infer_client: --cot-tcp is required (the "
                             "server prints its COT port)\n");
        return 2;
    }

    std::unique_ptr<infer::InferClient> client;
    try {
        client = infer::InferClient::connectTcpReservoir(
            host, port, cot_host, cot_port, opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "infer_client: connect failed: %s\n",
                     e.what());
        return 1;
    }
    std::printf("infer_client: session %llu, %s, width %u, batch %u, "
                "depth %u%s (%llu COTs/image/direction)\n",
                (unsigned long long)client->sessionId(),
                spec->name.c_str(), opt.width, opt.batch,
                client->negotiatedDepth(),
                opt.depthAuto ? " (auto)" : "",
                (unsigned long long)spec->cotsPerImage(opt.width));
    if (opt.depthAuto)
        std::printf("infer_client: measured handshake RTT %llu us\n",
                    (unsigned long long)client->measuredRttUs());

    const int64_t bound = ppml::mlpTruncationErrorBound(*spec);
    std::vector<std::vector<int64_t>> inputs;
    for (unsigned r = 0; r * opt.batch < images; ++r)
        inputs.push_back(
            ppml::sampleMlpInput(*spec, 100 + r, opt.batch));

    unsigned ok = 0;
    Timer timer;
    // Issue/drain halves: with --depth > 1 the client keeps that many
    // requests in flight and commits them as one joint evaluation.
    for (const auto &input : inputs)
        client->submit(input);
    auto results = client->drain();
    // A request whose Commit raced a server loss comes back as a
    // typed failure — the library won't replay it (the server may
    // have answered already). This demo's requests are idempotent, so
    // app-level retry is safe and --chaos completes every image.
    if (chaos) {
        for (size_t r = 0; r < results.size(); ++r) {
            if (results[r].ok)
                continue;
            std::fprintf(stderr,
                         "infer_client: request %zu failed (%s); "
                         "retrying at the app level\n",
                         r, results[r].error.c_str());
            client->submit(inputs[r]);
            results[r] = client->collect();
        }
    }
    const double secs = timer.seconds();

    const unsigned done = unsigned(inputs.size()) * opt.batch;
    for (size_t r = 0; r < results.size(); ++r) {
        const std::vector<int64_t> &out = results[r].outputs;
        const std::vector<int64_t> plain =
            ppml::mlpPlainForward(*spec, inputs[r]);
        for (size_t i = 0; i < out.size(); ++i)
            ok += std::llabs(out[i] - plain[i]) <= bound;
        if (r == 0)
            for (unsigned i = 0; i < spec->outputDim(); ++i)
                std::printf("  y[%u] secure %lld plain %lld\n", i,
                            (long long)out[i], (long long)plain[i]);
    }
    const size_t outputs = size_t(done) * spec->outputDim();

    std::printf("per-layer online cost (last commit, party-0 view):\n");
    for (const ppml::MlpLayerStat &st : client->layerStats())
        std::printf("  %-8s | %7zu COTs | %9llu B | %3u rounds\n",
                    st.label.c_str(), st.cots,
                    (unsigned long long)st.bytes, st.rounds);
    client->close();

    if (chaos)
        std::printf("infer_client: survived %llu reconnects\n",
                    (unsigned long long)client->reconnects());
    // Client-side submit->reconstruct latency, from the same process
    // registry the daemons scrape (see common/metrics.h).
    const metrics::Histogram::Snapshot lat =
        metrics::Registry::instance().histogramSnapshot(
            "infer_client_request_latency_us");
    if (lat.count > 0)
        std::printf("infer_client: request latency (us): %llu samples, "
                    "p50 %llu, p90 %llu, p99 %llu, mean %.0f\n",
                    (unsigned long long)lat.count,
                    (unsigned long long)lat.p50,
                    (unsigned long long)lat.p90,
                    (unsigned long long)lat.p99,
                    double(lat.sum) / double(lat.count));
    if (!trace_file.empty()) {
        if (trace::writeChromeTrace(trace_file))
            std::printf("infer_client: trace written to %s "
                        "(trace id %016llx, clock offset %lld us)\n",
                        trace_file.c_str(),
                        (unsigned long long)client->traceId(),
                        (long long)client->peerClockOffsetUs());
        else
            std::fprintf(stderr,
                         "infer_client: cannot write trace %s\n",
                         trace_file.c_str());
    }
    std::printf("infer_client: %u images in %.3f s -> %.1f images/s; "
                "%zu COTs, %.1f KB online sent, %.1f KB preproc sent; "
                "%zu/%zu outputs within +/-%lld of plaintext\n",
                done, secs, done / secs, client->cotsConsumed(),
                client->onlineBytesSent() / 1024.0,
                client->preprocBytesSent() / 1024.0, size_t(ok),
                outputs, (long long)bound);
    return ok == outputs ? 0 : 1;
}
