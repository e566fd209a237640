/**
 * @file
 * Test fixture for the served inference stack: an svc::OperatorStock,
 * an svc::CotServer and an infer::InferServer, wired together and
 * listening on loopback — the deployment examples/infer_server runs
 * in one process. dial() opens a reservoir-fed InferClient against
 * it, optionally over a fault-armed channel; cotSessions() opens the
 * two live COT sessions a hand-rolled hello has to name.
 *
 * Destruction (or stop()) stops the inference daemon, then the COT
 * service; the stock outlives both.
 *
 * ServedCell names one served session's shape and seeds, and derives
 * its client options, its request inputs and the in-process
 * reference its replies must equal bit for bit.
 */

#ifndef IRONMAN_TESTS_SERVED_STACK_H
#define IRONMAN_TESTS_SERVED_STACK_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "net/fault.h"
#include "ot/ferret_params.h"
#include "ppml/mlp_runner.h"
#include "ppml/model_zoo.h"
#include "svc/cot_client.h"
#include "svc/cot_server.h"
#include "svc/operator_stock.h"

namespace ironman::infer {

struct ServedStack
{
    /** Ports 0 = ephemeral; a restart passes the previous ones. */
    explicit ServedStack(const InferServer::Config &cfg = {},
                         uint16_t infer_port = 0, uint16_t cot_port = 0)
        : server(cfg)
    {
        stock.attach(cot);
        cotPort = cot.listenTcp(cot_port);
        server.attachOperatorStock(stock);
        port = server.listenTcp(infer_port);
    }

    ~ServedStack() { stop(); }

    ServedStack(const ServedStack &) = delete;
    ServedStack &operator=(const ServedStack &) = delete;

    /** Connect + handshake a client whose COT sessions live here. */
    std::unique_ptr<InferClient>
    dial(const InferClient::Options &opt) const
    {
        return InferClient::connectTcpReservoir("127.0.0.1", port,
                                                "127.0.0.1", cotPort, opt);
    }

    /** dial() with @p plan armed on the inference channel from its
     *  first byte, hello included (the chaos fault grid). */
    std::unique_ptr<InferClient>
    dial(const InferClient::Options &opt, const net::FaultPlan &plan) const
    {
        return std::unique_ptr<InferClient>(new InferClient(
            "127.0.0.1", port, "127.0.0.1", cotPort, opt,
            [plan](const std::string &host, uint16_t p) {
                auto ch = net::tcpConnect(host, p);
                ch->setFaultPlan(plan);
                return ch;
            }));
    }

    /** Sender- then Receiver-role COT sessions on this stack. */
    std::pair<std::unique_ptr<svc::CotClient>,
              std::unique_ptr<svc::CotClient>>
    cotSessions(uint64_t seed) const
    {
        svc::CotClient::Options o;
        o.role = svc::Role::Sender;
        o.setupSeed = seed;
        auto send = svc::CotClient::connectTcp(
            "127.0.0.1", cotPort, ot::tinyTestParams(), o);
        o.role = svc::Role::Receiver;
        o.setupSeed = seed + 1;
        auto recv = svc::CotClient::connectTcp(
            "127.0.0.1", cotPort, ot::tinyTestParams(), o);
        return {std::move(send), std::move(recv)};
    }

    /** Stop both daemons, inference first. Idempotent. */
    void
    stop()
    {
        server.stop();
        cot.stop();
    }

    svc::OperatorStock stock;
    svc::CotServer cot;
    InferServer server;
    uint16_t cotPort = 0;
    uint16_t port = 0;
};

/**
 * One served session: model, width, batch, depth, request count and
 * seeds. Designated initializers name what differs from the defaults.
 */
struct ServedCell
{
    const char *model = "mlp-4x3x2";
    unsigned width = 16;
    uint32_t batch = 1;
    uint16_t depth = 1;
    size_t count = 1; ///< requests
    uint64_t setupSeed = InferClient::Options{}.setupSeed;
    uint64_t shareSeed = InferClient::Options{}.shareSeed;
    uint64_t firstInput = 0; ///< request r samples seed firstInput + r
    bool traceWire = false;
    uint64_t traceId = 0;
    bool traceSampled = true;

    const ppml::MlpModelSpec &spec() const
    {
        return *ppml::findMlpModel(model);
    }

    InferClient::Options
    options() const
    {
        InferClient::Options opt;
        opt.modelId = spec().id;
        opt.width = width;
        opt.batch = batch;
        opt.setupSeed = setupSeed;
        opt.shareSeed = shareSeed;
        opt.depth = depth;
        opt.traceWire = traceWire;
        opt.traceId = traceId;
        opt.traceSampled = traceSampled;
        return opt;
    }

    std::vector<std::vector<int64_t>>
    inputs() const
    {
        std::vector<std::vector<int64_t>> reqs;
        for (size_t r = 0; r < count; ++r)
            reqs.push_back(ppml::sampleMlpInput(spec(), firstInput + r,
                                                batch));
        return reqs;
    }

    /**
     * Per-request outputs of the in-process reference in groups of
     * min(@p group, pending) requests, oldest first: one local session
     * evaluates each group as one request. A session that submits
     * every input before collecting commits exactly these groups at
     * @p group = its depth. (The mask tapes are tweak-seeded, so only
     * the grouped run is bit-identical; a group of one is the plain
     * sequential reference.)
     */
    std::vector<std::vector<int64_t>>
    reference(size_t group) const
    {
        const std::vector<std::vector<int64_t>> reqs = inputs();
        std::vector<std::vector<int64_t>> grouped;
        for (size_t g = 0; g < reqs.size(); g += group) {
            grouped.emplace_back();
            for (size_t r = g; r < std::min(g + group, reqs.size()); ++r)
                grouped.back().insert(grouped.back().end(),
                                      reqs[r].begin(), reqs[r].end());
        }
        const ppml::LocalMlpResult local = ppml::runLocalMlpInference(
            spec(), width, grouped, shareSeed, setupSeed,
            ot::tinyTestParams());
        const size_t req_out = size_t(batch) * spec().outputDim();
        std::vector<std::vector<int64_t>> out;
        for (const std::vector<int64_t> &y : local.outputs)
            for (size_t off = 0; off < y.size(); off += req_out)
                out.emplace_back(y.begin() + off, y.begin() + off + req_out);
        return out;
    }
};

} // namespace ironman::infer

#endif // IRONMAN_TESTS_SERVED_STACK_H
