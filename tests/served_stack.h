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
 */

#ifndef IRONMAN_TESTS_SERVED_STACK_H
#define IRONMAN_TESTS_SERVED_STACK_H

#include <cstdint>
#include <memory>
#include <utility>

#include "infer/infer_client.h"
#include "infer/infer_server.h"
#include "net/fault.h"
#include "ot/ferret_params.h"
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

} // namespace ironman::infer

#endif // IRONMAN_TESTS_SERVED_STACK_H
