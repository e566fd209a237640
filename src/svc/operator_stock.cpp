#include "svc/operator_stock.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "net/wire_error.h"

namespace ironman::svc {

namespace {

/** Server-side bank telemetry, summed across sessions and stocks. */
struct StockMetrics {
    metrics::Gauge &depth = metrics::gauge("svc_operator_bank_depth");
    metrics::Counter &taken =
        metrics::counter("svc_operator_taken_total");
    metrics::Counter &waits =
        metrics::counter("svc_operator_waits_total");
    metrics::Counter &waitUs =
        metrics::counter("svc_operator_wait_us_total");
};

StockMetrics &
stockMetrics()
{
    static StockMetrics m;
    return m;
}

} // namespace

void
OperatorStock::attach(CotServer &server)
{
    stockMetrics(); // register handles before any session traffic
    server.setSenderSink([this](const CotServer::SenderBatch &b) {
        std::lock_guard<std::mutex> lock(m);
        SessionStock &s = sessions[b.sessionId];
        s.bank.append(b.q, b.count);
        s.delta = b.delta;
        s.haveDelta = true;
        stockMetrics().depth.add(int64_t(b.count));
        cv.notify_all();
    });
    server.setReceiverSink([this](const CotServer::ReceiverBatch &b) {
        std::lock_guard<std::mutex> lock(m);
        sessions[b.sessionId].bank.append(b.t, b.count, b.choice);
        stockMetrics().depth.add(int64_t(b.count));
        cv.notify_all();
    });
    // Ownership, recorded before the client can quote the sid: the
    // inference handshake validates its hello's session ids against
    // this (bogus or foreign sids get a clean reject).
    server.setSessionStartSink(
        [this](uint64_t sid, const std::string &peer) {
            std::lock_guard<std::mutex> lock(m);
            sessions[sid].peer = peer;
        });
    // After a COT session's end no more batches can arrive, so any
    // residue nobody consumed (rejected infer hello, client dead
    // before its hello) is freed here — the last sink call of the
    // session thread.
    server.setSessionEndSink([this](uint64_t sid) { drop(sid); });
}

OperatorStock::SessionStock &
OperatorStock::waitForStockLocked(std::unique_lock<std::mutex> &lock,
                                  uint64_t sid, size_t n, bool need_delta)
{
    const uint64_t t0_us = metrics::nowUs();
    // find(), never operator[]: a take must not materialize entries
    // for sids nobody stocks (a bogus hello would otherwise grow the
    // map permanently with every probe).
    if (!cv.wait_for(lock, waitTimeout, [&] {
            if (stopped)
                return true;
            const auto it = sessions.find(sid);
            return it != sessions.end() &&
                   (it->second.haveDelta || !need_delta) &&
                   it->second.bank.size() >= n;
        }))
        throw net::WireError(
            net::WireFault::Deadline,
            "OperatorStock: timed out waiting for stock (client dead, "
            "stalled, or bogus session id)");
    if (stopped)
        throw net::WireError(net::WireFault::Fatal,
                             "OperatorStock: retired");

    StockMetrics &sm = stockMetrics();
    const uint64_t waited = metrics::nowUs() - t0_us;
    if (waited > 0) {
        sm.waits.inc();
        sm.waitUs.inc(waited);
        trace::emitSpan("stock_wait", "svc", t0_us, waited, 0, n);
    }
    sm.taken.inc(n);
    sm.depth.sub(int64_t(n));
    return sessions.find(sid)->second;
}

void
OperatorStock::takeSend(uint64_t sid, size_t n, std::vector<Block> *q,
                        Block *delta)
{
    std::unique_lock<std::mutex> lock(m);
    SessionStock &s = waitForStockLocked(lock, sid, n, true);
    s.bank.take(n, q);
    *delta = s.delta;
}

void
OperatorStock::takeRecv(uint64_t sid, size_t n, BitVec *bits,
                        std::vector<Block> *t)
{
    std::unique_lock<std::mutex> lock(m);
    waitForStockLocked(lock, sid, n, false).bank.take(n, t, bits);
}

std::string
OperatorStock::peerOf(uint64_t sid) const
{
    std::lock_guard<std::mutex> lock(m);
    const auto it = sessions.find(sid);
    return it == sessions.end() ? std::string() : it->second.peer;
}

size_t
OperatorStock::stock(uint64_t sid) const
{
    std::lock_guard<std::mutex> lock(m);
    const auto it = sessions.find(sid);
    return it == sessions.end() ? 0 : it->second.bank.size();
}

void
OperatorStock::drop(uint64_t sid)
{
    std::lock_guard<std::mutex> lock(m);
    const auto it = sessions.find(sid);
    if (it == sessions.end())
        return;
    // Unconsumed residue leaves the bank with its session.
    stockMetrics().depth.sub(int64_t(it->second.bank.size()));
    sessions.erase(it);
}

void
OperatorStock::shutdown()
{
    std::lock_guard<std::mutex> lock(m);
    stopped = true;
    cv.notify_all();
}

void
OperatorStock::setWaitTimeout(std::chrono::milliseconds timeout)
{
    std::lock_guard<std::mutex> lock(m);
    waitTimeout = timeout;
}

} // namespace ironman::svc
