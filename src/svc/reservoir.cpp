#include "svc/reservoir.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ironman::svc {

namespace {

/**
 * Stock telemetry summed across every Reservoir in the process — the
 * demand signal the ROADMAP's refill-scheduling item needs. The stock
 * gauge moves by deltas so concurrent reservoirs compose.
 */
struct ReservoirMetrics {
    metrics::Gauge &stock = metrics::gauge("svc_reservoir_stock_cots");
    metrics::Counter &refills =
        metrics::counter("svc_reservoir_refills_total");
    metrics::Counter &stalls =
        metrics::counter("svc_reservoir_stalls_total");
    metrics::Counter &stallUs =
        metrics::counter("svc_reservoir_stall_us_total");
    metrics::Counter &taken = metrics::counter("svc_reservoir_taken_total");
};

ReservoirMetrics &
reservoirMetrics()
{
    static ReservoirMetrics m;
    return m;
}

} // namespace

Reservoir::Reservoir(CotClient &c, Options opt)
    : client_(c), opt_(opt), role_(c.role()), usable_(c.usableOts())
{
    IRONMAN_CHECK(opt_.lowWaterBatches >= 1 &&
                      opt_.maxBatches >= opt_.lowWaterBatches,
                  "reservoir watermarks inverted");
    reservoirMetrics(); // register handles before the refill loop runs
    refillThread = std::thread([this] { refillLoop(); });
}

Reservoir::~Reservoir()
{
    stopRefill();
    // Retire the remaining stock from the process-wide gauge so a
    // finished reservoir doesn't leave phantom inventory behind.
    std::lock_guard<std::mutex> lock(m);
    reservoirMetrics().stock.sub(int64_t(bank.size()));
}

void
Reservoir::stopRefill()
{
    {
        std::lock_guard<std::mutex> lock(m);
        running = false;
        needCv.notify_all();
        stockCv.notify_all();
    }
    if (refillThread.joinable())
        refillThread.join();
}

void
Reservoir::markFailed(net::WireFault fault, const std::string &what)
{
    std::lock_guard<std::mutex> lock(m);
    failed = true;
    failFault = fault;
    failWhat = what;
    stockCv.notify_all();
}

void
Reservoir::refillLoop()
{
    const size_t usable = usable_;
    const size_t low = opt_.lowWaterBatches * usable;
    const size_t cap = opt_.maxBatches * usable;
    const bool recv_role = role_ == Role::Receiver;

    for (;;) {
        {
            // Wake on crossing the low-water mark or on a pending
            // take the current stock cannot satisfy.
            std::unique_lock<std::mutex> lock(m);
            needCv.wait(lock, [&] {
                const size_t have = bank.size();
                return !running || have < low || have < demand;
            });
            if (!running)
                return;
        }

        // Once triggered, fill to the high-water mark (or the pending
        // demand, whichever is larger) with hysteresis. Extensions run
        // OUTSIDE the lock: takers keep draining the existing stock
        // while the session round trips.
        for (;;) {
            trace::Span refill_span("refill", "svc",
                                    recv_role ? 1u : 0u, usable);
            try {
                stageBlocks.resize(usable);
                if (recv_role)
                    client_.extendRecv(stageBits, stageBlocks.data());
                else
                    client_.extendSend(stageBlocks.data());
            } catch (const net::WireError &e) {
                markFailed(e.fault(), e.what());
                return;
            } catch (const std::exception &e) {
                markFailed(net::WireFault::Fatal, e.what());
                return;
            }

            std::lock_guard<std::mutex> lock(m);
            bank.append(stageBlocks.data(), usable,
                        recv_role ? &stageBits : nullptr);
            ++refillCount;
            reservoirMetrics().refills.inc();
            reservoirMetrics().stock.add(int64_t(stageBlocks.size()));
            stockCv.notify_all();
            const size_t have = bank.size();
            // The refiller retires demand once covered — a woken taker
            // must not (another taker may still be waiting on a larger
            // figure).
            if (have >= demand)
                demand = 0;
            if (!running || have >= std::max(cap, demand))
                break;
        }
    }
}

void
Reservoir::waitForStockLocked(std::unique_lock<std::mutex> &lock,
                              size_t n)
{
    // Stall accounting: time spent by takers blocked under the low
    // water mark is THE congestion signal for refill scheduling.
    const bool stalled = running && !failed && bank.size() < n;
    const uint64_t t0_us = stalled ? metrics::nowUs() : 0;
    // The demand re-arms on EVERY unsatisfied wake (the predicate runs
    // under the lock): another taker may have drained the stock after
    // the refiller retired the previous figure, and a woken taker must
    // never clear what a concurrent larger take still needs. The
    // refill loop retires demand once the stock covers it.
    stockCv.wait(lock, [&] {
        if (!running || failed || bank.size() >= n)
            return true;
        demand = std::max(demand, n);
        needCv.notify_all();
        return false;
    });
    if (stalled) {
        reservoirMetrics().stalls.inc();
        reservoirMetrics().stallUs.inc(metrics::nowUs() - t0_us);
    }
    if (bank.size() < n) {
        // The taker's error, not the refiller's: a typed throw the
        // consumer can catch and route, never a process abort.
        if (failed)
            throw net::WireError(failFault,
                                 "Reservoir: supply failed: " +
                                     failWhat);
        throw net::WireError(
            net::WireFault::PeerClosed,
            "Reservoir: stopped with takers waiting");
    }
}

void
Reservoir::takeRecv(size_t n, BitVec *out_bits, std::vector<Block> *t)
{
    IRONMAN_CHECK(role_ == Role::Receiver,
                  "takeRecv on a sender-role reservoir");
    std::unique_lock<std::mutex> lock(m);
    waitForStockLocked(lock, n);
    bank.take(n, t, out_bits);
    noteTakeLocked(n);
}

void
Reservoir::takeSend(size_t n, std::vector<Block> *q)
{
    IRONMAN_CHECK(role_ == Role::Sender,
                  "takeSend on a receiver-role reservoir");
    std::unique_lock<std::mutex> lock(m);
    waitForStockLocked(lock, n);
    bank.take(n, q);
    noteTakeLocked(n);
}

void
Reservoir::noteTakeLocked(size_t n)
{
    takenCount += n;
    reservoirMetrics().taken.inc(n);
    reservoirMetrics().stock.sub(int64_t(n));
    needCv.notify_all();
}

uint64_t
Reservoir::refills() const
{
    std::lock_guard<std::mutex> lock(m);
    return refillCount;
}

uint64_t
Reservoir::taken() const
{
    std::lock_guard<std::mutex> lock(m);
    return takenCount;
}

bool
Reservoir::failedTerminally() const
{
    std::lock_guard<std::mutex> lock(m);
    return failed;
}

} // namespace ironman::svc
