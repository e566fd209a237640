#include "svc/engine_pool.h"

#include "common/metrics.h"

namespace ironman::svc {

namespace {

/**
 * Pool telemetry, shared across every EnginePool in the process.
 * Registered on the first checkout (a cold path: the counting-
 * allocator suite's warm-up session) so the warm checkout fast path
 * is a pure relaxed increment — invariant 12 stays intact.
 */
struct PoolMetrics {
    metrics::Counter &checkouts =
        metrics::counter("svc_engine_checkouts_total");
    metrics::Counter &warmHits =
        metrics::counter("svc_engine_warm_hits_total");
    metrics::Counter &built = metrics::counter("svc_engine_built_total");
};

PoolMetrics &
poolMetrics()
{
    static PoolMetrics m;
    return m;
}

} // namespace

bool
paramsAllowed(const ot::FerretParams &p,
              const std::vector<ot::FerretParams> &allowlist)
{
    if (allowlist.empty())
        return true;
    for (const ot::FerretParams &allowed : allowlist)
        if (p.shape() == allowed.shape())
            return true;
    return false;
}

// ---------------------------------------------------------------------------
// Leases
// ---------------------------------------------------------------------------

EnginePool::SenderLease &
EnginePool::SenderLease::operator=(SenderLease &&o) noexcept
{
    if (this != &o) {
        release();
        engine = std::move(o.engine);
        pool = o.pool;
        key = o.key;
        o.pool = nullptr;
    }
    return *this;
}

void
EnginePool::SenderLease::release()
{
    if (engine && pool)
        pool->returnSender(key, std::move(engine));
    engine.reset();
    pool = nullptr;
}

EnginePool::ReceiverLease &
EnginePool::ReceiverLease::operator=(ReceiverLease &&o) noexcept
{
    if (this != &o) {
        release();
        engine = std::move(o.engine);
        pool = o.pool;
        key = o.key;
        o.pool = nullptr;
    }
    return *this;
}

void
EnginePool::ReceiverLease::release()
{
    if (engine && pool)
        pool->returnReceiver(key, std::move(engine));
    engine.reset();
    pool = nullptr;
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

std::unique_ptr<ot::FerretCotSender>
EnginePool::makeSender(const ot::FerretParams &p)
{
    auto e = std::make_unique<ot::FerretCotSender>(p);
    e->setThreads(cfg_.threads);
    e->prewarm();
    return e;
}

std::unique_ptr<ot::FerretCotReceiver>
EnginePool::makeReceiver(const ot::FerretParams &p)
{
    auto e = std::make_unique<ot::FerretCotReceiver>(p);
    e->setThreads(cfg_.threads);
    e->prewarm();
    return e;
}

EnginePool::SenderLease
EnginePool::checkoutSender(const ot::FerretParams &p)
{
    const ot::FerretShape key = p.shape();
    PoolMetrics &pm = poolMetrics();
    pm.checkouts.inc();
    SenderLease lease;
    lease.pool = this;
    lease.key = key;
    {
        std::lock_guard<std::mutex> lock(m);
        auto it = idleSend.find(key);
        if (it != idleSend.end() && !it->second.empty()) {
            lease.engine = std::move(it->second.back());
            it->second.pop_back();
            pm.warmHits.inc();
            return lease;
        }
        ++madeSenders;
    }
    pm.built.inc();
    // Construction + prewarm outside the lock: sizing the workspace,
    // and building the set's shared tape when no engine holds it, is
    // slow, and other sessions must keep checking out.
    lease.engine = makeSender(p);
    return lease;
}

EnginePool::ReceiverLease
EnginePool::checkoutReceiver(const ot::FerretParams &p)
{
    const ot::FerretShape key = p.shape();
    PoolMetrics &pm = poolMetrics();
    pm.checkouts.inc();
    ReceiverLease lease;
    lease.pool = this;
    lease.key = key;
    {
        std::lock_guard<std::mutex> lock(m);
        auto it = idleRecv.find(key);
        if (it != idleRecv.end() && !it->second.empty()) {
            lease.engine = std::move(it->second.back());
            it->second.pop_back();
            pm.warmHits.inc();
            return lease;
        }
        ++madeReceivers;
    }
    pm.built.inc();
    lease.engine = makeReceiver(p);
    return lease;
}

void
EnginePool::prewarm(const ot::FerretParams &p, int count)
{
    const ot::FerretShape key = p.shape();
    for (int i = 0; i < count; ++i) {
        auto s = makeSender(p);
        auto r = makeReceiver(p);
        std::lock_guard<std::mutex> lock(m);
        idleSend[key].push_back(std::move(s));
        idleRecv[key].push_back(std::move(r));
        ++madeSenders;
        ++madeReceivers;
    }
}

void
EnginePool::returnSender(const ot::FerretShape &key,
                         std::unique_ptr<ot::FerretCotSender> e)
{
    std::lock_guard<std::mutex> lock(m);
    idleSend[key].push_back(std::move(e));
}

void
EnginePool::returnReceiver(const ot::FerretShape &key,
                           std::unique_ptr<ot::FerretCotReceiver> e)
{
    std::lock_guard<std::mutex> lock(m);
    idleRecv[key].push_back(std::move(e));
}

uint64_t
EnginePool::sendersCreated() const
{
    std::lock_guard<std::mutex> lock(m);
    return madeSenders;
}

uint64_t
EnginePool::receiversCreated() const
{
    std::lock_guard<std::mutex> lock(m);
    return madeReceivers;
}

size_t
EnginePool::idleSenders() const
{
    std::lock_guard<std::mutex> lock(m);
    size_t n = 0;
    for (const auto &[k, v] : idleSend)
        n += v.size();
    return n;
}

size_t
EnginePool::idleReceivers() const
{
    std::lock_guard<std::mutex> lock(m);
    size_t n = 0;
    for (const auto &[k, v] : idleRecv)
        n += v.size();
    return n;
}

} // namespace ironman::svc
