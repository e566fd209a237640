/**
 * @file
 * Invariant 12 (DESIGN.md): a pooled engine serves successive sessions
 * with zero heap allocations after its first warm extension.
 *
 * The counting global allocator measures whole session turnovers —
 * EnginePool checkout, resetSession onto a fresh channel with fresh
 * base material, warm extensions, lease release — for both engine
 * roles. Session 0 is the warm-up (leaf slot, tape build, transcript
 * buffer sizing, pool bookkeeping); sessions 1..N must allocate
 * nothing on either party. Channels and base material are prepared
 * up front: they are session INPUTS, not engine state (the service's
 * session threads own them; a deployment reuses per-connection
 * buffers the same way).
 *
 * Rides along: the bounded MemoryDuplex (reserve() = hard capacity)
 * is what makes the wire's no-allocation property deterministic
 * rather than scheduling-dependent — asserted via
 * capacityPerDirection().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "net/channel.h"
#include "ot/ferret_params.h"
#include "svc/engine_pool.h"
#include "svc/wire.h"

// ---------------------------------------------------------------------------
// Counting global allocator
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocCount{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace ironman::svc {
namespace {

void
expectPooledSessionsAllocationFree(const ot::FerretParams &p)
{
    constexpr int kSessions = 3; // 0 = warm-up, 1..2 measured
    constexpr int kIters = 2;
    const size_t reserved = p.reservedCots();

    // Session inputs, prepared up front: one duplex (bounded — the
    // reserve is a hard capacity), base material, and delta per
    // session.
    std::vector<std::unique_ptr<net::MemoryDuplex>> duplex;
    std::vector<ot::CotSenderBatch> base_s(kSessions);
    std::vector<ot::CotReceiverBatch> base_r(kSessions);
    std::vector<Block> delta(kSessions);
    for (int s = 0; s < kSessions; ++s) {
        duplex.push_back(std::make_unique<net::MemoryDuplex>());
        duplex.back()->reserve(1 << 20);
        dealSessionBase(p, 7700 + s, &base_s[s], &base_r[s], &delta[s]);
    }
    const size_t fifo_capacity = duplex[0]->capacityPerDirection();

    EnginePool pool;
    std::vector<Block> q(p.usableOts());
    std::vector<Block> t(p.usableOts());
    BitVec choice;

    // Persistent party threads; main releases one session at a time.
    std::atomic<int> go{-1};
    std::atomic<int> done{0};
    std::thread sender_thread([&] {
        for (int s = 0; s < kSessions; ++s) {
            while (go.load(std::memory_order_acquire) < s)
                std::this_thread::yield();
            Rng rng(senderRngSeed(7700 + s));
            EnginePool::SenderLease lease = pool.checkoutSender(p);
            lease->resetSession(duplex[s]->a(), delta[s],
                                base_s[s].q.data(), reserved);
            for (int it = 0; it < kIters; ++it)
                lease->extendInto(rng, q.data());
            lease.release();
            done.fetch_add(1, std::memory_order_acq_rel);
        }
    });
    std::thread receiver_thread([&] {
        for (int s = 0; s < kSessions; ++s) {
            while (go.load(std::memory_order_acquire) < s)
                std::this_thread::yield();
            Rng rng(receiverRngSeed(7700 + s));
            EnginePool::ReceiverLease lease = pool.checkoutReceiver(p);
            lease->resetSession(duplex[s]->b(), base_r[s].choice,
                                base_r[s].t.data(), reserved);
            for (int it = 0; it < kIters; ++it)
                lease->extendInto(rng, choice, t.data());
            lease.release();
            done.fetch_add(1, std::memory_order_acq_rel);
        }
    });

    uint64_t measured_start = 0;
    for (int s = 0; s < kSessions; ++s) {
        if (s == 1)
            measured_start = g_allocCount.load();
        go.store(s, std::memory_order_release);
        while (done.load(std::memory_order_acquire) < 2 * (s + 1))
            std::this_thread::yield();
    }
    const uint64_t measured = g_allocCount.load() - measured_start;
    sender_thread.join();
    receiver_thread.join();

    EXPECT_EQ(measured, 0u)
        << "session turnover on pooled engines performed allocations";

    // Only one engine pair was ever constructed for all sessions.
    EXPECT_EQ(pool.sendersCreated(), 1u);
    EXPECT_EQ(pool.receiversCreated(), 1u);

    // The bounded FIFO never grew (deterministic worst-case bound).
    for (int s = 0; s < kSessions; ++s)
        EXPECT_EQ(duplex[s]->capacityPerDirection(), fifo_capacity);

    // The last session still produced valid correlations.
    for (size_t i = 0; i < q.size(); ++i)
        ASSERT_EQ(t[i],
                  q[i] ^ scalarMul(choice.get(i),
                                   delta[kSessions - 1]))
            << "index " << i;
}

TEST(SvcPoolAllocTest, SessionTurnoverIsAllocationFree)
{
    expectPooledSessionsAllocationFree(ot::tinyTestParams());
}

TEST(SvcPoolAllocTest, AlignedShapeSessionTurnoverIsAllocationFree)
{
    // bucketSize() == treeLeaves(): every leaf of the slot is a row.
    expectPooledSessionsAllocationFree(ot::tinyAlignedParams());
}

TEST(SvcPoolAllocTest, MetricsRecordingIsAllocationFree)
{
    // Invariant 17: recording on pre-registered handles allocates
    // nothing — telemetry must be free to leave on by default on the
    // invariant-12 warm paths. Registration (the only allocating
    // step) is the warm-up here, exactly as the instrumented
    // subsystems do it in their constructors; the session scope
    // materialises the thread's trace ring the same way.
    metrics::Counter &c = metrics::counter("alloc_probe_counter");
    metrics::Gauge &g = metrics::gauge("alloc_probe_gauge");
    metrics::Histogram &h = metrics::histogram("alloc_probe_hist");
    trace::SessionScope scope(1);
    c.inc();
    g.add(1);
    h.record(1);
    trace::note("warmup");

    const uint64_t start = g_allocCount.load();
    for (uint64_t i = 0; i < 10000; ++i) {
        c.inc();
        g.add(3);
        g.sub(3);
        h.record(i * 37);
        h.recordSinceUs(metrics::nowUs());
        trace::note("probe", uint32_t(i), i);
    }
    EXPECT_EQ(g_allocCount.load() - start, 0u)
        << "metric recording on the warm path performed allocations";
    EXPECT_EQ(c.value(), 10001u);
    EXPECT_EQ(g.value(), 1);
    trace::dumpSession("probe");
    EXPECT_NE(trace::lastDump().find("last 64/10001 events"),
              std::string::npos)
        << trace::lastDump();
}

} // namespace
} // namespace ironman::svc
