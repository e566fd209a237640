/**
 * @file
 * Workspace-engine tests (invariants 8 and 9 of DESIGN.md; the
 * engines' thread-count independence is test_ferret's
 * FerretPairGrid):
 *
 *  - a warm FerretCotSender/Receiver::extendInto() performs zero heap
 *    allocations on either party (asserted by a counting global
 *    allocator, including the in-memory wire), and so do the
 *    streaming LPN encoders;
 *  - the OtWorkspace leaf slot is sized once from FerretParams;
 *  - the persistent ppml::FerretCotEngine refills mid-protocol and
 *    engine-backed SecureCompute matches plain evaluation;
 *  - the unified SeedExpander drives the GGM trees and the NMP
 *    Unified Unit to identical results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "common/rng.h"
#include "net/two_party.h"
#include "nmp/unified_unit.h"
#include "ot/base_cot.h"
#include "ot/ferret.h"
#include "ot/ferret_params.h"
#include "ot/lpn.h"
#include "ot/ot_workspace.h"
#include "ppml/cot_engine.h"
#include "ppml/secure_compute.h"

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

namespace ironman::ot {
namespace {

// ---------------------------------------------------------------------------
// Invariant 8: zero allocations after warm-up
// ---------------------------------------------------------------------------

void
expectAllocationFreeAfterWarmup(const FerretParams &p, int threads)
{
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Rng dealer(901);
    Block delta = dealer.nextBlock();
    auto [bs, br] = dealBaseCots(dealer, delta, p.reservedCots());

    net::MemoryDuplex duplex;
    // reserve() fixes the FIFO capacity (backpressure instead of
    // growth), so the measured window cannot see a wire allocation by
    // construction — one full iteration per direction is well under
    // 1 MB for the tiny set, so the bound never even engages.
    duplex.reserve(1 << 20);
    const size_t fifo_capacity = duplex.capacityPerDirection();
    FerretCotSender sender(duplex.a(), p, delta, std::move(bs.q));
    FerretCotReceiver receiver(duplex.b(), p, std::move(br.choice),
                               std::move(br.t));
    // Above 1 thread the async LPN hands off to the pool and the
    // caller joins it in wait(): the chunk cursor and the join must
    // not allocate either.
    sender.setThreads(threads);
    receiver.setThreads(threads);

    std::vector<Block> q(p.usableOts());
    std::vector<Block> t(p.usableOts());
    BitVec choice;

    // The two party threads persist across iterations (so warm-up
    // state survives); main releases one lock-free round at a time.
    constexpr int kWarm = 2, kMeasured = 3, kTotal = kWarm + kMeasured;
    std::atomic<int> go{0};
    std::atomic<int> done{0};

    std::thread sender_thread([&] {
        Rng rng(902);
        for (int it = 1; it <= kTotal; ++it) {
            while (go.load(std::memory_order_acquire) < it)
                std::this_thread::yield();
            sender.extendInto(rng, q.data());
            done.fetch_add(1, std::memory_order_acq_rel);
        }
    });
    std::thread receiver_thread([&] {
        Rng rng(903);
        for (int it = 1; it <= kTotal; ++it) {
            while (go.load(std::memory_order_acquire) < it)
                std::this_thread::yield();
            receiver.extendInto(rng, choice, t.data());
            done.fetch_add(1, std::memory_order_acq_rel);
        }
    });

    uint64_t measured_start = 0;
    for (int it = 1; it <= kTotal; ++it) {
        if (it == kWarm + 1)
            measured_start = g_allocCount.load();
        go.store(it, std::memory_order_release);
        while (done.load(std::memory_order_acquire) < 2 * it)
            std::this_thread::yield();
    }
    uint64_t measured = g_allocCount.load() - measured_start;

    sender_thread.join();
    receiver_thread.join();

    EXPECT_EQ(measured, 0u)
        << "warm extendInto() performed heap allocations";
    EXPECT_EQ(duplex.capacityPerDirection(), fifo_capacity)
        << "bounded FIFO grew — reserve() must be a hard bound";

    // The measured iterations still produced valid correlations.
    for (size_t i = 0; i < q.size(); ++i)
        ASSERT_EQ(t[i], q[i] ^ scalarMul(choice.get(i), delta))
            << "index " << i;
}

TEST(WorkspaceEngineTest, ExtendIsAllocationFreeAfterWarmup)
{
    // tinyAlignedParams(): the bucket == tree edge shape, where every
    // leaf of the slot is an output row.
    for (const FerretParams &p : {tinyTestParams(), tinyAlignedParams()})
        for (int threads : {1, 2, 4}) {
            SCOPED_TRACE(p.name);
            expectAllocationFreeAfterWarmup(p, threads);
        }
}

TEST(WorkspaceEngineTest, StreamingLpnEncodesAreAllocationFree)
{
    // The engines above run the tape; the 2^23+ sets stream instead.
    // The fused streaming encoders keep their indices on the stack, so
    // a block encode on a warm scratch, the receiver's ranged bit
    // encode fanned out as the engine does, and its one-pass block +
    // bit encode allocate nothing.
    LpnParams p;
    p.n = 4096 + 40;
    p.k = 512;
    p.seed = 904;
    const LpnEncoder enc(p);
    Rng rng(905);
    const std::vector<Block> in = rng.nextBlocks(p.k);
    std::vector<Block> rows = rng.nextBlocks(p.n);
    const BitVec bits_in = rng.nextBits(p.k);
    BitVec bits = rng.nextBits(p.n);
    LpnEncodeScratch scratch;
    common::ThreadPool pool(3);
    auto encode = [&] {
        enc.encodeBlocks(in.data(), rows.data(), 0, p.n, scratch);
        pool.parallelFor((p.n + 63) / 64, [&](int, size_t wlo, size_t whi) {
            const size_t row0 = wlo * 64;
            enc.encodeBits(bits_in, bits, row0,
                           std::min(whi * 64, p.n) - row0);
        });
        enc.encodeBlocksAndBits(in.data(), rows.data() + 64, bits_in, bits,
                                64, p.n - 64);
    };
    encode(); // warm-up
    const uint64_t before = g_allocCount.load();
    encode();
    EXPECT_EQ(g_allocCount.load() - before, 0u)
        << "warm streaming LPN encodes performed heap allocations";
}

// ---------------------------------------------------------------------------
// Leaf slot sizing
// ---------------------------------------------------------------------------

TEST(WorkspaceEngineTest, LeafSlotSizedOnceFromParams)
{
    FerretParams p = tinyTestParams();
    OtWorkspace ws;
    ws.prepare(p, 2);
    // Each tree expands only its bucket's leaves: w = 640 of l = 1024.
    EXPECT_EQ(ws.leaf.size(), p.t * 640)
        << "one t x w leaf slot, no staging rows";

    // prepare() is idempotent: same params, same buffer.
    const Block *leaf = ws.leaf.data();
    ws.prepare(p, 2);
    EXPECT_EQ(ws.leaf.data(), leaf);
}

// ---------------------------------------------------------------------------
// Persistent PPML engine
// ---------------------------------------------------------------------------

TEST(FerretCotEngineTest, EngineBackedReluMatchesPlainAcrossRefills)
{
    constexpr unsigned kWidth = 32;
    constexpr uint64_t kMask = 0xffffffffULL;
    // Large enough that the DReLU AND-ladder drains more than one
    // extension per direction, forcing mid-protocol refills.
    const size_t n = 300;

    Rng rng(50);
    std::vector<int64_t> values(n);
    std::vector<uint64_t> s0(n), s1(n);
    for (size_t i = 0; i < n; ++i) {
        values[i] = int64_t(rng.nextBelow(10000)) - 5000;
        s0[i] = rng.nextUint64() & kMask;
        s1[i] = (uint64_t(values[i]) - s0[i]) & kMask;
    }

    FerretParams p = tinyTestParams();
    std::vector<uint64_t> y0, y1;
    uint64_t extensions = 0;
    net::runTwoParty(
        [&](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, 0, p, 424242);
            ppml::SecureCompute sc(ch, 0, engine, kWidth);
            y0 = sc.relu(s0);
            extensions = engine.extensionsRun();
        },
        [&](net::Channel &ch) {
            ppml::FerretCotEngine engine(ch, 1, p, 424242);
            ppml::SecureCompute sc(ch, 1, engine, kWidth);
            y1 = sc.relu(s1);
        });

    for (size_t i = 0; i < n; ++i) {
        uint64_t got = (y0[i] + y1[i]) & kMask;
        uint64_t expect =
            uint64_t(values[i] > 0 ? values[i] : 0) & kMask;
        ASSERT_EQ(got, expect) << "element " << i;
    }
    // Construction primes one extension per direction, and a take
    // extends only while its bank holds fewer than it asks for. That
    // schedule runs exactly 14 extensions here (both directions, party
    // 0), while each direction's CotBank compacts 5 times; a changed
    // count means the refills moved to other protocol steps.
    EXPECT_EQ(extensions, 14u);
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ResizeAfterUseDoesNotReplayStaleJob)
{
    common::ThreadPool pool(3);
    std::vector<int> hits(100, 0);
    pool.parallelFor(hits.size(), [&](int, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            hits[i]++;
    });
    for (int h : hits)
        ASSERT_EQ(h, 1);

    // Fresh workers must wait for a new job instead of re-running the
    // previous one (whose context frame is gone).
    pool.resize(4);
    pool.parallelFor(hits.size(), [&](int, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            hits[i]++;
    });
    for (int h : hits)
        ASSERT_EQ(h, 2);
}

/**
 * One async job, joined at once: every index visited exactly once in
 * non-empty ranges, ids in [0, threads()), id 0 only on the calling
 * thread and only inside wait() (threads() == 1 runs inline in
 * runAsync instead). Each chunk adds its rows to @p rows_done if given.
 * Returns whether the caller ran every chunk itself.
 */
bool
runAsyncJob(common::ThreadPool &pool, size_t count,
            std::vector<uint8_t> &hits,
            std::atomic<size_t> *rows_done = nullptr)
{
    hits.assign(count, 0);
    const int threads = pool.threads();
    const std::thread::id caller = std::this_thread::get_id();
    bool in_wait = false; // touched by worker 0 (the caller) only
    std::atomic<int> bad{0};
    std::atomic<size_t> by_workers{0};
    auto job = [&](int worker, size_t lo, size_t hi) {
        const bool on_caller = std::this_thread::get_id() == caller;
        if (lo >= hi || hi > count || worker < 0 || worker >= threads ||
            on_caller != (worker == 0) ||
            (worker == 0 && threads > 1 && !in_wait))
            bad.fetch_add(1, std::memory_order_relaxed);
        if (worker != 0)
            by_workers.fetch_add(hi - lo, std::memory_order_relaxed);
        for (size_t i = lo; i < hi; ++i)
            hits[i]++;
        if (rows_done)
            rows_done->fetch_add(hi - lo, std::memory_order_release);
    };
    pool.parallelForAsync(count, job);
    in_wait = true;
    pool.wait();
    in_wait = false;

    EXPECT_EQ(bad.load(), 0) << count << " rows at " << threads;
    for (size_t i = 0; i < count; ++i)
        if (hits[i] != 1) {
            ADD_FAILURE() << "index " << i << " of " << count << " at "
                          << threads << " threads visited "
                          << int(hits[i]) << " times";
            break;
        }
    return by_workers.load() == 0;
}

TEST(ThreadPoolTest, AsyncJobVisitsEveryIndexOnceAndCallerJoinsInWait)
{
    common::ThreadPool pool;
    std::vector<uint8_t> hits;
    std::vector<int> sync_hits;
    for (int rep = 0; rep < 200; ++rep)
        for (int threads : {1, 2, 3, 4}) {
            pool.resize(threads); // between async jobs
            for (size_t count : {0, 1, 2, 63, 64, 65, 1000, 100003}) {
                runAsyncJob(pool, count, hits);
                // A static-split job right after the join.
                sync_hits.assign(count, 0);
                pool.parallelFor(count, [&](int, size_t lo, size_t hi) {
                    for (size_t i = lo; i < hi; ++i)
                        sync_hits[i]++;
                });
                ASSERT_EQ(std::count(sync_hits.begin(), sync_hits.end(), 1),
                          std::ptrdiff_t(count));
            }
            if (testing::Test::HasFailure())
                return;
        }
}

TEST(ThreadPoolTest, CallerDrainsAsyncJobAlone)
{
    // Hold the workers off until the caller has claimed every chunk:
    // they run at SCHED_IDLE, which never preempts a normal thread, on
    // a CPU of their own that a normal-priority spinner holds until
    // every row of the job is done. The caller, pinned elsewhere,
    // drains the job in wait(); the late workers must then find the
    // cursor spent and still check in before wait() returns. Another
    // process preempting the caller cannot let a worker in, as the
    // spinner still holds the workers' CPU. With a one-CPU mask the
    // workers share the caller's CPU and no spinner runs; there a
    // preempted caller can let a worker in, so the drained-alone case
    // is required at least once, and every job's contract always.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
    struct RestoreAffinity
    {
        const cpu_set_t &mask;
        ~RestoreAffinity() { sched_setaffinity(0, sizeof mask, &mask); }
    } restore{saved};
    const int caller_cpu = sched_getcpu();
    int worker_cpu = caller_cpu;
    for (int c = 0; c < CPU_SETSIZE && worker_cpu == caller_cpu; ++c)
        if (c != caller_cpu && CPU_ISSET(c, &saved))
            worker_cpu = c;
    cpu_set_t caller_set, worker_set;
    CPU_ZERO(&caller_set);
    CPU_SET(caller_cpu, &caller_set);
    CPU_ZERO(&worker_set);
    CPU_SET(worker_cpu, &worker_set);

    common::ThreadPool pool(4);
    std::vector<pid_t> tids(size_t(pool.threads()));
    pool.parallelFor(tids.size(), [&](int worker, size_t, size_t) {
        tids[size_t(worker)] = pid_t(syscall(SYS_gettid));
    });
    const sched_param idle{};
    ASSERT_EQ(sched_setaffinity(tids[0], sizeof caller_set, &caller_set), 0);
    for (size_t w = 1; w < tids.size(); ++w) {
        ASSERT_EQ(sched_setaffinity(tids[w], sizeof worker_set, &worker_set),
                  0);
        ASSERT_EQ(sched_setscheduler(tids[w], SCHED_IDLE, &idle), 0);
    }

    std::vector<uint8_t> hits;
    int alone = 0, jobs = 0;
    for (int rep = 0; rep < 100; ++rep)
        for (size_t count : {1, 65, 1000}) {
            // A fresh time slice, so no tick preempts the caller
            // mid-claim.
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            std::atomic<size_t> rows{0};
            std::atomic<bool> holding{false};
            std::thread spinner;
            if (worker_cpu != caller_cpu) {
                spinner = std::thread([&] {
                    EXPECT_EQ(sched_setaffinity(0, sizeof worker_set,
                                                &worker_set),
                              0);
                    holding.store(true, std::memory_order_release);
                    while (rows.load(std::memory_order_acquire) < count) {
                    }
                });
                while (!holding.load(std::memory_order_acquire))
                    std::this_thread::yield();
            }
            alone += runAsyncJob(pool, count, hits, &rows);
            ++jobs;
            if (spinner.joinable())
                spinner.join();
        }
    EXPECT_GT(alone, 0) << "of " << jobs << " jobs";
}

// ---------------------------------------------------------------------------
// Unified seed expansion
// ---------------------------------------------------------------------------

TEST(SeedExpanderTest, UnifiedUnitExpandAndReduceMatchesGgmSums)
{
    auto prg = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
    Rng rng(62);
    std::vector<Block> parents = rng.nextBlocks(16);
    std::vector<Block> children(parents.size() * 4);
    std::vector<Block> sums(4);
    nmp::UnifiedUnit::expandAndReduce(*prg, parents.data(),
                                      parents.size(), 4,
                                      children.data(), sums.data());

    // The same level through the protocol-side expander, reduced
    // naively: child (j, c) lands in slot c.
    auto ref_prg = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
    std::vector<Block> ref_children(children.size());
    ref_prg->expand(parents.data(), ref_children.data(), parents.size(),
                    4);
    EXPECT_EQ(children, ref_children);

    std::vector<Block> ref_sums(4, Block::zero());
    for (size_t j = 0; j < parents.size(); ++j)
        for (unsigned c = 0; c < 4; ++c)
            ref_sums[c] ^= ref_children[j * 4 + c];
    EXPECT_EQ(sums, ref_sums);
}

TEST(SeedExpanderTest, GgmScratchReuseAcrossShapes)
{
    // One scratch serving two different tree shapes must give the
    // same answers as fresh scratches.
    auto prg = crypto::makeTreeExpander(crypto::PrgKind::ChaCha8, 4);
    GgmScratch shared;
    Rng rng(63);
    Block seed1 = rng.nextBlock(), seed2 = rng.nextBlock();

    for (auto arities :
         {std::vector<unsigned>{2, 4, 4}, std::vector<unsigned>{4, 4}}) {
        GgmSumLayout layout = GgmSumLayout::of(arities);
        std::vector<Block> leaves_a(layout.leaves),
            leaves_b(layout.leaves);
        std::vector<Block> sums_a(layout.total), sums_b(layout.total);
        Block sum_a, sum_b;

        Block seed = arities.size() == 3 ? seed1 : seed2;
        ggmExpandInto(*prg, seed, layout, shared, leaves_a.data(),
                      sums_a.data(), &sum_a);
        GgmScratch fresh;
        ggmExpandInto(*prg, seed, layout, fresh, leaves_b.data(),
                      sums_b.data(), &sum_b);
        EXPECT_EQ(leaves_a, leaves_b);
        EXPECT_EQ(sums_a, sums_b);
        EXPECT_EQ(sum_a, sum_b);
    }
}

} // namespace
} // namespace ironman::ot
