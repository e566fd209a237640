/**
 * @file
 * Fixed-size worker pool for deterministic data-parallel loops.
 *
 * The OTE hot path (batch-SPCOT tree expansion, LPN gather-XOR) is
 * embarrassingly parallel over disjoint output ranges, but spawning
 * std::threads per call costs both latency and heap allocations. This
 * pool follows the stage/work-queue idiom of the pipelined-simulator
 * exemplar: N-1 persistent workers plus the calling thread (worker 0).
 * run() hands each of them one contiguous range. runAsync() cuts the
 * job into fixed chunks that the workers claim at once, and the
 * calling thread joins the job in wait() once its own stage returns,
 * so no core idles through the drain. Its one call site is the FERRET
 * receiver's LPN pass, which runs while the calling thread reads the
 * next SPCOT transcript off the wire.
 *
 * Properties the protocol code relies on:
 *  - range and chunk boundaries depend only on (count, threads),
 *    never on scheduling. Which thread runs an async chunk does
 *    depend on scheduling, so a job's output must depend only on the
 *    range, never on the worker id (ids pick per-thread scratch);
 *  - run(), runAsync() and wait() perform no heap allocation (jobs
 *    are a function pointer + context, not a queue of std::functions);
 *  - with threads <= 1 the pool holds no workers and runs inline.
 *
 * Jobs must not throw (protocol invariants use IRONMAN_CHECK, which
 * aborts) and must not call run() reentrantly from a worker.
 */

#ifndef IRONMAN_COMMON_THREAD_POOL_H
#define IRONMAN_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace ironman::common {

/** Persistent worker pool; the calling thread is worker 0. */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads = 1);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Change the worker count (joins and respawns threads). Must not
     * race with run(). No-op when the count is unchanged.
     */
    void resize(int threads);

    /** Ranges a job is split into (workers + the calling thread). */
    int threads() const { return int(workers.size()) + 1; }

    using RangeFn = void (*)(void *ctx, int worker, size_t begin,
                             size_t end);

    /**
     * Split [0, count) into threads() contiguous ranges of
     * ceil(count/threads()) and invoke fn(ctx, worker, begin, end) on
     * each non-empty one; blocks until all complete. Worker 0 runs on
     * the calling thread.
     */
    void run(size_t count, RangeFn fn, void *ctx);

    /** Sugar: parallelFor(n, [&](int worker, size_t b, size_t e) {...}). */
    template <typename F>
    void
    parallelFor(size_t count, F &&f)
    {
        run(count,
            [](void *ctx, int worker, size_t begin, size_t end) {
                (*static_cast<std::remove_reference_t<F> *>(ctx))(
                    worker, begin, end);
            },
            &f);
    }

    /**
     * Launch a job on the background workers and return immediately,
     * leaving the calling thread free for other work (e.g. wire I/O of
     * the next pipeline stage). [0, count) is cut into contiguous
     * chunks of ceil(count / (threads() * kChunksPerThread)) rounded
     * up to kChunkAlign; the workers claim them in order through one
     * cursor and call fn(ctx, id, begin, end) for each. With no
     * workers (threads() == 1) the job runs inline before returning.
     * @p ctx and the data it references must stay alive until wait().
     * run()/parallelFor() must not be called while an async job is
     * pending.
     */
    void runAsync(size_t count, RangeFn fn, void *ctx);

    /**
     * Join the job launched by runAsync(): claim its remaining chunks
     * on the calling thread as worker 0, then block until the workers'
     * last chunks finish. Worker ids stay in [0, threads()); when the
     * pool has workers, id 0 runs only here.
     */
    void wait();

    /** Async sugar; the callable must outlive the matching wait(). */
    template <typename F>
    void
    parallelForAsync(size_t count, F &f)
    {
        runAsync(count,
                 [](void *ctx, int worker, size_t begin, size_t end) {
                     (*static_cast<F *>(ctx))(worker, begin, end);
                 },
                 &f);
    }

  private:
    /** Async chunks per thread: the caller's late join stays balanced. */
    static constexpr size_t kChunksPerThread = 8;
    /** Async chunk widths are multiples of this (whole 64-row words). */
    static constexpr size_t kChunkAlign = 64;

    void workerMain(int id, uint64_t start_gen);
    void stopWorkers();
    /** Run unclaimed chunks of the async job as @p worker. */
    void claimChunks(int worker);

    std::vector<std::thread> workers;

    std::mutex mutex;
    std::condition_variable cvStart;
    std::condition_variable cvDone;
    uint64_t jobGen = 0;   ///< incremented per job; workers watch it
    RangeFn jobFn = nullptr;
    void *jobCtx = nullptr;
    size_t jobCount = 0;
    size_t jobPer = 0;     ///< range (run) or chunk (runAsync) width
    bool jobAsync = false; ///< chunks claimed through nextChunk
    std::atomic<size_t> nextChunk{0}; ///< async claim cursor
    size_t pending = 0;    ///< workers still running the current job
    bool asyncPending = false; ///< a runAsync() awaits wait()
    bool stopping = false;
};

} // namespace ironman::common

#endif // IRONMAN_COMMON_THREAD_POOL_H
