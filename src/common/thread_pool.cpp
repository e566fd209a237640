#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace ironman::common {

ThreadPool::ThreadPool(int threads)
{
    resize(threads);
}

ThreadPool::~ThreadPool()
{
    stopWorkers();
}

void
ThreadPool::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &w : workers)
        w.join();
    workers.clear();
    stopping = false;
}

void
ThreadPool::resize(int threads)
{
    int want = std::max(threads, 1) - 1; // workers beside the caller
    if (want == int(workers.size()))
        return;
    stopWorkers();
    workers.reserve(want);
    // Capture the current generation at spawn time: a worker must
    // neither replay the job that ran before the resize (its ctx
    // frame is gone) nor read jobGen so late that it misses the next
    // one. resize() never races run(), so jobGen is stable here.
    for (int id = 1; id <= want; ++id)
        workers.emplace_back(
            [this, id, gen = jobGen] { workerMain(id, gen); });
}

void
ThreadPool::run(size_t count, RangeFn fn, void *ctx)
{
    if (count == 0)
        return;
    // asyncPending is only ever toggled by the owning thread (the one
    // allowed to call run/runAsync/wait), so this unlocked check is
    // safe — and it must cover the inline fast path too.
    IRONMAN_CHECK(!asyncPending,
                  "ThreadPool::run while an async job is pending");
    const int n = threads();
    if (n == 1 || count == 1) {
        fn(ctx, 0, 0, count);
        return;
    }

    const size_t per = (count + n - 1) / n;
    {
        std::lock_guard<std::mutex> lock(mutex);
        IRONMAN_CHECK(pending == 0, "reentrant ThreadPool::run");
        jobFn = fn;
        jobCtx = ctx;
        jobCount = count;
        jobPer = per;
        jobAsync = false;
        pending = workers.size();
        ++jobGen;
    }
    cvStart.notify_all();

    // Worker 0 is the calling thread.
    fn(ctx, 0, 0, std::min(per, count));

    std::unique_lock<std::mutex> lock(mutex);
    cvDone.wait(lock, [this] { return pending == 0; });
}

void
ThreadPool::runAsync(size_t count, RangeFn fn, void *ctx)
{
    if (count == 0)
        return;
    if (workers.empty()) {
        // Degenerate pipeline: no background workers, run inline so
        // the caller's subsequent wait() is a no-op.
        fn(ctx, 0, 0, count);
        return;
    }

    const size_t slices = size_t(threads()) * kChunksPerThread;
    const size_t per = ((count + slices - 1) / slices + kChunkAlign - 1) /
                       kChunkAlign * kChunkAlign;
    {
        std::lock_guard<std::mutex> lock(mutex);
        IRONMAN_CHECK(pending == 0 && !asyncPending,
                      "ThreadPool::runAsync while a job is pending");
        jobFn = fn;
        jobCtx = ctx;
        jobCount = count;
        jobPer = per;
        jobAsync = true;
        nextChunk.store(0, std::memory_order_relaxed);
        pending = workers.size();
        asyncPending = true;
        ++jobGen;
    }
    cvStart.notify_all();
}

void
ThreadPool::claimChunks(int worker)
{
    const size_t chunks = (jobCount + jobPer - 1) / jobPer;
    for (size_t c; (c = nextChunk.fetch_add(1, std::memory_order_relaxed)) <
                   chunks;) {
        const size_t begin = c * jobPer;
        jobFn(jobCtx, worker, begin, std::min(jobCount, begin + jobPer));
    }
}

void
ThreadPool::wait()
{
    if (!asyncPending)
        return;
    claimChunks(0);
    std::unique_lock<std::mutex> lock(mutex);
    cvDone.wait(lock, [this] { return pending == 0; });
    asyncPending = false;
}

void
ThreadPool::workerMain(int id, uint64_t seen)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex);
            cvStart.wait(lock,
                         [&] { return stopping || jobGen != seen; });
            if (stopping)
                return;
            seen = jobGen;
        }

        // The job fields are read without the lock: the owner writes
        // them under it before waking the workers, and rewrites them
        // only after every worker has checked out (pending == 0).
        if (jobAsync) {
            claimChunks(id);
        } else {
            size_t begin = std::min(jobCount, size_t(id) * jobPer);
            size_t end = std::min(jobCount, begin + jobPer);
            if (begin < end)
                jobFn(jobCtx, id, begin, end);
        }

        {
            std::lock_guard<std::mutex> lock(mutex);
            --pending;
        }
        cvDone.notify_all();
    }
}

} // namespace ironman::common
