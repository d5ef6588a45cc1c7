#include "worker_pool.hpp"

#include "common/logging.hpp"

namespace bfly {

namespace {

std::size_t
defaultWorkerCount()
{
    const std::size_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

WorkerPool::WorkerPool() : WorkerPool(defaultWorkerCount()) {}

WorkerPool::WorkerPool(std::size_t workers)
{
    ensure(workers > 0,
           "WorkerPool needs at least one thread (a zero-thread pool "
           "would park every dispatch forever)");
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::submitTask(TaskGroup &group, void (*fn)(void *, std::size_t),
                       void *ctx, std::size_t arg)
{
    group.outstanding_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(Task{fn, ctx, arg, &group});
    }
    wakeCv_.notify_one();
    // A waiter sleeping through a momentarily empty queue wakes to help
    // with the refill.
    doneCv_.notify_all();
}

void
WorkerPool::finishTask(const Task &task)
{
    if (task.group->outstanding_.fetch_sub(1, std::memory_order_acq_rel) ==
        1) {
        // The empty critical section orders this notify after the waiter
        // either observed outstanding != 0 and blocked, or never blocks
        // at all.
        { std::lock_guard<std::mutex> lock(mutex_); }
        doneCv_.notify_all();
    }
}

void
WorkerPool::waitGroup(TaskGroup &group)
{
    for (;;) {
        if (group.outstanding_.load(std::memory_order_acquire) == 0)
            return;
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (tasks_.empty()) {
                // Workers own everything still queued or running; wake
                // to help if the queue refills, or to leave once the
                // group's last countdown lands.
                doneCv_.wait(lock, [&] {
                    return !tasks_.empty() ||
                           group.outstanding_.load(
                               std::memory_order_acquire) == 0;
                });
                continue;
            }
            task = tasks_.front();
            tasks_.pop_front();
        }
        task.fn(task.ctx, task.arg);
        finishTask(task);
    }
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeCv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
            if (stop_)
                return;
            task = tasks_.front();
            tasks_.pop_front();
        }
        task.fn(task.ctx, task.arg);
        finishTask(task);
    }
}

} // namespace bfly
