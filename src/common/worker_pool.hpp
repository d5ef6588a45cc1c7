/**
 * @file
 * Persistent worker pool executing queued tasks.
 *
 * A fixed set of long-lived threads parks on a condition variable; all
 * dispatch goes through one mutex-protected task queue. Per-item work in
 * this codebase is a whole block pass or a whole session stage
 * (thousands of events), so a queue lock per item is noise.
 *
 * There is one completion protocol: tasks are submitted into a
 * TaskGroup and the submitter waits for that group to drain
 * (`submitTask` + `waitGroup`). Tasks may submit further tasks into
 * their own group from inside their bodies; this is how the pipelined
 * window schedule's dependency graph releases a successor the moment
 * its last prerequisite completes, and how a session's independent
 * stages overlap. Each group counts its submitted-but-unfinished tasks:
 * the count is incremented before a task is visible in the queue and
 * decremented after its body returns, so it reaching zero means the
 * group's whole frontier drained. The last decrement wakes waiters
 * through a second condition variable. Groups are independent, so any
 * number of drivers (the monitoring service's concurrent sessions) may
 * share one pool.
 *
 * An earlier revision dispatched batches through a lock-free ticket
 * counter. A worker descheduled inside that protocol could wake after
 * the batch boundary and apply the new batch's function to the old
 * batch's ticket base — misindexed items, silently skipped blocks.
 * With block-sized work items the lock bought nothing; it was removed
 * rather than patched (see DESIGN.md "Performance substrate").
 */

#ifndef BUTTERFLY_COMMON_WORKER_POOL_HPP
#define BUTTERFLY_COMMON_WORKER_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace bfly {

class WorkerPool;

/**
 * Completion domain for a set of tasks on a WorkerPool. Each group keeps
 * its own submitted-but-unfinished count, so several drivers (e.g. the
 * monitoring service's concurrent sessions) can share one pool: each
 * submits into its own group and waits for just that group to drain,
 * while the pool's threads execute tasks from every group in FIFO order.
 * A group must outlive every task submitted into it.
 */
class TaskGroup
{
  public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Tasks submitted into this group and not yet finished. */
    std::size_t
    outstanding() const
    {
        return outstanding_.load(std::memory_order_acquire);
    }

  private:
    friend class WorkerPool;
    std::atomic<std::size_t> outstanding_{0};
};

/** Fixed set of long-lived threads executing queued tasks. */
class WorkerPool
{
  public:
    /** Sizes the pool to std::thread::hardware_concurrency() (min 1). */
    WorkerPool();
    /**
     * @param workers  thread count; must be positive. A pool with zero
     *                 threads would park every dispatch forever, so the
     *                 mistake is rejected loudly instead.
     */
    explicit WorkerPool(std::size_t workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    std::size_t workers() const { return threads_.size(); }
    /** Thread count (alias of workers(), container-style spelling). */
    std::size_t size() const { return threads_.size(); }

    /**
     * Enqueue one task into @p group. Safe to call from any thread,
     * including from inside a running task (a dependency graph submits
     * a successor the moment its last prerequisite completes). Any
     * number of drivers may submit into distinct groups and wait on
     * them concurrently, so several pipelined window schedules can
     * share one pool.
     * Every submitted task must be balanced by a waitGroup() on its
     * group; tasks never outlive the pool.
     */
    void submitTask(TaskGroup &group, void (*fn)(void *, std::size_t),
                    void *ctx, std::size_t arg);

    /**
     * Help execute queued tasks (from any group — work conservation)
     * until @p group has no outstanding tasks. Safe to call from several
     * threads on distinct groups concurrently, and from inside a pool
     * task (the blocked body becomes another helper, so nested waits
     * cannot starve the pool).
     */
    void waitGroup(TaskGroup &group);

  private:
    void workerLoop();

    /** One queued task. */
    struct Task
    {
        void (*fn)(void *, std::size_t) = nullptr;
        void *ctx = nullptr;
        std::size_t arg = 0;
        TaskGroup *group = nullptr;
    };

    /** Run one task body and publish its completion to its group. */
    void finishTask(const Task &task);

    std::vector<std::thread> threads_;

    std::mutex mutex_;
    std::condition_variable wakeCv_; ///< workers park here
    std::condition_variable doneCv_; ///< submitter parks here
    bool stop_ = false;

    std::deque<Task> tasks_; ///< guarded by mutex_
};

} // namespace bfly

#endif // BUTTERFLY_COMMON_WORKER_POOL_HPP
