/**
 * @file
 * WorkerPool unit tests: the one completion protocol (submit into a
 * TaskGroup, wait for that group) that a session's stage graph and the
 * monitoring service both run on.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"

namespace bfly {
namespace {

/** Submits one task per counter into @p group; task i bumps counts[i]. */
void
submitCounting(WorkerPool &pool, TaskGroup &group,
               std::vector<std::atomic<int>> &counts)
{
    for (std::size_t i = 0; i < counts.size(); ++i)
        pool.submitTask(
            group,
            [](void *c, std::size_t i) {
                (*static_cast<std::vector<std::atomic<int>> *>(c))[i]
                    .fetch_add(1, std::memory_order_relaxed);
            },
            &counts, i);
}

TEST(WorkerPool, RunsEveryItemExactlyOnce)
{
    WorkerPool pool(4);
    std::vector<std::atomic<int>> counts(97);
    TaskGroup group;
    submitCounting(pool, group, counts);
    pool.waitGroup(group);
    EXPECT_EQ(group.outstanding(), 0u);
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i].load(), 1) << "item " << i;
}

TEST(WorkerPool, GroupLargerThanWorkerCount)
{
    WorkerPool pool(2);
    const std::size_t n = 1000;
    std::atomic<std::uint64_t> sum{0};
    TaskGroup group;
    for (std::size_t i = 0; i < n; ++i)
        pool.submitTask(
            group,
            [](void *c, std::size_t i) {
                static_cast<std::atomic<std::uint64_t> *>(c)->fetch_add(
                    i + 1, std::memory_order_relaxed);
            },
            &sum, i);
    pool.waitGroup(group);
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(WorkerPool, WaitOnEmptyGroupReturns)
{
    WorkerPool pool(3);
    TaskGroup group;
    pool.waitGroup(group); // must not hang
    EXPECT_EQ(group.outstanding(), 0u);
}

TEST(WorkerPool, SingleWorkerPool)
{
    WorkerPool pool(1);
    std::vector<std::atomic<int>> counts(17);
    TaskGroup group;
    submitCounting(pool, group, counts);
    pool.waitGroup(group);
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i].load(), 1) << "item " << i;
}

TEST(WorkerPool, ReusedAcrossManyGroups)
{
    // One pool, many short rounds of random width: a task of round k
    // must never run (or be counted) as part of round k+1.
    WorkerPool pool(4);
    Rng rng(7);
    for (int round = 0; round < 500; ++round) {
        std::vector<std::atomic<int>> counts(1 + rng.below(13));
        TaskGroup group;
        submitCounting(pool, group, counts);
        pool.waitGroup(group);
        for (std::size_t i = 0; i < counts.size(); ++i)
            ASSERT_EQ(counts[i].load(), 1)
                << "round " << round << " item " << i;
    }
}

TEST(WorkerPool, TasksMaySubmitTasks)
{
    // A binary fan-out submitted from inside task bodies: waitGroup must
    // not return until the transitively spawned frontier drains.
    WorkerPool pool(2);
    struct Ctx
    {
        WorkerPool *pool;
        TaskGroup group{};
        std::atomic<std::size_t> ran{0};
        static void
        step(void *c, std::size_t depth)
        {
            auto *ctx = static_cast<Ctx *>(c);
            ctx->ran.fetch_add(1, std::memory_order_relaxed);
            if (depth == 0)
                return;
            ctx->pool->submitTask(ctx->group, &Ctx::step, ctx, depth - 1);
            ctx->pool->submitTask(ctx->group, &Ctx::step, ctx, depth - 1);
        }
    } ctx{&pool};
    pool.submitTask(ctx.group, &Ctx::step, &ctx, 7);
    pool.waitGroup(ctx.group);
    // A full binary tree of depth 7: 2^8 - 1 nodes.
    EXPECT_EQ(ctx.ran.load(), 255u);
}

TEST(WorkerPool, ConcurrentGroupsDrainIndependently)
{
    // Several drivers share one pool, each waiting on its own group —
    // the monitoring service's concurrent sessions.
    WorkerPool pool(2);
    constexpr std::size_t kDrivers = 4;
    constexpr int kRounds = 20;
    std::vector<std::vector<std::atomic<int>>> counts;
    for (std::size_t d = 0; d < kDrivers; ++d)
        counts.emplace_back(64);
    std::vector<std::thread> drivers;
    for (std::size_t d = 0; d < kDrivers; ++d)
        drivers.emplace_back([&pool, &counts, d] {
            for (int round = 0; round < kRounds; ++round) {
                TaskGroup group;
                submitCounting(pool, group, counts[d]);
                pool.waitGroup(group);
            }
        });
    for (std::thread &t : drivers)
        t.join();
    for (std::size_t d = 0; d < kDrivers; ++d)
        for (std::size_t i = 0; i < counts[d].size(); ++i)
            EXPECT_EQ(counts[d][i].load(), kRounds)
                << "driver " << d << " item " << i;
}

TEST(WorkerPool, NestedWaitsInsideTasksDoNotStarve)
{
    // Recursive fork-join: every task opens its own group, submits two
    // children into it and waits for them from inside its body — the
    // shape of the perf model's replays nested under a session stage.
    // On a one-thread pool the only worker is itself blocked in
    // waitGroup, so the blocked bodies must help run the children.
    WorkerPool pool(1);
    struct Ctx
    {
        WorkerPool *pool;
        std::atomic<std::size_t> ran{0};
        std::atomic<std::size_t> undrained{0};
        static void
        node(void *c, std::size_t depth)
        {
            auto *ctx = static_cast<Ctx *>(c);
            ctx->ran.fetch_add(1, std::memory_order_relaxed);
            if (depth == 0)
                return;
            TaskGroup children;
            ctx->pool->submitTask(children, &Ctx::node, ctx, depth - 1);
            ctx->pool->submitTask(children, &Ctx::node, ctx, depth - 1);
            ctx->pool->waitGroup(children);
            if (children.outstanding() != 0)
                ctx->undrained.fetch_add(1, std::memory_order_relaxed);
        }
    } ctx{&pool};
    TaskGroup root;
    pool.submitTask(root, &Ctx::node, &ctx, 6);
    pool.waitGroup(root);
    EXPECT_EQ(ctx.ran.load(), 127u); // 2^7 - 1 nodes
    EXPECT_EQ(ctx.undrained.load(), 0u);
}

TEST(WorkerPool, OutstandingCountsUnfinishedTasks)
{
    // A group counts a task from its submission until its body returns,
    // whether it is still queued or already running.
    WorkerPool pool(2);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    struct Gate
    {
        std::atomic<bool> *started;
        std::atomic<bool> *release;
    } gate{&started, &release};
    TaskGroup group;
    pool.submitTask(
        group,
        [](void *c, std::size_t) {
            auto *g = static_cast<Gate *>(c);
            g->started->store(true, std::memory_order_release);
            while (!g->release->load(std::memory_order_acquire))
                std::this_thread::yield();
        },
        &gate, 0);
    EXPECT_EQ(group.outstanding(), 1u);
    while (!started.load(std::memory_order_acquire))
        std::this_thread::yield();
    EXPECT_EQ(group.outstanding(), 1u); // running, not finished
    release.store(true, std::memory_order_release);
    pool.waitGroup(group);
    EXPECT_EQ(group.outstanding(), 0u);
}

TEST(WorkerPool, DefaultSizePicksHardwareConcurrency)
{
    WorkerPool pool;
    EXPECT_GE(pool.workers(), 1u);
}

TEST(WorkerPool, SizeReportsThreadCount)
{
    WorkerPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.size(), pool.workers());
}

TEST(WorkerPoolDeath, ZeroThreadConstructionIsRejected)
{
    EXPECT_DEATH(WorkerPool pool(0), "at least one thread");
}

} // namespace
} // namespace bfly
