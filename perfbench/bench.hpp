/**
 * @file
 * Workload entry points of the repository benchmark and the timing
 * wrapper it puts around a butterfly lifeguard.
 */

#ifndef BFLY_PERFBENCH_BENCH_HPP
#define BFLY_PERFBENCH_BENCH_HPP

#include <atomic>
#include <string>
#include <vector>

#include <sys/types.h>

#include "butterfly/window.hpp"
#include "common.hpp"

namespace perfbench {

/** Set-ups timed per run; setup_s is their median. */
inline constexpr int kSetupRuns = 21;

/** session-ocean: back-to-back runSession calls in this process. */
Result runSessionOcean(const Options &opt);

/** serve-long (@p mix false) and serve-mix (@p mix true) against a
 *  bfly_serve child process. */
Result runServe(const Options &opt, bool mix);

/**
 * Median wall time, in seconds, from spawning @p argv to the moment
 * @p ready returns true, over @p runs spawns. Every child but the last
 * is stopped; the last one's pid is returned through @p last_pid (or it
 * is stopped too when @p last_pid is null). @p ready gets the child's pid
 * and stdout fd and is polled until it returns true; a child that exits
 * first fails the whole probe (returns a negative time).
 */
double timeSpawns(const std::vector<std::string> &argv, int runs,
                  bool (*ready)(pid_t pid, int stdout_fd), pid_t *last_pid,
                  int *last_stdout_fd);

/** SIGTERM @p pid, wait for it, and return everything it printed. */
std::string stopChild(pid_t pid, int stdout_fd);

/**
 * Forwards every AnalysisDriver hook to a lifeguard, recording a span
 * around each pass-1, pass-2 and finalize call. Safe under the
 * pipelined schedule: the tracer is thread-safe and the block count is
 * atomic.
 */
class TimedDriver final : public bfly::AnalysisDriver
{
  public:
    TimedDriver(bfly::AnalysisDriver &inner, Tracer &tracer, int parent,
                std::uint64_t session)
        : inner_(inner), tracer_(tracer), parent_(parent), session_(session)
    {}

    void
    pass1(const bfly::BlockView &block) override
    {
        Scope span(tracer_, "butterfly.pass1", parent_, session_);
        inner_.pass1(block);
        blocks_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    pass2(const bfly::BlockView &block) override
    {
        Scope span(tracer_, "butterfly.pass2", parent_, session_);
        inner_.pass2(block);
    }

    void
    finalizeEpoch(bfly::EpochId l) override
    {
        Scope span(tracer_, "butterfly.finalize", parent_, session_);
        inner_.finalizeEpoch(l);
    }

    void
    beginPass(bfly::EpochId l, bool second) override
    {
        inner_.beginPass(l, second);
    }

    void setBatchMode(bool enabled) override { inner_.setBatchMode(enabled); }

    bool
    finalizeAfterPass2() const override
    {
        return inner_.finalizeAfterPass2();
    }

    bool
    pass2ReadsOwnNextPass1() const override
    {
        return inner_.pass2ReadsOwnNextPass1();
    }

    /** Blocks that went through pass 1. */
    std::uint64_t blocks() const { return blocks_.load(); }

  private:
    bfly::AnalysisDriver &inner_;
    Tracer &tracer_;
    int parent_;
    std::uint64_t session_;
    std::atomic<std::uint64_t> blocks_{0};
};

} // namespace perfbench

#endif // BFLY_PERFBENCH_BENCH_HPP
