/**
 * @file
 * Static-elision throughput gate: OCEAN (the paper's ADDRCHECK
 * stress workload) end-to-end, baseline vs --elide, at 4 application
 * threads and h = 2048 (the paper's 8K, scaled).
 *
 * Unlike the figure benchmarks this one *gates*: the process exits
 * nonzero unless
 *   - elided-mode measured throughput (input events / wall second of
 *     the whole session, generation + analysis + oracle) is at least
 *     1.0x the baseline run,
 *   - at least 30% of input events were elided or summarized, and
 *   - elision introduced zero false negatives vs the sequential
 *     oracle.
 *
 * The gate deliberately uses measured wall clock, not the perf model's
 * normalized numbers: in elide mode the model is priced on the
 * monitored (post-elision) trace, so its normalization denominator
 * differs from the baseline run and the two normalized figures are not
 * comparable. Wall seconds over the same input workload are.
 */

#include <chrono>

#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

namespace bfly {
namespace {

/** One timed end-to-end session run (not cachedSession: the shared
 *  cache is keyed on (workload, threads, epoch) only and would conflate
 *  the two elide settings). */
struct TimedRun
{
    SessionResult result;
    double wallSeconds = 0.0;

    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(result.instructions) /
                         wallSeconds
                   : 0.0;
    }
};

const TimedRun &
elisionRun(bool elide)
{
    static TimedRun cache[2];
    static bool done[2] = {false, false};
    TimedRun &slot = cache[elide ? 1 : 0];
    if (!done[elide ? 1 : 0]) {
        SessionConfig cfg = bench::paperSession(
            makeOcean, 4, bench::kSmallEpoch);
        cfg.elide = elide;
        const auto t0 = std::chrono::steady_clock::now();
        slot.result = runSession(cfg);
        slot.wallSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        bench::JsonRecorder::get().record(
            "elision", elide ? "ocean_t4_elided" : "ocean_t4_baseline",
            slot.wallSeconds, slot.eventsPerSec());
        done[elide ? 1 : 0] = true;
    }
    return slot;
}

void
BM_Elision(benchmark::State &state, bool elide)
{
    for (auto _ : state) {
        const TimedRun &run = elisionRun(elide);
        state.counters["events_per_sec"] = run.eventsPerSec();
        state.counters["false_neg"] = static_cast<double>(
            run.result.accuracy.falseNegatives);
        if (elide) {
            state.counters["elided_frac"] =
                run.result.elision.elidedFraction();
            state.counters["bytes_full"] = static_cast<double>(
                run.result.encodedBytesFull);
            state.counters["bytes_monitored"] = static_cast<double>(
                run.result.encodedBytesMonitored);
        }
    }
}

/** Prints the gate table and returns the process exit status. */
int
printGate()
{
    const TimedRun &base = elisionRun(false);
    const TimedRun &elided = elisionRun(true);

    const double speedup =
        base.eventsPerSec() > 0.0
            ? elided.eventsPerSec() / base.eventsPerSec()
            : 0.0;
    const double frac = elided.result.elision.elidedFraction();
    const double bytesSaved =
        elided.result.encodedBytesFull > 0
            ? 1.0 - static_cast<double>(
                        elided.result.encodedBytesMonitored) /
                        static_cast<double>(
                            elided.result.encodedBytesFull)
            : 0.0;
    const std::size_t fn = elided.result.accuracy.falseNegatives;

    std::printf("\n=== Elision gate: OCEAN, 4 threads, h = %zu ===\n",
                bench::kSmallEpoch);
    std::printf("%-22s %14s %14s\n", "", "baseline", "elided");
    std::printf("%-22s %14.3f %14.3f\n", "wall seconds",
                base.wallSeconds, elided.wallSeconds);
    std::printf("%-22s %14.0f %14.0f\n", "input events/sec",
                base.eventsPerSec(), elided.eventsPerSec());
    std::printf("%-22s %14s %13.1f%%\n", "events elided", "-",
                100.0 * frac);
    std::printf("%-22s %14zu %14zu\n", "bytes on wire",
                elided.result.encodedBytesFull,
                elided.result.encodedBytesMonitored);
    std::printf("%-22s %14s %13.1f%%\n", "bytes saved", "-",
                100.0 * bytesSaved);
    std::printf("%-22s %14zu %14zu\n", "false negatives",
                base.result.accuracy.falseNegatives, fn);

    int status = 0;
    if (speedup < 1.0) {
        std::printf("GATE FAIL: elided throughput %.2fx baseline "
                    "(need >= 1.0x)\n",
                    speedup);
        status = 1;
    }
    if (frac < 0.30) {
        std::printf("GATE FAIL: %.1f%% events elided "
                    "(need >= 30%%)\n",
                    100.0 * frac);
        status = 1;
    }
    if (fn != 0) {
        std::printf("GATE FAIL: %zu false negatives vs sequential "
                    "oracle (need 0)\n",
                    fn);
        status = 1;
    }
    if (status == 0)
        std::printf("GATE PASS: %.2fx throughput, %.1f%% elided, "
                    "0 false negatives\n",
                    speedup, 100.0 * frac);
    std::printf("\n");
    return status;
}

} // namespace
} // namespace bfly

int
main(int argc, char **argv)
{
    using namespace bfly;
    for (const bool elide : {false, true})
        benchmark::RegisterBenchmark(
            elide ? "elision/ocean/elided"
                  : "elision/ocean/baseline",
            [elide](benchmark::State &s) { BM_Elision(s, elide); })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return bfly::printGate();
}
