/**
 * @file
 * Figure 11: execution time normalized to sequential, unmonitored
 * execution, for every benchmark at 2/4/8 application threads under
 * three configurations: timesliced monitoring (state of the art),
 * parallel butterfly monitoring, and parallel execution without
 * monitoring. Epoch size h = 16384 (the paper's 64K, scaled).
 *
 * Expected shape (paper Section 7.2): at two threads the comparison is
 * mixed; butterfly scales with threads while timesliced does not, so by
 * eight threads butterfly wins in five of six benchmarks (four by a wide
 * margin), with BLACKSCHOLES converging on — but not quite past — the
 * crossover.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

namespace bfly {
namespace {

void
BM_Fig11(benchmark::State &state, const std::string &name,
         WorkloadFactory factory, unsigned threads)
{
    for (auto _ : state) {
        const SessionResult &r =
            bench::cachedSession(name, factory, threads,
                                 bench::kLargeEpoch);
        state.counters["timesliced"] = r.perf.timesliced.normalized;
        state.counters["butterfly"] = r.perf.butterfly.normalized;
        state.counters["no_monitor"] =
            r.perf.parallelNoMonitor.normalized;
        state.counters["false_neg"] =
            static_cast<double>(r.accuracy.falseNegatives);
    }
}

void
printFigure11()
{
    std::printf("\n=== Figure 11: normalized execution time "
                "(h = %zu, ~64K-scaled) ===\n",
                bench::kLargeEpoch);
    std::printf("%-14s %3s  %11s %11s %11s\n", "benchmark", "T",
                "timesliced", "butterfly", "no-monitor");
    for (const auto &[name, factory] : paperWorkloads()) {
        for (unsigned threads : bench::kThreadCounts) {
            const SessionResult &r = bench::cachedSession(
                name, factory, threads, bench::kLargeEpoch);
            std::printf("%-14s %3u  %11.2f %11.2f %11.2f\n",
                        name.c_str(), threads,
                        r.perf.timesliced.normalized,
                        r.perf.butterfly.normalized,
                        r.perf.parallelNoMonitor.normalized);
        }
    }
    std::printf("\n");
}

} // namespace
} // namespace bfly

int
main(int argc, char **argv)
{
    using namespace bfly;
    for (const auto &[name, factory] : paperWorkloads()) {
        for (unsigned threads : bench::kThreadCounts) {
            benchmark::RegisterBenchmark(
                ("fig11/" + name + "/threads:" +
                 std::to_string(threads))
                    .c_str(),
                [name = name, factory = factory,
                 threads](benchmark::State &s) {
                    BM_Fig11(s, name, factory, threads);
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    bfly::printFigure11();
    return 0;
}
