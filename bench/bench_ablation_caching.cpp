/**
 * @file
 * Ablation A4: projected benefit of first-pass caching (Section 7.2's
 * future work).
 *
 * The paper attributes much of the prototype's per-event overhead to the
 * ~7-10 instructions that record each monitored load/store for the
 * second pass, and suggests "caching parts of our first-pass analysis
 * and reusing it when the same monitored code is revisited". This
 * ablation prices that optimization: a repeated (filter-hit) access
 * reuses its cached record instead of rebuilding it. Workloads with
 * within-epoch reuse (LU's blocked updates, FMM's cell re-evaluations)
 * benefit most; streaming workloads (FFT) barely change — recording was
 * never their repeated work.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"

namespace bfly {
namespace {

const SessionResult &
runWith(WorkloadFactory factory, unsigned threads, bool caching)
{
    static std::map<std::tuple<WorkloadFactory, unsigned, bool>,
                    SessionResult>
        cache;
    const auto key = std::make_tuple(factory, threads, caching);
    auto it = cache.find(key);
    if (it == cache.end()) {
        SessionConfig cfg =
            bench::paperSession(factory, threads, bench::kLargeEpoch);
        cfg.costs.firstPassCaching = caching;
        it = cache.emplace(key, runSession(cfg)).first;
    }
    return it->second;
}

void
BM_AblationCaching(benchmark::State &state, WorkloadFactory factory,
                   bool caching)
{
    for (auto _ : state) {
        const SessionResult r = runWith(factory, 8, caching);
        state.counters["butterfly"] = r.perf.butterfly.normalized;
    }
}

void
printSummary()
{
    std::printf("\n=== Ablation A4: first-pass caching (projected, "
                "8 threads, h=%zu) ===\n",
                bench::kLargeEpoch);
    std::printf("%-14s %12s %12s %10s\n", "benchmark", "prototype",
                "with cache", "speedup");
    for (const auto &[name, factory] : paperWorkloads()) {
        const SessionResult base = runWith(factory, 8, false);
        const SessionResult cached = runWith(factory, 8, true);
        std::printf("%-14s %12.2f %12.2f %9.2fx\n", name.c_str(),
                    base.perf.butterfly.normalized,
                    cached.perf.butterfly.normalized,
                    base.perf.butterfly.normalized /
                        cached.perf.butterfly.normalized);
    }
    std::printf("(the paper's \"we believe this overhead is not "
                "fundamental\" claim, priced)\n\n");
}

} // namespace
} // namespace bfly

int
main(int argc, char **argv)
{
    using namespace bfly;
    for (const auto &[name, factory] : paperWorkloads()) {
        for (bool caching : {false, true}) {
            benchmark::RegisterBenchmark(
                ("ablation_caching/" + name +
                 (caching ? "/cached" : "/prototype"))
                    .c_str(),
                [factory = factory, caching](benchmark::State &s) {
                    BM_AblationCaching(s, factory, caching);
                })
                ->Iterations(1)
                ->Unit(benchmark::kMillisecond);
        }
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    bfly::printSummary();
    return 0;
}
