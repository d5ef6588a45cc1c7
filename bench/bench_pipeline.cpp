/**
 * @file
 * The cycle-accurate schedule models (sim/lba) on a synthetic
 * skewed-epoch input: every epoch one rotating thread carries a block
 * ~16x heavier than the rest — the adversarial shape for barriers,
 * because every pass waits for the heavy straggler while the pipelined
 * model keeps the other lifeguard cores busy on neighbouring epochs.
 * Reported per thread count; this is where the >=1.2x at 8 threads
 * shows up regardless of host core count. The models price the LBA
 * platform's one lifeguard core per application thread; the analysis
 * itself always walks the window on one thread (butterfly/window.hpp).
 *
 * Writes BENCH_bench_pipeline.json (directory overridable with
 * BFLY_BENCH_JSON_DIR). `--quick` shrinks the input for CI smoke.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "sim/lba.hpp"

namespace bfly {
namespace {

/**
 * Rotating-straggler input: in epoch l, thread l % T carries @p heavy
 * records, everyone else @p light. Barrier schedules pay the straggler
 * twice per epoch; the pipelined model overlaps it with neighbours'
 * work.
 */
ButterflyTimingInput
skewedInput(std::size_t T, std::size_t L, std::size_t heavy,
            std::size_t light)
{
    // Every record costs 2 application cycles; appCost views this.
    static const std::vector<Cycles> app(std::max(heavy, light), 2);
    ButterflyTimingInput in;
    in.costs.assign(T, std::vector<EpochCosts>(L));
    in.sosUpdateCost.assign(L, 200);
    in.barrierCost = 400;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t l = 0; l < L; ++l) {
            const std::size_t n = (t == l % T) ? heavy : light;
            EpochCosts &c = in.costs[t][l];
            c.appCost = std::span(app).first(n);
            c.pass1Cost.assign(n, 12);
            c.pass2Cost = static_cast<Cycles>(n) * 10;
        }
    }
    return in;
}

struct ModelResult
{
    std::size_t threads = 0;
    Cycles barrierCycles = 0;
    Cycles pipelinedCycles = 0;
    Cycles pipelinedStrictCycles = 0;
    Cycles barrierWaitCycles = 0;
    Cycles taskWaitCycles = 0;
    double speedup() const
    {
        return static_cast<double>(barrierCycles) /
               static_cast<double>(pipelinedCycles);
    }
};

ModelResult
benchModel(std::size_t T, bool quick)
{
    const std::size_t L = quick ? 24 : 64;
    const ButterflyTimingInput in =
        skewedInput(T, L, /*heavy=*/4096, /*light=*/256);

    ModelResult r;
    r.threads = T;
    const TimingResult barrier = simulateButterfly(in);
    const TimingResult pipelined =
        simulateButterflyPipelined(in, T, /*strict_finalize=*/false);
    const TimingResult strict =
        simulateButterflyPipelined(in, T, /*strict_finalize=*/true);
    r.barrierCycles = barrier.totalCycles;
    r.pipelinedCycles = pipelined.totalCycles;
    r.pipelinedStrictCycles = strict.totalCycles;
    r.barrierWaitCycles = barrier.barrierWaitCycles;
    r.taskWaitCycles = pipelined.taskWaitCycles;
    return r;
}

} // namespace
} // namespace bfly

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    std::vector<bfly::ModelResult> models;
    for (std::size_t T : {2u, 4u, 8u})
        models.push_back(bfly::benchModel(T, quick));
    for (const bfly::ModelResult &m : models) {
        std::printf("%-26s %11llucy %11llucy %8.2fx  (barrier wait "
                    "%llucy, task wait %llucy)\n",
                    ("model_skewed_t" + std::to_string(m.threads)).c_str(),
                    static_cast<unsigned long long>(m.barrierCycles),
                    static_cast<unsigned long long>(m.pipelinedCycles),
                    m.speedup(),
                    static_cast<unsigned long long>(m.barrierWaitCycles),
                    static_cast<unsigned long long>(m.taskWaitCycles));
    }

    // Write-then-rename, like JsonRecorder: never leave a torn file.
    const std::string path = bfly::bench::benchJsonDir() +
                             "/BENCH_bench_pipeline.json";
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_pipeline\",\n"
                 "  \"quick\": %s,\n"
                 "  \"model\": [\n",
                 quick ? "true" : "false");
    for (std::size_t i = 0; i < models.size(); ++i) {
        const bfly::ModelResult &m = models[i];
        std::fprintf(f,
                     "    {\"threads\": %zu, \"barrier_cycles\": %llu, "
                     "\"pipelined_cycles\": %llu, "
                     "\"pipelined_strict_cycles\": %llu, "
                     "\"barrier_wait_cycles\": %llu, "
                     "\"task_wait_cycles\": %llu, \"speedup\": %.3f}%s\n",
                     m.threads,
                     static_cast<unsigned long long>(m.barrierCycles),
                     static_cast<unsigned long long>(m.pipelinedCycles),
                     static_cast<unsigned long long>(
                         m.pipelinedStrictCycles),
                     static_cast<unsigned long long>(m.barrierWaitCycles),
                     static_cast<unsigned long long>(m.taskWaitCycles),
                     m.speedup(), i + 1 < models.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::fclose(f) != 0 || std::rename(tmp.c_str(), path.c_str())) {
        std::remove(tmp.c_str());
        std::fprintf(stderr, "cannot finalize %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
