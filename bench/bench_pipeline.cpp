/**
 * @file
 * Sequential walk vs pipelined (dependency-task-graph) window schedule.
 *
 * Two measurements, one binary:
 *
 *   wall       real ButterflyAddrCheck runs over the same trace: the
 *              sequential barrier walk on the calling thread vs the
 *              pipelined schedule on a worker pool, fed by the
 *              streaming epoch slicer. Error reports must be identical
 *              (the sequential-equivalence guarantee); peak resident
 *              epochs must stay within the stream window. A wall-clock
 *              speedup requires real cores for the graph to use.
 *
 *   model      the cycle-accurate schedule models (sim/lba) on a
 *              synthetic skewed-epoch input: every epoch one rotating
 *              thread carries a block ~16x heavier than the rest — the
 *              adversarial shape for barriers, because every pass waits
 *              for the heavy straggler while the pipelined graph keeps
 *              the other lifeguard cores busy on neighbouring epochs.
 *              Reported per thread count; this is where the >=1.2x at 8
 *              threads shows up regardless of host core count.
 *
 * Writes BENCH_bench_pipeline.json (directory overridable with
 * BFLY_BENCH_JSON_DIR). `--quick` shrinks both groups for CI smoke.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/addrcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "sim/lba.hpp"
#include "trace/epoch_slicer.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** (tid, index, addr, kind, size) rows, sorted — report identity. */
std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int, std::uint16_t>>
sortedRecords(const ErrorLog &log)
{
    std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int,
                           std::uint16_t>>
        out;
    out.reserve(log.size());
    for (const ErrorRecord &r : log.records())
        out.emplace_back(r.tid, r.index, r.addr, static_cast<int>(r.kind),
                         r.size);
    std::sort(out.begin(), out.end());
    return out;
}

// ---------------------------------------------------------------------
// Group 1: wall clock, real lifeguard.
// ---------------------------------------------------------------------

struct WallResult
{
    double sequentialSecs = 0;
    double pipelinedSecs = 0;
    bool identicalReports = false;
    std::size_t errorCount = 0;
    std::size_t epochs = 0;
    std::size_t peakResidentEpochs = 0;
    std::size_t windowEpochs = 0;
    double speedup() const { return sequentialSecs / pipelinedSecs; }
};

WallResult
benchWall(bool quick)
{
    const unsigned T = 4;
    WorkloadConfig wcfg;
    wcfg.numThreads = T;
    wcfg.instrPerThread = quick ? 4000 : 60000;
    wcfg.seed = 7;
    Workload w = makeRandomMix(wcfg);
    Rng rng(1234);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    const std::size_t global_h = 512 * T;
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, global_h);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;

    WorkerPool pool(T);
    WallResult r;
    r.epochs = layout.numEpochs();
    const int reps = quick ? 1 : 3;

    std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int,
                           std::uint16_t>>
        sequential_reports, pipelined_reports;

    r.sequentialSecs = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        ButterflyAddrCheck check(layout, cfg);
        const double t0 = now();
        WindowSchedule().run(layout, check);
        r.sequentialSecs = std::min(r.sequentialSecs, now() - t0);
        sequential_reports = sortedRecords(check.errors());
    }

    r.pipelinedSecs = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        ButterflyAddrCheck check(trace.numThreads(), cfg);
        EpochStream::Config scfg;
        scfg.globalH = global_h;
        EpochStream stream(trace, scfg);
        r.windowEpochs = stream.windowEpochs();
        const double t0 = now();
        const PipelineStats stats =
            WindowSchedule(false, &pool).runPipelined(stream, check);
        r.pipelinedSecs = std::min(r.pipelinedSecs, now() - t0);
        pipelined_reports = sortedRecords(check.errors());
        r.peakResidentEpochs = stats.peakResidentEpochs;
    }

    r.identicalReports = sequential_reports == pipelined_reports;
    r.errorCount = pipelined_reports.size();
    return r;
}

// ---------------------------------------------------------------------
// Group 2: schedule models on a skewed-epoch input.
// ---------------------------------------------------------------------

/**
 * Rotating-straggler input: in epoch l, thread l % T carries @p heavy
 * records, everyone else @p light. Barrier schedules pay the straggler
 * twice per epoch; the task graph overlaps it with neighbours' work.
 */
ButterflyTimingInput
skewedInput(std::size_t T, std::size_t L, std::size_t heavy,
            std::size_t light)
{
    ButterflyTimingInput in;
    in.costs.assign(T, std::vector<EpochCosts>(L));
    in.sosUpdateCost.assign(L, 200);
    in.barrierCost = 400;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t l = 0; l < L; ++l) {
            const std::size_t n = (t == l % T) ? heavy : light;
            EpochCosts &c = in.costs[t][l];
            c.appCost.assign(n, 2);
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

    const bfly::WallResult wall = bfly::benchWall(quick);
    std::printf("%-26s %12s %12s %9s\n", "group", "barrier", "pipelined",
                "speedup");
    std::printf("%-26s %11.3fs %11.3fs %8.2fx  (reports %s, peak "
                "resident %zu/%zu epochs of %zu)\n",
                "wall_addrcheck_t4", wall.sequentialSecs, wall.pipelinedSecs,
                wall.speedup(),
                wall.identicalReports ? "identical" : "DIFFER",
                wall.peakResidentEpochs, wall.windowEpochs, wall.epochs);

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

    if (!wall.identicalReports) {
        std::fprintf(stderr,
                     "FAIL: pipelined error report differs from the "
                     "sequential walk\n");
        return 1;
    }
    if (wall.peakResidentEpochs > wall.windowEpochs) {
        std::fprintf(stderr,
                     "FAIL: peak resident epochs %zu exceeds window %zu\n",
                     wall.peakResidentEpochs, wall.windowEpochs);
        return 1;
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
                 "  \"wall\": {\"config\": \"addrcheck_t4\", "
                 "\"sequential_seconds\": %.6f, "
                 "\"pipelined_seconds\": %.6f, \"speedup\": %.3f, "
                 "\"identical_reports\": %s, \"error_count\": %zu, "
                 "\"epochs\": %zu, \"peak_resident_epochs\": %zu, "
                 "\"window_epochs\": %zu},\n  \"model\": [\n",
                 quick ? "true" : "false", wall.sequentialSecs,
                 wall.pipelinedSecs, wall.speedup(),
                 wall.identicalReports ? "true" : "false", wall.errorCount,
                 wall.epochs, wall.peakResidentEpochs, wall.windowEpochs);
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
