/**
 * @file
 * Sequential walk vs pipelined (dependency-task-graph) window schedule.
 *
 * Two measurements, one binary:
 *
 *   sweep      the walk and the graph over the sessions the
 *              monitoring service receives: the same heartbeat-marked session
 *              analyzed by the sequential walk over an EpochStream (on
 *              the calling thread) and by the task graph over an
 *              EpochStream (on a 4-worker pool), for ADDRCHECK on OCEAN
 *              and TAINTCHECK on the taint mix, 2/4/8 trace threads,
 *              ≈1K–300K events, and heartbeat markers every 2048 events
 *              per thread (serve-long's density) or every 16 (as fine as
 *              serve-mix's fuzz cases). Every configuration runs twice:
 *              on an idle pool, and on a pool shared with three sessions
 *              that loop the graph over a 30K-event OCEAN session, as
 *              the service's concurrent sessions do. Each row reports the
 *              median walk and graph wall times and their ratio. The
 *              two schedules' reports must be identical, and peak
 *              residency must stay within two epochs for the walk and
 *              within the stream's ring for the graph. The service
 *              walks every session (EXPERIMENTS.md, "Two schedules,
 *              chosen by size", has the sweep and the serve-long A/B
 *              that settled it).
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
 * BFLY_BENCH_JSON_DIR). `--quick` shrinks both groups for CI smoke:
 * three sizes, 4 threads, serve-long's markers.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/registry.hpp"
#include "memmodel/interleaver.hpp"
#include "sim/lba.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/log_codec.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Group 1: the walk/graph cut-over sweep.
// ---------------------------------------------------------------------

/** Events per thread per epoch: serve-long's marker density, and one
 *  as fine as serve-mix's fuzz cases (16-128 events per epoch). */
constexpr std::size_t kCoarseEpoch = 2048;
constexpr std::size_t kFineEpoch = 16;
/** Pool size of the measured graph (bfly_serve's default on 4 CPUs). */
constexpr std::size_t kPoolWorkers = 4;

/** One heartbeat-marked session, as the service receives it. */
struct Session
{
    Lifeguard lifeguard = Lifeguard::AddrCheck;
    Trace marked;
    LifeguardParams params;
    std::uint64_t events = 0;
    std::size_t epochPerThread = 0;
};

Session
makeSession(Lifeguard lg, unsigned threads, std::size_t events,
            std::size_t epoch_per_thread, std::uint64_t seed)
{
    WorkloadConfig wc;
    wc.numThreads = threads;
    wc.instrPerThread = std::max<std::size_t>(1, events / threads);
    wc.seed = seed;
    const Workload w = lg == Lifeguard::AddrCheck ? makeOcean(wc)
                                                  : makeTaintMix(wc);
    Rng rng(seed * 977 + 5);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);

    Session s;
    s.lifeguard = lg;
    s.marked = withHeartbeatMarkers(
        trace, EpochLayout::byGlobalSeq(trace, epoch_per_thread * threads));
    s.epochPerThread = epoch_per_thread;
    s.params.numThreads = threads;
    s.params.heapBase = w.heapBase;
    s.params.heapLimit = w.heapLimit;
    s.params.granularity = lifeguardEntry(lg).defaultGranularity;
    s.events = s.marked.instructionCount();
    return s;
}

/** One timed analysis of a session. */
struct Run
{
    LifeguardReport report;
    double secs = 0;
    std::size_t peakResident = 0; ///< the stream's peak resident epochs
};

/**
 * Analyze @p s the way analyzeStreaming does — driver, stream over the
 * markers, schedule, canonical report — by the walk (@p pool null) or
 * the graph on @p pool.
 */
Run
analyze(const Session &s, WorkerPool *pool)
{
    const LifeguardEntry &entry = lifeguardEntry(s.lifeguard);
    const auto t0 = Clock::now();
    const auto driver = entry.makeDriver(s.params);
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EpochStream stream(s.marked, cfg);
    if (pool)
        WindowSchedule(false, pool).runPipelined(stream, *driver);
    else
        WindowSchedule().run(stream, *driver);
    Run run;
    run.report = entry.report(*driver, stream.numEpochs());
    run.secs = secondsSince(t0);
    run.peakResident = stream.peakResidentEpochs();
    return run;
}

struct SweepRow
{
    Lifeguard lifeguard = Lifeguard::AddrCheck;
    unsigned threads = 0;
    std::uint64_t events = 0;
    std::size_t epochPerThread = 0;
    bool shared = false;
    double walkSecs = 0;  ///< median
    double graphSecs = 0; ///< median
    bool identical = false;
    std::size_t walkPeakResident = 0;  ///< max over runs
    std::size_t graphPeakResident = 0; ///< max over runs
    double ratio() const { return walkSecs / graphSecs; }
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Alternate walk and graph runs of @p s until both have at least
 *  @p min_reps samples and @p min_secs of total time. */
SweepRow
measure(const Session &s, WorkerPool &pool, bool shared, int min_reps,
        double min_secs)
{
    SweepRow row;
    row.lifeguard = s.lifeguard;
    row.threads = static_cast<unsigned>(s.marked.numThreads());
    row.events = s.events;
    row.epochPerThread = s.epochPerThread;
    row.shared = shared;
    row.identical = true;
    std::vector<double> walk, graph;
    double total = 0;
    while (static_cast<int>(walk.size()) < min_reps || total < min_secs) {
        const Run w = analyze(s, nullptr);
        const Run g = analyze(s, &pool);
        row.identical = row.identical && w.report == g.report;
        row.walkPeakResident =
            std::max(row.walkPeakResident, w.peakResident);
        row.graphPeakResident =
            std::max(row.graphPeakResident, g.peakResident);
        walk.push_back(w.secs);
        graph.push_back(g.secs);
        total += w.secs + g.secs;
    }
    row.walkSecs = median(walk);
    row.graphSecs = median(graph);
    return row;
}

std::vector<SweepRow>
benchSweep(bool quick)
{
    const std::vector<std::size_t> sizes =
        quick ? std::vector<std::size_t>{1000, 8000, 32000}
              : std::vector<std::size_t>{1000,  2000,  4000,   8000,
                                         16000, 32000, 100000, 300000};
    const std::vector<unsigned> thread_counts =
        quick ? std::vector<unsigned>{4} : std::vector<unsigned>{2, 4, 8};
    const int min_reps = quick ? 2 : 5;
    const double min_secs = quick ? 0.02 : 0.3;

    const std::vector<std::size_t> epochs =
        quick ? std::vector<std::size_t>{kCoarseEpoch}
              : std::vector<std::size_t>{kCoarseEpoch, kFineEpoch};

    std::vector<Session> sessions;
    for (std::size_t h : epochs)
        for (Lifeguard lg : {Lifeguard::AddrCheck, Lifeguard::TaintCheck})
            for (unsigned t : thread_counts)
                for (std::size_t n : sizes) {
                    Session s = makeSession(lg, t, n, h, 7 + n + t);
                    // OCEAN has a floor of ~930 events per thread: skip
                    // sizes below it rather than time one session twice.
                    if (sessions.empty() ||
                        sessions.back().events != s.events)
                        sessions.push_back(std::move(s));
                }

    // Three tenants looping the graph on the shared pool: each pass of
    // theirs queues block tasks in front of the measured session's.
    const Session background = makeSession(
        Lifeguard::AddrCheck, 4, quick ? 8000 : 30000, kCoarseEpoch, 99);

    std::vector<SweepRow> rows;
    WorkerPool pool(kPoolWorkers);
    for (const bool shared : {false, true}) {
        std::atomic<bool> stop{false};
        std::vector<std::thread> tenants;
        if (shared)
            for (int k = 0; k < 3; ++k)
                tenants.emplace_back([&] {
                    while (!stop.load(std::memory_order_relaxed))
                        analyze(background, &pool);
                });
        for (const Session &s : sessions)
            rows.push_back(measure(s, pool, shared, min_reps, min_secs));
        stop.store(true);
        for (std::thread &t : tenants)
            t.join();
    }
    return rows;
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

    const std::vector<bfly::SweepRow> sweep = bfly::benchSweep(quick);
    std::printf("%-11s %7s %8s %6s %6s %11s %11s %10s\n", "lifeguard",
                "threads", "events", "epoch", "pool", "walk", "graph",
                "walk/graph");
    // The walk holds at most two epochs, the graph at most its ring.
    const std::size_t window = bfly::EpochStream::Config{}.windowEpochs;
    bool all_identical = true;
    bool residency_bounded = true;
    for (const bfly::SweepRow &r : sweep) {
        all_identical = all_identical && r.identical;
        residency_bounded = residency_bounded && r.walkPeakResident >= 1 &&
                            r.walkPeakResident <= 2 &&
                            r.graphPeakResident >= 1 &&
                            r.graphPeakResident <= window;
        std::printf("%-11s %7u %8llu %6zu %6s %9.3fms %9.3fms %9.2fx%s\n",
                    bfly::lifeguardName(r.lifeguard), r.threads,
                    static_cast<unsigned long long>(r.events),
                    r.epochPerThread, r.shared ? "shared" : "idle",
                    r.walkSecs * 1e3,
                    r.graphSecs * 1e3, r.ratio(),
                    r.identical ? "" : "  REPORTS DIFFER");
    }
    std::printf("\n");

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

    if (!all_identical) {
        std::fprintf(stderr, "FAIL: the walk and the graph disagree on "
                             "some session's report\n");
        return 1;
    }
    if (!residency_bounded) {
        std::fprintf(stderr, "FAIL: peak resident epochs outside [1, 2] "
                             "for the walk or [1, %zu] for the graph\n",
                     window);
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
                 "  \"pool_workers\": %zu,\n"
                 "  \"window_epochs\": %zu,\n"
                 "  \"sweep\": [\n",
                 quick ? "true" : "false", bfly::kPoolWorkers, window);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const bfly::SweepRow &r = sweep[i];
        std::fprintf(f,
                     "    {\"lifeguard\": \"%s\", \"threads\": %u, "
                     "\"events\": %llu, \"epoch_per_thread\": %zu, "
                     "\"pool\": \"%s\", "
                     "\"walk_seconds\": %.6f, \"graph_seconds\": %.6f, "
                     "\"walk_over_graph\": %.3f, \"identical\": %s, "
                     "\"walk_peak_resident\": %zu, "
                     "\"graph_peak_resident\": %zu}%s\n",
                     bfly::lifeguardName(r.lifeguard), r.threads,
                     static_cast<unsigned long long>(r.events),
                     r.epochPerThread, r.shared ? "shared" : "idle",
                     r.walkSecs, r.graphSecs,
                     r.ratio(), r.identical ? "true" : "false",
                     r.walkPeakResident, r.graphPeakResident,
                     i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"model\": [\n");
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
