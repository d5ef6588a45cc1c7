#include "harness/perf_model.hpp"

#include "harness/idempotent_filter.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/worker_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"

namespace bfly {

namespace {

/** Pre-interned perf-model telemetry (one-time registration). */
struct PerfTelemetry
{
    telemetry::MetricId seqBaselineCycles;
    telemetry::MetricId timeslicedCycles;
    telemetry::MetricId butterflyCycles;
    telemetry::MetricId parallelNoMonCycles;
    telemetry::MetricId dbiCycles;
    telemetry::MetricId appStallCycles;
    telemetry::MetricId barrierWaitCycles;
    telemetry::MetricId recordedEvents;
    telemetry::MetricId pass1BlockCycles; ///< histogram
    telemetry::MetricId pass2BlockCycles; ///< histogram
    telemetry::MetricId sosEpochCycles;   ///< histogram
    telemetry::MetricId butterflyPipelinedCycles;
    telemetry::MetricId taskWaitCycles;
    telemetry::MetricId barrierStallBlockCycles; ///< histogram

    static const PerfTelemetry &
    get()
    {
        static const PerfTelemetry m = [] {
            auto &r = telemetry::registry();
            PerfTelemetry s;
            s.seqBaselineCycles =
                r.gauge("bfly.perf.sequential_baseline_cycles");
            s.timeslicedCycles = r.gauge("bfly.perf.timesliced_cycles");
            s.butterflyCycles = r.gauge("bfly.perf.butterfly_cycles");
            s.parallelNoMonCycles =
                r.gauge("bfly.perf.parallel_nomonitor_cycles");
            s.dbiCycles = r.gauge("bfly.perf.dbi_cycles");
            s.appStallCycles = r.gauge("bfly.perf.app_stall_cycles");
            s.barrierWaitCycles =
                r.gauge("bfly.perf.barrier_wait_cycles");
            s.recordedEvents = r.counter("bfly.perf.recorded_events");
            s.pass1BlockCycles =
                r.histogram("bfly.perf.pass1_block_cycles");
            s.pass2BlockCycles =
                r.histogram("bfly.perf.pass2_block_cycles");
            s.sosEpochCycles = r.histogram("bfly.perf.sos_epoch_cycles");
            s.butterflyPipelinedCycles =
                r.gauge("bfly.perf.butterfly_pipelined_cycles");
            s.taskWaitCycles =
                r.gauge("bfly.perf.pipelined_task_wait_cycles");
            s.barrierStallBlockCycles =
                r.histogram("bfly.perf.barrier_stall_block_cycles");
            return s;
        }();
        return m;
    }
};

/** Expand an event's monitored keys (destination + sources). */
void
monitoredKeys(const Event &e, const AddrCheckConfig &cfg,
              std::vector<Addr> &out)
{
    out.clear();
    auto push_range = [&](Addr base, std::uint16_t size) {
        if (base == kNoAddr || !cfg.monitored(base))
            return;
        keyRange(base, size, cfg.granularity).forEach([&](Addr k) {
            out.push_back(k);
        });
    };
    push_range(e.addr, e.size);
    if (e.kind == EventKind::Assign) {
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n)
            push_range(srcs[n], e.size);
    }
}

/**
 * Lifeguard cycles to process one event in pass 1 (or in the timesliced
 * monitor when @p record is false). Updates the filter; counts events
 * that were fully checked (and therefore recorded for pass 2).
 */
Cycles
lifeguardEventCost(const Event &e, const AddrCheckConfig &cfg,
                   const LifeguardCosts &costs, IdempotentFilter &filter,
                   bool record, std::vector<Addr> &scratch,
                   std::uint64_t *recorded)
{
    switch (e.kind) {
      case EventKind::Alloc:
      case EventKind::Free: {
        monitoredKeys(e, cfg, scratch);
        for (Addr k : scratch)
            filter.evict(k); // metadata changed: force re-checks
        if (scratch.empty())
            return record ? costs.bfDispatchCost : costs.dispatchCost;
        if (recorded)
            ++*recorded;
        return costs.allocCost + (record ? costs.recordCost : 0);
      }
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Use:
      case EventKind::Assign: {
        monitoredKeys(e, cfg, scratch);
        if (scratch.empty())
            return record ? costs.bfDispatchCost : costs.dispatchCost;
        bool all_hit = true;
        for (Addr k : scratch)
            all_hit = all_hit && filter.hit(k);
        if (recorded)
            ++*recorded;
        if (all_hit) {
            // A filter hit skips the metadata check, but the butterfly
            // first pass must still record the access: the pass-2
            // isolation check needs every access in the block summary.
            // With first-pass caching (the paper's future-work
            // optimization, Section 7.2) a repeated access reuses its
            // cached record instead of rebuilding it.
            const Cycles rec = !record ? 0
                               : costs.firstPassCaching
                                   ? costs.recordCachedCost
                                   : costs.recordCost;
            return costs.filteredCost + rec;
        }
        for (Addr k : scratch)
            filter.insert(k);
        return costs.checkCost + (record ? costs.recordCost : 0);
      }
      default:
        return record ? costs.bfDispatchCost : costs.dispatchCost;
    }
}

/**
 * Replay the trace through a CMP, filling per-thread, per-event
 * application cycles (indexed by per-thread non-heartbeat event index)
 * into @p costs, which is already allocated. Parallel mode assigns each
 * thread its own core and replays in true (gseq) order so coherence
 * misses land where they occurred; serial mode funnels everything
 * through core 0 in the same order.
 */
void
replayAppCosts(const std::vector<GseqRef> &order, const CoreModel &core,
               Cmp &cmp, bool parallel,
               std::vector<std::unique_ptr<Cycles[]>> &costs)
{
    for (const GseqRef &r : order) {
        const Event &e = *r.event;
        Cycles mem = 0;
        if (e.isMemoryAccess() || e.kind == EventKind::Alloc ||
            e.kind == EventKind::Free) {
            const unsigned c = parallel ? r.thread : 0;
            const bool is_write = e.kind != EventKind::Read &&
                                  e.kind != EventKind::Use;
            mem = cmp.access(c, e.addr, is_write);
        }
        costs[r.thread][r.index] = core.cost(e, mem);
    }
}

/**
 * Replay in barrier-segment order on core 0: all of thread 0's events up
 * to the first barrier, then thread 1's, ... — how a single-threaded run
 * of the same program would traverse memory, phase by phase, with intact
 * per-thread locality. This is the paper's normalization baseline
 * ("running sequentially on a single thread without monitoring"); the
 * timesliced *monitored* run instead replays the fine-grained interleave
 * and pays the cache interference of timeslicing.
 */
Cycles
replaySegmentOrderedBaseline(const Trace &trace, const CoreModel &core,
                             Cmp &cmp)
{
    const std::size_t T = trace.numThreads();
    std::vector<std::size_t> cursor(T, 0);
    Cycles total = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t t = 0; t < T; ++t) {
            const auto &events = trace.threads[t].events;
            while (cursor[t] < events.size()) {
                const Event &e = events[cursor[t]++];
                progress = true;
                if (e.kind == EventKind::Heartbeat)
                    continue;
                Cycles mem = 0;
                if (e.isMemoryAccess() || e.kind == EventKind::Alloc ||
                    e.kind == EventKind::Free) {
                    const bool is_write =
                        e.kind != EventKind::Read &&
                        e.kind != EventKind::Use;
                    mem = cmp.access(0, e.addr, is_write);
                }
                total += core.cost(e, mem);
                if (e.kind == EventKind::Barrier)
                    break; // next thread's slice of this phase
            }
        }
    }
    return total;
}

/**
 * Parallel application time with barrier rendezvous: the sum over barrier
 * intervals of the slowest thread's segment.
 */
Cycles
barrierAwareParallelTime(const Trace &trace,
                         const std::vector<std::unique_ptr<Cycles[]>> &costs)
{
    const std::size_t T = trace.numThreads();
    // Segment sums between Barrier events, per thread.
    std::vector<std::vector<Cycles>> segments(T);
    for (std::size_t t = 0; t < T; ++t) {
        Cycles acc = 0;
        std::size_t slot = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat)
                continue;
            acc += costs[t][slot++];
            if (e.kind == EventKind::Barrier) {
                segments[t].push_back(acc);
                acc = 0;
            }
        }
        segments[t].push_back(acc);
    }
    std::size_t max_segs = 0;
    for (const auto &s : segments)
        max_segs = std::max(max_segs, s.size());
    Cycles total = 0;
    for (std::size_t k = 0; k < max_segs; ++k) {
        Cycles slowest = 0;
        for (const auto &s : segments)
            if (k < s.size())
                slowest = std::max(slowest, s[k]);
        total += slowest;
    }
    return total;
}

/** Log-buffer capacity in records (at least one). */
std::size_t
logCapacity(const PerfInputs &in)
{
    return std::max<std::size_t>(1, in.logBufferBytes / in.logRecordBytes);
}

const Trace &
checkedTrace(const PerfInputs &in)
{
    ensure(in.trace != nullptr, "perf model needs a trace");
    return *in.trace;
}

/** The three CMP replays, in the order run() executes them inline. */
enum Replay : std::size_t
{
    kParallelReplay,
    kSerialReplay,
    kBaselineReplay,
    kReplays
};

} // namespace

AppPerformance::AppPerformance(const PerfInputs &in,
                               const std::vector<GseqRef> &order)
    : trace_(checkedTrace(in)), order_(order), in_(in),
      // Parallel runs use 2T cores (T application + T lifeguard; Table 1
      // scales L2 with the core count). Serial runs use the 2-core
      // config.
      parallelCmp_(CmpConfig::forCores(
          static_cast<unsigned>(2 * trace_.numThreads()))),
      serialCmp_(CmpConfig::forCores(2)),
      baselineCmp_(CmpConfig::forCores(2)),
      parallelCosts_(trace_.numThreads()),
      serialCosts_(trace_.numThreads())
{
    // Every slot is written by a replay or push_back before it is read.
    std::size_t events = 0;
    for (std::size_t t = 0; t < trace_.numThreads(); ++t) {
        const std::size_t n = trace_.threads[t].instructionCount();
        parallelCosts_[t] = std::make_unique_for_overwrite<Cycles[]>(n);
        serialCosts_[t] = std::make_unique_for_overwrite<Cycles[]>(n);
        events += n;
    }
    produce_.reserve(events);
    consume_.reserve(events);
}

void
AppPerformance::replay(std::size_t which)
{
    switch (which) {
      case kParallelReplay: {
        telemetry::TraceSpan span("perf.app_replay_parallel");
        replayAppCosts(order_, in_.core, parallelCmp_, true,
                       parallelCosts_);
        break;
      }
      case kSerialReplay: {
        // Timesliced app core: the fine-grained interleave (cache
        // interference between the timesliced threads' working sets).
        telemetry::TraceSpan span("perf.app_replay_serial");
        replayAppCosts(order_, in_.core, serialCmp_, false, serialCosts_);
        break;
      }
      case kBaselineReplay: {
        // Sequential unmonitored baseline: same work, single-threaded
        // traversal order (phase-by-phase, locality intact).
        telemetry::TraceSpan span("perf.sequential_baseline");
        report_.sequentialBaseline =
            replaySegmentOrderedBaseline(trace_, in_.core, baselineCmp_);
        break;
      }
      default:
        panic("unknown CMP replay");
    }
}

void
AppPerformance::run(WorkerPool *pool)
{
    // --- Application-side cycles -------------------------------------
    // Each replay owns its Cmp and its output; they share only the
    // read-only trace and order, so they run concurrently.
    const auto task = [](void *self, std::size_t which) {
        static_cast<AppPerformance *>(self)->replay(which);
    };
    if (pool) {
        TaskGroup replays;
        pool->submitTask(replays, task, this, kSerialReplay);
        pool->submitTask(replays, task, this, kBaselineReplay);
        replay(kParallelReplay);
        pool->waitGroup(replays);
    } else {
        for (std::size_t which = 0; which < kReplays; ++which)
            replay(which);
    }
    report_.cacheStats = parallelCmp_.stats();

    // Parallel, no monitoring: barrier-aware slowest-thread time.
    {
        const Cycles t = barrierAwareParallelTime(trace_, parallelCosts_);
        report_.parallelNoMonitor.timing.totalCycles = t;
        report_.parallelNoMonitor.timing.appCycles = t;
    }

    // --- Software-only DBI monitoring --------------------------------
    // DBI frameworks cannot soundly monitor threads running in parallel
    // (the inter-thread dependence problem this paper addresses), so
    // the deployed tools serialize the threads onto one core (as
    // Valgrind does) with checks inlined into the instruction stream.
    {
        telemetry::TraceSpan span("perf.dbi");
        Cycles total = 0;
        std::vector<Addr> scratch;
        for (std::size_t t = 0; t < trace_.numThreads(); ++t) {
            std::size_t slot = 0;
            for (const Event &e : trace_.threads[t].events) {
                if (e.kind == EventKind::Heartbeat)
                    continue;
                monitoredKeys(e, in_.addrcheck, scratch);
                total += serialCosts_[t][slot] +
                         (scratch.empty() ? in_.costs.dbiPerOtherEvent
                                          : in_.costs.dbiPerMemEvent);
                ++slot;
            }
        }
        report_.dbiSoftware.timing.totalCycles = total;
        report_.dbiSoftware.timing.appCycles = total;
    }

    // --- Timesliced monitoring ---------------------------------------
    // One application core produces the merged stream; one lifeguard
    // core consumes it with a persistent idempotent filter.
    {
        telemetry::TraceSpan span("perf.timesliced");
        IdempotentFilter filter(in_.costs.filterSlots);
        std::vector<Addr> scratch;
        for (const GseqRef &r : order_) {
            produce_.push_back(serialCosts_[r.thread][r.index]);
            consume_.push_back(lifeguardEventCost(*r.event, in_.addrcheck,
                                                  in_.costs, filter, false,
                                                  scratch, nullptr));
        }
        report_.timesliced.timing =
            simulateSpsc(produce_, consume_, logCapacity(in_));
    }
}

PerfReport
priceButterfly(const AppPerformance &app, const PerfInputs &in)
{
    ensure(in.trace == &app.trace_ && in.layout && in.butterfly,
           "perf model needs the priced trace, layout and functional "
           "results");
    const EpochLayout &layout = *in.layout;
    const std::size_t T = app.trace_.numThreads();
    const std::size_t capacity = logCapacity(in);
    const auto &par_costs = app.parallelCosts_;

    PerfReport report = app.report_;

    // --- Parallel butterfly monitoring -------------------------------
    {
        telemetry::TraceSpan span("perf.butterfly");
        const bool traced = telemetry::enabled();
        const PerfTelemetry *pt = traced ? &PerfTelemetry::get() : nullptr;
        auto &reg = telemetry::registry();

        ButterflyTimingInput bt;
        bt.bufferCapacity = capacity;
        bt.barrierCost = in.costs.barrierCost;
        bt.costs.resize(T);

        const std::size_t L = layout.numEpochs();
        std::vector<Addr> scratch;
        for (ThreadId t = 0; t < T; ++t) {
            bt.costs[t].resize(L);
            IdempotentFilter filter(in.costs.filterSlots);
            for (EpochId l = 0; l < L; ++l) {
                filter.flush(); // butterfly flushes at epoch boundaries
                const BlockView block = layout.block(l, t);
                EpochCosts &ec = bt.costs[t][l];
                // The replay indexes the block's events from
                // block.first on, in the order the block holds them.
                ec.appCost = std::span<const Cycles>(
                    par_costs[t].get() + block.first, block.size());
                ec.pass1Cost.reserve(block.size());
                std::uint64_t recorded = 0;
                Cycles pass1_total = 0;
                for (InstrOffset i = 0; i < block.size(); ++i) {
                    const Cycles c = lifeguardEventCost(
                        block.events[i], in.addrcheck, in.costs, filter,
                        true, scratch, &recorded);
                    pass1_total += c;
                    ec.pass1Cost.push_back(c);
                }
                // Pass 2: merge the wing summaries, re-analyze recorded
                // events, process any flagged errors.
                Cycles meet = 0;
                const EpochId lo = l >= 1 ? l - 1 : 0;
                for (EpochId w = lo; w <= l + 1 && w < L; ++w) {
                    for (ThreadId u = 0; u < T; ++u) {
                        if (u != t)
                            meet += in.butterfly->summarySize(w, u);
                    }
                }
                ec.pass2Cost =
                    in.costs.pass2PerEvent * recorded +
                    in.costs.meetPerKey * meet +
                    in.costs.fpCost * in.butterfly->errorsInBlock(l, t);
                if (traced) {
                    // Per-(thread, epoch) cost breakdown: one histogram
                    // sample per block, one counter flush per block —
                    // never per event.
                    reg.add(pt->recordedEvents, recorded);
                    reg.observe(pt->pass1BlockCycles, pass1_total);
                    reg.observe(pt->pass2BlockCycles, ec.pass2Cost);
                }
            }
        }
        bt.sosUpdateCost.resize(L);
        for (EpochId l = 0; l < L; ++l) {
            bt.sosUpdateCost[l] =
                in.costs.sosPerKey * in.butterfly->sosUpdateWork(l);
            if (traced)
                reg.observe(pt->sosEpochCycles, bt.sosUpdateCost[l]);
        }
        report.butterfly.timing = simulateButterfly(bt);
        // The same costs, dependency-scheduled: one lifeguard core per
        // application core, no barriers. Strictness follows the
        // functional driver's declared finalize ordering.
        report.butterflyPipelined.timing = simulateButterflyPipelined(
            bt, T, in.butterfly->finalizeAfterPass2());

        if (traced) {
            // Per-(thread, epoch) barrier-stall breakdown of the
            // barrier schedule: one histogram sample per block. This is
            // exactly the time the pipelined model recovers.
            for (const auto &per_thread :
                 report.butterfly.timing.barrierStallPerBlock)
                for (Cycles stall : per_thread)
                    reg.observe(pt->barrierStallBlockCycles, stall);
        }
    }

    const double denom = static_cast<double>(report.sequentialBaseline);
    report.parallelNoMonitor.normalized =
        report.parallelNoMonitor.timing.totalCycles / denom;
    report.timesliced.normalized =
        report.timesliced.timing.totalCycles / denom;
    report.butterfly.normalized =
        report.butterfly.timing.totalCycles / denom;
    report.butterflyPipelined.normalized =
        report.butterflyPipelined.timing.totalCycles / denom;
    report.dbiSoftware.normalized =
        report.dbiSoftware.timing.totalCycles / denom;

    if (telemetry::enabled()) {
        const PerfTelemetry &pt = PerfTelemetry::get();
        auto &reg = telemetry::registry();
        reg.set(pt.seqBaselineCycles, report.sequentialBaseline);
        reg.set(pt.timeslicedCycles,
                report.timesliced.timing.totalCycles);
        reg.set(pt.butterflyCycles, report.butterfly.timing.totalCycles);
        reg.set(pt.parallelNoMonCycles,
                report.parallelNoMonitor.timing.totalCycles);
        reg.set(pt.dbiCycles, report.dbiSoftware.timing.totalCycles);
        reg.set(pt.appStallCycles,
                report.butterfly.timing.appStallCycles);
        reg.set(pt.barrierWaitCycles,
                report.butterfly.timing.barrierWaitCycles);
        reg.set(pt.butterflyPipelinedCycles,
                report.butterflyPipelined.timing.totalCycles);
        reg.set(pt.taskWaitCycles,
                report.butterflyPipelined.timing.taskWaitCycles);
    }
    return report;
}

PerfReport
computePerformance(const PerfInputs &in)
{
    ensure(in.trace && in.layout && in.butterfly,
           "perf model needs trace, layout and functional results");
    const std::vector<GseqRef> order = in.trace->gseqOrder();
    AppPerformance app(in, order);
    {
        // Two workers beside this thread: one per replay it hands off.
        WorkerPool pool(2);
        app.run(&pool);
    }
    return priceButterfly(app, in);
}

} // namespace bfly
