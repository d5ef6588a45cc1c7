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
 * monitor when @p record is false), given its monitored keys. Updates
 * the filter; counts events that were fully checked (and therefore
 * recorded for pass 2).
 */
Cycles
lifeguardEventCost(const Event &e, const std::vector<Addr> &keys,
                   const LifeguardCosts &costs, IdempotentFilter &filter,
                   bool record, std::uint64_t *recorded)
{
    switch (e.kind) {
      case EventKind::Alloc:
      case EventKind::Free: {
        for (Addr k : keys)
            filter.evict(k); // metadata changed: force re-checks
        if (keys.empty())
            return record ? costs.bfDispatchCost : costs.dispatchCost;
        if (recorded)
            ++*recorded;
        return costs.allocCost + (record ? costs.recordCost : 0);
      }
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Use:
      case EventKind::Assign: {
        if (keys.empty())
            return record ? costs.bfDispatchCost : costs.dispatchCost;
        bool all_hit = true;
        for (Addr k : keys)
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
        for (Addr k : keys)
            filter.insert(k);
        return costs.checkCost + (record ? costs.recordCost : 0);
      }
      default:
        return record ? costs.bfDispatchCost : costs.dispatchCost;
    }
}

/**
 * Application cycles of event @p e on core @p c of @p cmp: the core
 * model's cost, plus the cache access of a memory or heap event.
 */
Cycles
appEventCost(const Event &e, const CoreModel &core, Cmp &cmp, unsigned c)
{
    Cycles mem = 0;
    if (e.isMemoryAccess() || e.kind == EventKind::Alloc ||
        e.kind == EventKind::Free) {
        const bool is_write =
            e.kind != EventKind::Read && e.kind != EventKind::Use;
        mem = cmp.access(c, e.addr, is_write);
    }
    return core.cost(e, mem);
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
                total += appEventCost(e, core, cmp, 0);
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
      // Every slot is written by a task before it is read.
      produce_(std::make_unique_for_overwrite<Cycles[]>(order.size())),
      consume_(std::make_unique_for_overwrite<Cycles[]>(order.size()))
{
    // Indexed by instruction index; a thread's event count bounds it
    // without a counting pass (heartbeats take no slot).
    for (std::size_t t = 0; t < trace_.numThreads(); ++t)
        parallelCosts_[t] = std::make_unique_for_overwrite<Cycles[]>(
            trace_.threads[t].events.size());
}

void
AppPerformance::submit(WorkerPool &pool, TaskGroup &group)
{
    const auto task = [](void *self, std::size_t which) {
        static_cast<AppPerformance *>(self)->runTask(static_cast<Task>(which));
    };
    for (std::size_t which = 0; which < kTasks; ++which)
        pool.submitTask(group, task, this, which);
}

void
AppPerformance::run()
{
    for (std::size_t which = 0; which < kTasks; ++which)
        runTask(static_cast<Task>(which));
}

void
AppPerformance::runTask(Task task)
{
    switch (task) {
      case kParallelReplay: {
        // Each thread on its own core, in true (gseq) order, so
        // coherence misses land where they occurred.
        telemetry::TraceSpan span("perf.app_replay_parallel");
        for (const GseqRef &r : order_)
            parallelCosts_[r.thread][r.index] =
                appEventCost(*r.event, in_.core, parallelCmp_, r.thread);
        report_.cacheStats = parallelCmp_.stats();
        // Parallel, no monitoring: barrier-aware slowest-thread time.
        const Cycles t = barrierAwareParallelTime(trace_, parallelCosts_);
        report_.parallelNoMonitor.timing.totalCycles = t;
        report_.parallelNoMonitor.timing.appCycles = t;
        return;
      }
      case kSerialReplay: {
        // The timesliced application core produces the merged stream:
        // the fine-grained interleave on one core (cache interference
        // between the timesliced threads' working sets).
        telemetry::TraceSpan span("perf.app_replay_serial");
        Cycles sum = 0;
        for (std::size_t k = 0; k < order_.size(); ++k) {
            produce_[k] = appEventCost(*order_[k].event, in_.core,
                                       serialCmp_, 0);
            sum += produce_[k];
        }
        produceSum_ = sum;
        break;
      }
      case kConsumerStream: {
        // One lifeguard core consumes the merged stream with a
        // persistent idempotent filter. Software DBI instead inlines a
        // check per memory event, and a dispatch tax per other event,
        // into that same stream.
        telemetry::TraceSpan span("perf.consumer_stream");
        IdempotentFilter filter(in_.costs.filterSlots);
        std::vector<Addr> keys;
        Cycles dbi = 0;
        for (std::size_t k = 0; k < order_.size(); ++k) {
            const Event &e = *order_[k].event;
            monitoredKeys(e, in_.addrcheck, keys);
            dbi += keys.empty() ? in_.costs.dbiPerOtherEvent
                                : in_.costs.dbiPerMemEvent;
            consume_[k] = lifeguardEventCost(e, keys, in_.costs, filter,
                                             false, nullptr);
        }
        dbiTerm_ = dbi;
        break;
      }
      case kBaselineReplay: {
        // Sequential unmonitored baseline: same work, single-threaded
        // traversal order (phase-by-phase, locality intact).
        telemetry::TraceSpan span("perf.sequential_baseline");
        report_.sequentialBaseline =
            replaySegmentOrderedBaseline(trace_, in_.core, baselineCmp_);
        return;
      }
      default:
        panic("unknown application-half task");
    }
    // The serial replay and the consumer stream: the second to finish
    // sees both streams (acq_rel orders the other task's writes first).
    if (streamsPending_.fetch_sub(1, std::memory_order_acq_rel) == 1)
        priceTimesliced();
}

void
AppPerformance::priceTimesliced()
{
    telemetry::TraceSpan span("perf.timesliced");
    const std::size_t n = order_.size();
    report_.timesliced.timing =
        simulateSpsc(std::span<const Cycles>(produce_.get(), n),
                     std::span<const Cycles>(consume_.get(), n),
                     logCapacity(in_));
    // DBI frameworks cannot soundly monitor threads running in parallel
    // (the inter-thread dependence problem this paper addresses), so
    // the deployed tools serialize the threads onto one core (as
    // Valgrind does) with checks inlined into the instruction stream:
    // the timesliced producer's cycles plus the inlined work.
    const Cycles dbi = produceSum_ + dbiTerm_;
    report_.dbiSoftware.timing.totalCycles = dbi;
    report_.dbiSoftware.timing.appCycles = dbi;
}

BlockPricing::BlockPricing(const AppPerformance &app, const PerfInputs &in)
    : layout_(*in.layout), in_(in)
{
    ensure(in.trace == &app.trace_ && in.layout,
           "block pricing needs the priced trace's layout");
    const std::size_t T = app.trace_.numThreads();
    const std::size_t L = layout_.numEpochs();
    timing_.costs.resize(T);
    for (ThreadId t = 0; t < T; ++t) {
        timing_.costs[t].resize(L);
        for (EpochId l = 0; l < L; ++l) {
            const BlockView block = layout_.block(l, t);
            EpochCosts &ec = timing_.costs[t][l];
            // The replay indexes the block's events from block.first
            // on, in the order the block holds them.
            ec.appCost = std::span<const Cycles>(
                app.parallelCosts_[t].get() + block.first, block.size());
            ec.pass1Cost.reserve(block.size());
        }
    }
    recorded_.resize(T * L);
}

void
BlockPricing::submit(WorkerPool &pool, TaskGroup &group)
{
    pool.submitTask(
        group, [](void *self, std::size_t) {
            static_cast<BlockPricing *>(self)->run();
        },
        this, 0);
}

void
BlockPricing::run()
{
    telemetry::TraceSpan span("perf.block_pricing");
    const bool traced = telemetry::enabled();
    const PerfTelemetry *pt = traced ? &PerfTelemetry::get() : nullptr;
    auto &reg = telemetry::registry();
    const std::size_t L = layout_.numEpochs();
    std::vector<Addr> keys;
    for (ThreadId t = 0; t < timing_.costs.size(); ++t) {
        IdempotentFilter filter(in_.costs.filterSlots);
        for (EpochId l = 0; l < L; ++l) {
            filter.flush(); // butterfly flushes at epoch boundaries
            const BlockView block = layout_.block(l, t);
            std::vector<Cycles> &pass1 = timing_.costs[t][l].pass1Cost;
            std::uint64_t recorded = 0;
            Cycles total = 0;
            for (const Event &e : block.events) {
                monitoredKeys(e, in_.addrcheck, keys);
                const Cycles c = lifeguardEventCost(e, keys, in_.costs,
                                                    filter, true, &recorded);
                total += c;
                pass1.push_back(c);
            }
            recorded_[t * L + l] = recorded;
            if (traced) {
                // One histogram sample and one counter flush per
                // block, never per event.
                reg.add(pt->recordedEvents, recorded);
                reg.observe(pt->pass1BlockCycles, total);
            }
        }
    }
}

PerfReport
priceButterfly(const AppPerformance &app, BlockPricing &blocks,
               const PerfInputs &in)
{
    ensure(in.trace == &app.trace_ && in.layout == &blocks.layout_ &&
               in.butterfly,
           "perf model needs the priced trace, layout and functional "
           "results");
    const std::size_t T = app.trace_.numThreads();
    const std::size_t L = blocks.layout_.numEpochs();

    PerfReport report = app.report_;

    // --- Parallel butterfly monitoring -------------------------------
    {
        telemetry::TraceSpan span("perf.butterfly");
        const bool traced = telemetry::enabled();
        const PerfTelemetry *pt = traced ? &PerfTelemetry::get() : nullptr;
        auto &reg = telemetry::registry();

        ButterflyTimingInput &bt = blocks.timing_;
        bt.bufferCapacity = logCapacity(in);
        bt.barrierCost = in.costs.barrierCost;
        for (ThreadId t = 0; t < T; ++t) {
            for (EpochId l = 0; l < L; ++l) {
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
                EpochCosts &ec = bt.costs[t][l];
                ec.pass2Cost =
                    in.costs.pass2PerEvent * blocks.recorded_[t * L + l] +
                    in.costs.meetPerKey * meet +
                    in.costs.fpCost * in.butterfly->errorsInBlock(l, t);
                if (traced)
                    reg.observe(pt->pass2BlockCycles, ec.pass2Cost);
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
    BlockPricing blocks(app, in);
    {
        // The same stages runSession runs: two workers beside this
        // thread, which helps while it waits.
        WorkerPool pool(2);
        TaskGroup stages;
        app.submit(pool, stages);
        blocks.submit(pool, stages);
        pool.waitGroup(stages);
    }
    return priceButterfly(app, blocks, in);
}

} // namespace bfly
