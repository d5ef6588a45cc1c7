/**
 * @file
 * Lifeguard cost model and end-to-end timing of the three monitoring modes
 * the paper's Figure 11 compares:
 *
 *  - timesliced monitoring: all application threads interleaved on one
 *    core, one sequential lifeguard core (the state of the art);
 *  - parallel (butterfly) monitoring: one lifeguard core per application
 *    core, two passes per epoch with barriers and SOS updates;
 *  - parallel, no monitoring.
 *
 * Application-side per-event cycles come from the CMP cache model
 * (src/sim); lifeguard-side per-event cycles come from the instruction
 * cost model below, which reflects the prototype's measured behaviour
 * (Section 7.2): a baseline metadata check per unfiltered event, ~7-10
 * extra instructions per load/store in pass 1 to record it for pass 2,
 * per-epoch barrier and SOS-update costs, wing-summary merge work
 * proportional to summary sizes, and expensive false-positive handling.
 * Idempotent filtering (an LBA accelerator the prototype uses) makes
 * repeat accesses to a recently-checked location nearly free; butterfly
 * analysis must flush the filter at every epoch boundary (Section 7.1
 * footnote), the timesliced baseline never flushes.
 */

#ifndef BUTTERFLY_HARNESS_PERF_MODEL_HPP
#define BUTTERFLY_HARNESS_PERF_MODEL_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cmp.hpp"
#include "sim/core_model.hpp"
#include "sim/lba.hpp"
#include "lifeguards/addrcheck.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly {

class BlockPricing;
class TaskGroup;
class WorkerPool;

/** Cycle costs of lifeguard processing (per event / per element). */
struct LifeguardCosts
{
    Cycles checkCost = 20;      ///< unfiltered metadata check
    Cycles filteredCost = 3;    ///< idempotent-filter hit
    Cycles dispatchCost = 1;    ///< non-memory event dispatch (timesliced)
    /** Butterfly pass-1 per-instruction bookkeeping. The prototype's
     *  first pass executes several instructions per event beyond the
     *  check itself (Section 7.2 calls this overhead non-fundamental
     *  but real); the timesliced monitor has no such loop. */
    Cycles bfDispatchCost = 7;
    Cycles recordCost = 10;     ///< butterfly pass-1 record per mem event
    Cycles pass2PerEvent = 10;  ///< pass-2 re-analysis per recorded event
    Cycles meetPerKey = 1;      ///< wing-summary merge, per summary key
    Cycles allocCost = 40;      ///< alloc/free metadata range update
    Cycles fpCost = 1000;       ///< per flagged error (logging/handling)
    Cycles barrierCost = 400;   ///< per barrier crossing
    Cycles sosPerKey = 3;       ///< SOS update per GEN/KILL element
    /** Idempotent-filter entries (direct-mapped). */
    std::size_t filterSlots = 4096;
    /**
     * Section 7.2's future-work optimization: cache parts of the
     * first-pass analysis and reuse them when the same monitored code
     * revisits a location. When enabled, a filtered (repeat) access
     * pays recordCachedCost instead of recordCost. The software
     * ADDRCHECK caches its LSOS answers per block regardless; this
     * prices the paper's lifeguard cores, and stays off by default so
     * the cycle model reproduces the paper's uncached prototype
     * (Figure 11).
     */
    bool firstPassCaching = false;
    Cycles recordCachedCost = 2;
    /**
     * Software-only dynamic binary instrumentation (the paper's
     * Section 2 alternative to hardware-assisted logging): lifeguard
     * code inlined between application instructions on the *same*
     * core. Costs reflect DBI frameworks' measured overheads
     * (Valgrind-class tools slow programs by 1-2 orders of magnitude).
     */
    Cycles dbiPerMemEvent = 55;  ///< inline check + shadow lookup
    Cycles dbiPerOtherEvent = 4; ///< translation/dispatch tax
};

/** Per-mode timing plus its normalization. */
struct ModeTiming
{
    TimingResult timing;
    double normalized = 0.0; ///< vs sequential unmonitored execution
};

/** Inputs shared by all modes for one workload run. */
struct PerfInputs
{
    const Trace *trace = nullptr;
    const EpochLayout *layout = nullptr;
    /** Functional butterfly run (per-block FP counts, summary sizes). */
    const ButterflyAddrCheck *butterfly = nullptr;
    AddrCheckConfig addrcheck;
    LifeguardCosts costs;
    CoreModel core;
    std::size_t logBufferBytes = 8 * 1024;
    std::size_t logRecordBytes = 16;
};

/** End-to-end timing of every mode for one run. */
struct PerfReport
{
    Cycles sequentialBaseline = 0; ///< 1 thread, unmonitored (denominator)
    ModeTiming parallelNoMonitor;
    ModeTiming timesliced;
    ModeTiming butterfly;
    /** The same butterfly costs under the pipelined (dependency-graph)
     *  schedule instead of barrier-per-pass: no barrier crossings, a
     *  block-pass starts when its wings are ready and a lifeguard core
     *  is free. The gap to `butterfly` is the barrier tax on this
     *  trace; `timing.barrierStallPerBlock` of the barrier mode shows
     *  which blocks paid it. */
    ModeTiming butterflyPipelined;
    /** Software-only DBI monitoring (same-core, no logging hardware) —
     *  the Section 2 alternative the paper's platform improves on. Note
     *  plain DBI on a parallel program needs extra machinery for
     *  inter-thread dependences; this mode prices only its instruction
     *  overheads, as a floor. */
    ModeTiming dbiSoftware;
    CacheStats cacheStats; ///< of the parallel unmonitored replay
};

/**
 * The application half of the perf model: the modes priced from the
 * application side alone (parallel no-monitor, software DBI and
 * timesliced monitoring) and the parallel replay's per-event costs the
 * butterfly half reads. It reads the trace, its gseq order and the cost
 * settings, never the layout or the butterfly run, so a session can run
 * it beside the butterfly analysis.
 *
 * It is four independent tasks (Task), each writing only its own
 * outputs:
 *  - the parallel CMP replay, then the barrier-aware parallel time;
 *  - the serial CMP replay, which writes the timesliced producer stream
 *    in gseq order and sums it;
 *  - the consumer stream: the timesliced lifeguard's cycles per event
 *    behind its persistent idempotent filter, and DBI's per-event
 *    instrumentation term; it reads no replay;
 *  - the segment-ordered baseline replay.
 * Whichever of the serial replay and the consumer stream finishes last
 * then runs simulateSpsc over the two streams and prices DBI as the
 * producer stream's sum plus the per-event terms.
 *
 * The constructor allocates every large buffer the tasks fill: the three
 * Cmp models, the parallel replay's per-thread cost arrays and the two
 * timesliced streams. Construct it on the thread that owns the session;
 * the tasks can then run on pool threads without growing their malloc
 * arenas (DESIGN.md §6, "Session stage graph"). The arrays are allocated
 * but not written, so their first-touch page faults are paid by the
 * tasks, off the session thread.
 */
class AppPerformance
{
  public:
    /**
     * @param in     the trace and cost settings to price; in.layout and
     *               in.butterfly are not read and may still be null
     * @param order  every non-heartbeat event of in.trace in execution
     *               order (in.trace->gseqOrder(), or the order interleave()
     *               emitted); borrowed, like the trace
     */
    AppPerformance(const PerfInputs &in, const std::vector<GseqRef> &order);
    /** Its tasks hold its address. */
    AppPerformance(const AppPerformance &) = delete;
    AppPerformance &operator=(const AppPerformance &) = delete;

    /** Queue every task into @p group, longest first. The caller waits
     *  for the group before pricing. */
    void submit(WorkerPool &pool, TaskGroup &group);

    /** Run every task on this thread, in the same order. */
    void run();

  private:
    /** The tasks, longest first: the order submit() queues them in. */
    enum Task : std::size_t
    {
        kParallelReplay,
        kSerialReplay,
        kConsumerStream,
        kBaselineReplay,
        kTasks
    };

    /** Run task @p task on this thread. Each task runs exactly once. */
    void runTask(Task task);

    friend class BlockPricing;
    friend PerfReport priceButterfly(const AppPerformance &app,
                                     BlockPricing &blocks,
                                     const PerfInputs &in);

    /** simulateSpsc and DBI, once both timesliced streams exist. */
    void priceTimesliced();

    const Trace &trace_;
    const std::vector<GseqRef> &order_;
    PerfInputs in_;
    Cmp parallelCmp_; ///< 2T cores: T application + T lifeguard
    Cmp serialCmp_;   ///< the timesliced application core
    Cmp baselineCmp_; ///< sequential unmonitored run
    /** Parallel application cycles per thread and per-thread event
     *  index. */
    std::vector<std::unique_ptr<Cycles[]>> parallelCosts_;
    /** Timesliced producer and consumer cycles, in gseq order. */
    std::unique_ptr<Cycles[]> produce_;
    std::unique_ptr<Cycles[]> consume_;
    Cycles produceSum_ = 0; ///< serial replay: sum of produce_
    Cycles dbiTerm_ = 0;    ///< consumer stream: DBI's per-event cycles
    /** Timesliced streams still being written; the task that brings it
     *  to zero prices the timesliced and DBI modes. */
    std::atomic<int> streamsPending_{2};
    /** The application-side modes; priceButterfly adds the rest. Each
     *  task writes its own fields. */
    PerfReport report_;
};

/**
 * The layout-only part of the butterfly half: the per-block filter
 * replay (the butterfly lifeguard flushes its idempotent filter at every
 * epoch boundary) that gives each block's pass-1 cycles per event and
 * how many events it records for pass 2. It reads the layout and the
 * cost settings, never the butterfly run, so it runs beside that run
 * once the layout exists.
 *
 * The constructor allocates every per-block cost array and points each
 * block's application costs at its slice of @p app's parallel replay
 * (EpochCosts::appCost); construct it on the session thread, like
 * AppPerformance. run() fills the pass-1 costs and counts; the replay's
 * costs are read only by priceButterfly, after both have run.
 */
class BlockPricing
{
  public:
    /** @param in  in.layout must be set and slice @p app's trace */
    BlockPricing(const AppPerformance &app, const PerfInputs &in);
    /** Its task holds its address. */
    BlockPricing(const BlockPricing &) = delete;
    BlockPricing &operator=(const BlockPricing &) = delete;

    /** Queue run() into @p group. */
    void submit(WorkerPool &pool, TaskGroup &group);

    /** Replay every block through its filter, on this thread. */
    void run();

  private:
    friend PerfReport priceButterfly(const AppPerformance &app,
                                     BlockPricing &blocks,
                                     const PerfInputs &in);

    const EpochLayout &layout_;
    PerfInputs in_;
    /** costs[t][l] hold appCost and pass1Cost; priceButterfly adds the
     *  pass-2 and SOS costs. */
    ButterflyTimingInput timing_;
    /** Events block (l, t) records for pass 2, at [t * epochs + l]. */
    std::vector<std::uint64_t> recorded_;
};

/**
 * The rest of the butterfly half: pass-2 costs from the functional run
 * in.butterfly and @p blocks' recorded counts, SOS-update costs, then the
 * barrier-scheduled and pipelined butterfly simulations, and every mode
 * normalized by the sequential baseline. @p app and @p blocks must have
 * run over in.trace and in.layout; this completes @p blocks' timing
 * input in place.
 */
PerfReport priceButterfly(const AppPerformance &app, BlockPricing &blocks,
                          const PerfInputs &in);

/**
 * Compute the full performance report for one workload run: the
 * application half's tasks and the block pricing on a pool of its own,
 * then the rest of the butterfly half.
 */
PerfReport computePerformance(const PerfInputs &inputs);

} // namespace bfly

#endif // BUTTERFLY_HARNESS_PERF_MODEL_HPP
