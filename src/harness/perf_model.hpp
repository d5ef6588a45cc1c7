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
 * The application half of the perf model: the parallel, serial and
 * segment-ordered CMP replays, then the modes priced from the
 * application side alone (parallel no-monitor, software DBI and
 * timesliced monitoring). It reads the trace, its gseq order and the
 * cost settings, never the layout or the butterfly run, so a session
 * can run it beside the butterfly analysis.
 *
 * The constructor allocates every large buffer run() fills: the three
 * Cmp models, the per-event cost arrays and the timesliced
 * producer/consumer streams. Construct it on the thread that owns the
 * session; run() can then execute on a pool thread without growing that
 * thread's malloc arena (DESIGN.md §6, "Session stage graph"). The
 * arrays are allocated but not written, so their first-touch page
 * faults are paid by run(), off the session thread.
 */
class AppPerformance
{
  public:
    /**
     * @param in     the trace and cost settings to price; in.layout and
     *               in.butterfly are not read and may still be null
     * @param order  in.trace->gseqOrder(); borrowed, like the trace
     */
    AppPerformance(const PerfInputs &in, const std::vector<GseqRef> &order);
    /** Its replay tasks hold its address. */
    AppPerformance(const AppPerformance &) = delete;
    AppPerformance &operator=(const AppPerformance &) = delete;

    /**
     * Run the three replays, concurrently on @p pool unless it is null
     * (safe from inside one of the pool's tasks), then price the
     * application-side modes.
     */
    void run(WorkerPool *pool);

  private:
    friend PerfReport priceButterfly(const AppPerformance &app,
                                     const PerfInputs &in);

    void replay(std::size_t which);

    const Trace &trace_;
    const std::vector<GseqRef> &order_;
    PerfInputs in_;
    Cmp parallelCmp_; ///< 2T cores: T application + T lifeguard
    Cmp serialCmp_;   ///< the timesliced application core
    Cmp baselineCmp_; ///< sequential unmonitored run
    /** Application cycles per thread and per-thread event index. */
    std::vector<std::unique_ptr<Cycles[]>> parallelCosts_;
    std::vector<std::unique_ptr<Cycles[]>> serialCosts_;
    /** Timesliced producer and consumer cycles, in gseq order. */
    std::vector<Cycles> produce_;
    std::vector<Cycles> consume_;
    /** The application-side modes; priceButterfly adds the rest. */
    PerfReport report_;
};

/**
 * The butterfly half of the perf model: price barrier-scheduled and
 * pipelined butterfly monitoring from @p app's parallel application
 * costs, in.layout and the functional run in.butterfly, then normalize
 * every mode by the sequential baseline. @p app must have run() over
 * in.trace.
 */
PerfReport priceButterfly(const AppPerformance &app, const PerfInputs &in);

/**
 * Compute the full performance report for one workload run: the
 * application half, its replays on a pool of its own, then the
 * butterfly half.
 */
PerfReport computePerformance(const PerfInputs &inputs);

} // namespace bfly

#endif // BUTTERFLY_HARNESS_PERF_MODEL_HPP
