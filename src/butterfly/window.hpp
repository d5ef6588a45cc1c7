/**
 * @file
 * The sliding-window schedule of butterfly analysis (paper Sections 4.2-4.3).
 *
 * Butterfly analysis processes a trace as a pipeline of 3-epoch windows.
 * When the events of epoch l have been fully received:
 *
 *   step 1  pass 1 runs on every block (l, t): local dataflow using the
 *           LSOS, producing the block's side-out summaries;
 *   step 2  summaries from the wings of each body block in epoch l-1 are
 *           met (all pass-1 summaries for epochs l-2..l now exist);
 *   step 3  pass 2 runs on every block (l-1, t), repeating the analysis
 *           with wing state and performing the lifeguard's checks;
 *   step 4  epoch l-1's summary (GEN_l-1 / KILL_l-1) updates the SOS.
 *
 * The WindowSchedule drives an AnalysisDriver through exactly this order
 * in one of two ways: run() walks the steps sequentially on the calling
 * thread, over a materialized layout (the reference) or over an
 * EpochStream (the monitoring service's sessions), and runPipelined()
 * executes them as a dependency task graph on a worker pool (the
 * fuzzer's pipelined mode and the benchmarks). The graph may run
 * blocks of a pass concurrently — safe because they touch disjoint
 * state and the shared SOS is only advanced in the single-writer step 4
 * (the paper's "no synchronization on metadata" observation).
 */

#ifndef BUTTERFLY_BUTTERFLY_WINDOW_HPP
#define BUTTERFLY_BUTTERFLY_WINDOW_HPP

#include <cstddef>

#include "common/worker_pool.hpp"
#include "trace/epoch_slicer.hpp"

namespace bfly {

/** Hooks a butterfly analysis implements; called by WindowSchedule. */
class AnalysisDriver
{
  public:
    virtual ~AnalysisDriver() = default;

    /**
     * Step 1: local analysis of block (l, t). The driver computes GEN/KILL
     * and its side-out summaries and may perform LSOS-based local checks.
     */
    virtual void pass1(const BlockView &block) = 0;

    /**
     * Steps 2+3: wing summaries for body block (l, t) are complete; meet
     * them and re-run the analysis with wing state, performing checks.
     */
    virtual void pass2(const BlockView &block) = 0;

    /**
     * Step 4: all blocks of epoch l have finished pass 2; fold the epoch
     * summary into the SOS (single-writer).
     */
    virtual void finalizeEpoch(EpochId l) = 0;

    /**
     * Called single-threaded immediately before the blocks of a pass
     * over epoch @p l run (@p second selects pass 2). Drivers that grow
     * shared containers lazily (e.g. the per-epoch block vectors in
     * reaching_defs) override this to pre-size them, so blocks the
     * pipelined schedule runs concurrently only touch disjoint,
     * already-allocated slots.
     */
    virtual void beginPass(EpochId l, bool second)
    {
        (void)l;
        (void)second;
    }

    /**
     * No-op. Every lifeguard has exactly one pass-1 kernel, so there is
     * nothing to select and nothing in src/ overrides this. It stays
     * only because the benchmark's wrapping driver (TimedDriver in
     * perfbench/bench.hpp) still overrides it.
     */
    virtual void setBatchMode(bool enabled) { (void)enabled; }

    /**
     * Ordering constraint the pipelined (dependency-graph) schedule must
     * honor for this driver. The default — true — reproduces the
     * sequential pattern exactly: finalizeEpoch(l) waits for pass 2 of
     * epoch l and gates pass 2 of epoch l+1. This is required whenever
     * pass 2 reads SOS state that finalizeEpoch advances, or
     * finalizeEpoch reads pass-2 results (TAINTCHECK does both), and it
     * also makes every finalize a quiescent point at which beginPass may
     * safely resize shared containers (reaching_defs/exprs).
     *
     * Drivers whose pass 2 and finalizeEpoch consume only pass-1
     * summaries (ADDRCHECK) return false: finalizeEpoch then only waits
     * for pass 1 of its own window, so pass 1 of epoch l+1 overlaps
     * pass 2 of epoch l-1 with no global synchronization at all. A
     * relaxed driver must tolerate beginPass being called while pass-2
     * tasks of older epochs are still running (i.e. not override it, or
     * make it thread-safe).
     */
    virtual bool finalizeAfterPass2() const { return true; }

    /**
     * True if pass 2 of block (l, t) reads thread t's *own* epoch-l+1
     * pass-1 result — e.g. ADDRLEAK's whole-window fixpoint WM_l, which
     * folds every thread's epoch-l+1 rules, or ADDRCHECK's epoch-l+1
     * wing table, which the epoch's last pass-1 block builds. The
     * pipelined schedule then orders P2(l,t) after P1(l+1,t) as well.
     * Drivers that exclude the body thread from all wing reads
     * (TAINTCHECK, DEFINEDCHECK, LOCKSET) keep the default and let a
     * heavy thread's pass 2 overlap its own next pass 1.
     */
    virtual bool pass2ReadsOwnNextPass1() const { return false; }
};

/** Observability counters from one pipelined (task-graph) run. */
struct PipelineStats
{
    std::size_t tasksRun = 0;         ///< graph tasks executed
    std::size_t epochsFinalized = 0;  ///< finalize tasks executed
    /** High-water mark of simultaneously resident stream epochs. */
    std::size_t peakResidentEpochs = 0;
    /** Producer stalls recorded by the stream's back-pressure buffer. */
    std::uint64_t producerStalls = 0;
};

/** Drives an AnalysisDriver over a trace in butterfly window order. */
class WindowSchedule
{
  public:
    /**
     * @param parallel_passes  ignored: run() never fans out. The
     *                         parameter stays only because the
     *                         benchmark (perfbench/) still constructs
     *                         schedules as WindowSchedule(false, nullptr)
     *                         and WindowSchedule(true, &pool).
     * @param pool             pool runPipelined() dispatches its graph
     *                         tasks on; borrowed, must outlive the
     *                         schedule. run() does not use it.
     */
    explicit WindowSchedule(bool parallel_passes = false,
                            WorkerPool *pool = nullptr)
        : pool_(pool)
    {
        (void)parallel_passes;
    }

    /**
     * Process the whole trace pass by pass on the calling thread — the
     * reference schedule, and the one every in-process caller uses.
     */
    void run(const EpochLayout &layout, AnalysisDriver &driver) const;

    /**
     * The same walk over a stream: step l acquires epoch l before its
     * pass 1, and each epoch is retired right after its pass 2, so at
     * most two epochs are ever resident (peakResidentEpochs() <= 2).
     * Both overloads share one step body; results are bit-identical to
     * run() over the equivalent layout and to runPipelined().
     */
    void run(EpochStream &stream, AnalysisDriver &driver) const;

    /**
     * Process the whole trace as a dependency task graph on the pool
     * given at construction (required): each block-pass and each
     * finalize is one task that becomes runnable the instant its
     * prerequisites complete, so pass 1 of epoch l+1 overlaps pass 2 of
     * epoch l-1 and a thread with a heavy block never stalls the whole
     * window behind a barrier. Epochs are admitted into the stream's
     * bounded ring as the graph reaches them and retired once no
     * remaining task can read their events, keeping resident event
     * memory O(window) regardless of trace length. Produces
     * bit-identical analysis results to run() for any driver
     * (sequential-equivalence guarantee — see DESIGN.md "Pipelined
     * scheduler").
     */
    PipelineStats runPipelined(EpochStream &stream,
                               AnalysisDriver &driver) const;

  private:
    WorkerPool *pool_;
};

} // namespace bfly

#endif // BUTTERFLY_BUTTERFLY_WINDOW_HPP
