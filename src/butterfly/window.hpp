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
 * on the calling thread, over a materialized layout (the reference) or
 * over an EpochStream (the monitoring service's sessions). The paper
 * gets its parallelism from one lifeguard core per application thread;
 * this repo prices that in the cycle models of sim/lba.hpp
 * (simulateButterfly, simulateButterflyPipelined) rather than by
 * running blocks on a thread pool.
 */

#ifndef BUTTERFLY_BUTTERFLY_WINDOW_HPP
#define BUTTERFLY_BUTTERFLY_WINDOW_HPP

#include "trace/epoch_slicer.hpp"

namespace bfly {

class WorkerPool;

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
     * Called immediately before the blocks of a pass over epoch @p l run
     * (@p second selects pass 2). Drivers that grow per-epoch containers
     * lazily (e.g. the per-epoch block vectors in reaching_defs)
     * override this to pre-size them.
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
     * Whether finalizeEpoch(l) must wait for pass 2 of epoch l. The
     * schedule always runs it after pass 2; this declaration feeds the
     * cycle model (priceButterfly passes it to
     * simulateButterflyPipelined), which prices a relaxed driver
     * (false) as if finalizeEpoch(l) ran once pass 1 of epoch l+1 is
     * done, overlapping pass 2 of l. The default, true, is required
     * whenever pass 2 reads SOS state that finalizeEpoch advances, or
     * finalizeEpoch reads pass-2 results (TAINTCHECK does both).
     * A driver that returns false must produce the same report when
     * finalizeEpoch(l) runs right after pass 1 of l+1
     * (RelaxedFinalize.* in test_pipeline.cpp checks every registered
     * lifeguard that declares it).
     */
    virtual bool finalizeAfterPass2() const { return true; }

    /**
     * No-op: nothing reads it. It stays only because the benchmark's
     * wrapping driver (TimedDriver in perfbench/bench.hpp) still
     * overrides it.
     */
    virtual bool pass2ReadsOwnNextPass1() const { return false; }
};

/** Drives an AnalysisDriver over a trace in butterfly window order. */
class WindowSchedule
{
  public:
    /**
     * Both parameters are ignored: the schedule always walks on the
     * calling thread. They stay only because the benchmark (perfbench/)
     * still constructs schedules as WindowSchedule(false, nullptr) and
     * WindowSchedule(true, &pool).
     */
    explicit WindowSchedule(bool parallel_passes = false,
                            WorkerPool *pool = nullptr)
    {
        (void)parallel_passes;
        (void)pool;
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
     * run() over the equivalent layout.
     */
    void run(EpochStream &stream, AnalysisDriver &driver) const;

    /**
     * Forwards to run(stream, driver). It stays only because the
     * benchmark's traced serve replay (perfbench/serve.cpp) still calls
     * it.
     */
    void runPipelined(EpochStream &stream, AnalysisDriver &driver) const;
};

} // namespace bfly

#endif // BUTTERFLY_BUTTERFLY_WINDOW_HPP
