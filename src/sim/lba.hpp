/**
 * @file
 * Log-Based-Architectures (LBA) style coupling between application cores
 * and lifeguard cores.
 *
 * In LBA (Chen et al., ISCA'08 — the platform the paper's prototype runs
 * on), each application core streams a per-thread event log through a
 * bounded buffer to a dedicated lifeguard core. Three timing mechanisms
 * matter and are modeled here exactly:
 *
 *  1. back-pressure: the application core stalls when its log buffer is
 *     full, so end-to-end time is lifeguard-limited when monitoring is the
 *     bottleneck (which §7.1 says it is);
 *  2. the butterfly two-pass structure: pass 1 consumes the log online;
 *     pass 2 for epoch l-1 can only run after *all* threads finished pass 1
 *     of epoch l (its wings), giving one barrier per pass per epoch;
 *  3. per-epoch fixed costs (barrier stalls, SOS update) that amortize with
 *     larger epochs — the mechanism behind Figure 12.
 *
 * The functions below are pure timing: they take per-record cycle costs
 * (derived from the CMP cache model and the lifeguard instruction-cost
 * model) and compute completion times with exact single-producer
 * single-consumer bounded-queue recurrences.
 */

#ifndef BUTTERFLY_SIM_LBA_HPP
#define BUTTERFLY_SIM_LBA_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace bfly {

/** Result of a coupled producer/consumer timing simulation. */
struct TimingResult
{
    /** Completion time of the whole run (lifeguard side). */
    Cycles totalCycles = 0;
    /** When the application side finished producing (incl. stalls). */
    Cycles appCycles = 0;
    /** Cycles the application spent stalled on a full log buffer. */
    Cycles appStallCycles = 0;
    /** Cycles lifeguard threads spent waiting at epoch barriers. */
    Cycles barrierWaitCycles = 0;
    /**
     * barrierStallPerBlock[t][l]: barrier-wait cycles attributed to
     * thread t around epoch l (populated by simulateButterfly only).
     * The pass-1 barrier of window step l charges epoch l; the pass-2
     * barrier charges epoch l-1; the trailing step charges the final
     * epoch. Summing every cell reproduces barrierWaitCycles exactly —
     * this is the per-block breakdown the pipelined model eliminates,
     * so it shows *where* a skewed trace loses time to barriers.
     */
    std::vector<std::vector<Cycles>> barrierStallPerBlock;
    /**
     * Pipelined model only: total cycles tasks spent between becoming
     * runnable (all dependencies satisfied) and starting on a worker —
     * the scheduling analogue of barrierWaitCycles.
     */
    Cycles taskWaitCycles = 0;
};

/**
 * Exact SPSC bounded-buffer pipeline timing.
 *
 * Record i becomes available at produce[i] and is consumed in order;
 * production of record i cannot begin until record i-capacity has been
 * consumed (buffer slot free). Used for the timesliced baseline (one
 * producer core, one sequential lifeguard core, no barriers).
 *
 * @param prod_cost  application cycles to produce each record
 * @param cons_cost  lifeguard cycles to consume each record
 * @param capacity   log buffer capacity in records
 */
TimingResult simulateSpsc(std::span<const Cycles> prod_cost,
                          std::span<const Cycles> cons_cost,
                          std::size_t capacity);

/** Per-(thread, epoch) cost inputs for the butterfly timing model. */
struct EpochCosts
{
    /** Application cycles per record in this block (production): a view
     *  of the caller's per-thread array, which must outlive the
     *  simulation. */
    std::span<const Cycles> appCost;
    /** Lifeguard pass-1 cycles per record (consumption). */
    std::vector<Cycles> pass1Cost;
    /** Aggregate lifeguard pass-2 cycles for this block. */
    Cycles pass2Cost = 0;
};

/** Whole-run inputs for the butterfly timing model. */
struct ButterflyTimingInput
{
    /** costs[t][l] for every thread t and epoch l (rectangular). */
    std::vector<std::vector<EpochCosts>> costs;
    /** Log buffer capacity in records (per thread pair). */
    std::size_t bufferCapacity = 512;
    /** Fixed cycles charged at each barrier crossing. */
    Cycles barrierCost = 200;
    /** Aggregate SOS-update cycles per epoch (master thread). */
    std::vector<Cycles> sosUpdateCost;
};

/**
 * Timing of parallel butterfly monitoring: T application cores each coupled
 * to a lifeguard core by a bounded buffer; lifeguards run pass 1 of epoch l,
 * barrier, pass 2 of epoch l-1, and the master thread folds the epoch
 * summary into the SOS.
 */
TimingResult simulateButterfly(const ButterflyTimingInput &input);

/**
 * Timing of a *pipelined* butterfly schedule: the same per-block costs
 * executed as the dependency task graph whose edges DESIGN.md §7 lists,
 * by @p workers work-conserving lifeguard cores — no barriers, a
 * block-pass starts the moment its prerequisites finish and a core is
 * free. WindowSchedule itself walks the window in order on one thread;
 * this model prices the LBA platform's one lifeguard core per
 * application thread. Greedy list scheduling in task order; admission
 * and retirement are free; finalizeEpoch costs sosUpdateCost[l].
 *
 * The model is lifeguard-bound (production coupling and barrierCost do
 * not apply — there are no barriers to cross), matching the paper's
 * observation that monitoring is the bottleneck. Comparing its
 * totalCycles against simulateButterfly's on the same input isolates
 * what dependency-driven scheduling buys over barrier-per-pass.
 *
 * @param strict_finalize  keep finalize(l) behind pass 2 of epoch l
 *                         (AnalysisDriver::finalizeAfterPass2); relaxed
 *                         drivers (ADDRCHECK) pass false
 */
TimingResult simulateButterflyPipelined(const ButterflyTimingInput &input,
                                        std::size_t workers,
                                        bool strict_finalize);

/**
 * Timing of the unmonitored parallel run: per-thread production costs only,
 * no lifeguard coupling. Total time is the slowest thread.
 *
 * @param per_thread_cost  sum of application cycles for each thread
 */
TimingResult
simulateUnmonitored(const std::vector<Cycles> &per_thread_cost);

} // namespace bfly

#endif // BUTTERFLY_SIM_LBA_HPP
