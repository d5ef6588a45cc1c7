/**
 * @file
 * Slicing per-thread traces into heartbeat-delimited epochs.
 *
 * An epoch l contains one block per thread (paper Section 4.1, Figure 6).
 * Blocks within an epoch need not contain the same number of instructions —
 * the heartbeat only bounds them in time — and a thread may contribute an
 * empty block to an epoch. The slicer supports:
 *
 *  - heartbeat mode: cut wherever the logging platform inserted Heartbeat
 *    markers (the LBA prototype's mechanism), and
 *  - uniform mode: cut every h instructions, used when a trace was produced
 *    without embedded markers.
 *
 * Two consumers exist for the epoch structure: EpochLayout holds the
 * boundaries of every epoch up front (oracles, the perf model, the
 * sequential walk), while EpochStream admits and retires the same
 * boundaries one epoch at a time, so a schedule over it keeps only
 * O(window) epochs resident no matter how long the trace is.
 *
 * Neither copies the events. A block is a span of the trace's own
 * storage, trace.threads[t].events, whenever no heartbeat marker falls
 * between two of its events — every block of a marker-free trace, and
 * every block of an uncoalesced heartbeat slicing. Only a block that
 * straddles a marker (coalesced slicings, or a marked trace cut by
 * another rule) is copied, with its markers dropped.
 *
 * Both borrow the trace: its events must outlive the layout or stream.
 * Moving the Trace (or its threads) keeps them valid, since a moved
 * vector keeps its storage; copying the trace and destroying the
 * original does not. The factories reject a temporary Trace.
 */

#ifndef BUTTERFLY_TRACE_EPOCH_SLICER_HPP
#define BUTTERFLY_TRACE_EPOCH_SLICER_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace bfly {

/** A block (l, t): a read-only view of one thread's events in one epoch. */
struct BlockView
{
    EpochId epoch = 0;
    ThreadId thread = 0;
    std::span<const Event> events;
    /**
     * Per-thread index (heartbeats excluded) of events[0] in the
     * thread's full filtered stream: instruction i of this block has the
     * stable identity first + i, matching EpochLayout::globalIndex.
     * Carried in the view so lifeguards work identically over layouts
     * and streams, whatever storage the span points into.
     */
    std::size_t first = 0;

    std::size_t size() const { return events.size(); }
    bool empty() const { return events.empty(); }
};

/**
 * The epoch structure of a trace: for each thread, where each epoch's block
 * begins and ends. All threads are padded to the same epoch count.
 *
 * A layout borrows its trace (see the file comment): each block is a span
 * of the trace's events, except a block that straddles a heartbeat
 * marker, which the layout copies. Copying or moving a layout keeps it
 * valid; it holds no pointer into itself.
 */
class EpochLayout
{
  public:
    /** Slice at embedded Heartbeat markers. */
    static EpochLayout fromHeartbeats(const Trace &trace);
    static EpochLayout fromHeartbeats(const Trace &&) = delete;

    /** Slice every @p h non-heartbeat instructions per thread. */
    static EpochLayout uniform(const Trace &trace, std::size_t h);
    static EpochLayout uniform(const Trace &&, std::size_t) = delete;

    /**
     * Slice by *global* execution progress: an event whose gseq falls in
     * [k*H, (k+1)*H) lands in epoch k (clamped to be non-decreasing along
     * each thread so blocks stay contiguous under relaxed visibility).
     *
     * This models time-based heartbeats delivered to all cores: a thread
     * stalled at a barrier contributes empty blocks while others advance,
     * and the butterfly premise — everything in epoch l is globally
     * visible before anything in epoch l+2 executes — holds by
     * construction for any interleaving, provided per-thread visibility
     * reordering (store-buffer drift) is smaller than @p global_h.
     *
     * @param global_h  events per epoch across all threads (the paper
     *                  issues heartbeats after h*n instructions total)
     */
    static EpochLayout byGlobalSeq(const Trace &trace,
                                   std::size_t global_h);
    static EpochLayout byGlobalSeq(const Trace &&, std::size_t) = delete;

    /**
     * Like byGlobalSeq, but each thread receives each heartbeat with an
     * independent random delay of up to @p max_skew global events —
     * the paper's delivery model (Section 4.1): heartbeats need not
     * arrive simultaneously, and an instruction an instantaneous
     * heartbeat would place in epoch l may land in l-1, l or l+1. The
     * butterfly guarantees must survive any skew below one epoch minus
     * the visibility-reordering window; the test suite checks zero
     * false negatives under this slicing.
     *
     * @pre max_skew < global_h (the paper sizes epochs to cover skew)
     */
    static EpochLayout byGlobalSeqSkewed(const Trace &trace,
                                         std::size_t global_h,
                                         std::size_t max_skew,
                                         std::uint64_t seed);
    static EpochLayout byGlobalSeqSkewed(const Trace &&, std::size_t,
                                         std::size_t,
                                         std::uint64_t) = delete;

    /**
     * The heartbeat slicing of @p trace coarsened by @p spans: analyzed
     * epoch i merges spans[i] consecutive source (marker-delimited)
     * epochs, so sum(spans) must equal the marker epoch count. This is
     * the reference layout for an adaptive EpochStream run: rebuilding
     * it from the stream's realizedSpans() yields the exact boundary
     * table the stream analyzed, making remote and reference reports
     * bit-identical by construction. Merging markers only coarsens the
     * epoch structure (equivalent to the platform skipping heartbeats),
     * which is the butterfly's conservative direction — a merged
     * slicing can never introduce false negatives. A merged block
     * straddles the markers it merged over, so it is copied.
     */
    static EpochLayout
    coalescedFromHeartbeats(const Trace &trace,
                            std::span<const std::uint32_t> spans);
    static EpochLayout
    coalescedFromHeartbeats(const Trace &&,
                            std::span<const std::uint32_t>) = delete;

    std::size_t numEpochs() const { return numEpochs_; }
    std::size_t numThreads() const { return starts_.size(); }

    /** The block (l, t). Heartbeat markers are excluded from the view. */
    BlockView block(EpochId l, ThreadId t) const;

    /** All blocks of epoch l, indexed by thread. */
    std::vector<BlockView> epoch(EpochId l) const;

    /**
     * Per-thread instruction index (heartbeats excluded) of instruction
     * (l, t, i) — the stable identity used to match butterfly-flagged
     * events against oracle-flagged events.
     */
    std::size_t
    globalIndex(EpochId l, ThreadId t, InstrOffset i) const
    {
        return starts_[t][l] + i;
    }

  private:
    /** Where block (l, t)'s events live. */
    struct Extent
    {
        /** Index of its first event in the trace's events, or in
         *  copies_[t] when the block straddles a marker. */
        std::size_t offset = 0;
        bool copied = false;
    };

    EpochLayout(const Trace &trace, std::size_t num_epochs,
                std::vector<std::vector<std::size_t>> starts,
                const std::vector<std::vector<std::size_t>> &markers);

    std::size_t numEpochs_ = 0;
    /** starts_[t][l] = index (heartbeats excluded) of block (l,t)'s
     *  first event in thread t's events. */
    std::vector<std::vector<std::size_t>> starts_;
    std::vector<std::vector<Extent>> extents_; ///< [t][l]
    /** Each thread's events as the trace stores them, markers included. */
    std::vector<std::span<const Event>> raw_;
    /** Per thread, the blocks that straddle a marker, markers dropped. */
    std::vector<std::vector<Event>> copies_;
    std::vector<ThreadId> tids_;
};

/**
 * Streaming counterpart of EpochLayout::byGlobalSeq and fromHeartbeats:
 * identical epoch boundaries (one cheap boundary pre-pass over the
 * trace, O(epochs) index memory), handed out one admitted epoch at a
 * time through a bounded ring of windowEpochs cells. A resident block
 * is a span of the trace's events, like a layout's; only a block that
 * straddles a heartbeat marker (reslice coalescing) is copied into its
 * cell at admission, and copiedEvents() counts those copies. At most
 * windowEpochs epochs are resident, independent of trace length.
 *
 * The window walk acquires each epoch just before its pass 1 and
 * retires it just after its pass 2, in order. acquire() and retire()
 * calls must be in epoch order, and acquire() refuses to lap the ring.
 * The stream borrows its trace, as a layout does.
 */
class EpochStream
{
  public:
    /**
     * Decides, for the analyzed epoch whose first source epoch is
     * @p leader, how many consecutive source epochs to merge into it.
     * @p epoch_events holds the per-source-epoch event counts (summed
     * over threads) so size-targeting policies can look ahead. Return
     * values are clamped to [1, epoch_events.size() - leader]; the
     * policy is consulted once per group, in leader order, when the
     * stream is constructed — each call may sample live telemetry, so
     * the realized slicing can vary group by group within one stream.
     */
    using ReslicePolicy = std::function<std::size_t(
        EpochId leader, std::span<const std::size_t> epoch_events)>;

    struct Config
    {
        /** Events per epoch across all threads (byGlobalSeq's H).
         *  Ignored when fromHeartbeats is set. */
        std::size_t globalH = 0;
        /** Ring capacity in epochs; >= 4 (the butterfly needs the body
         *  epoch, both wings, and the epoch being admitted). */
        std::size_t windowEpochs = 4;
        /**
         * Cut at embedded Heartbeat markers instead of gseq buckets —
         * the same boundaries as EpochLayout::fromHeartbeats. This is
         * the only mode available to the monitoring service: logs that
         * crossed the wire carry no gseq (the codec drops execution
         * metadata), so the epoch structure must come from the markers
         * the logging platform embedded.
         */
        bool fromHeartbeats = false;
        /**
         * Optional coalescing policy (adaptive epoch sizing). When set,
         * the marker-delimited source epochs are merged into coarser
         * analyzed epochs group by group; numEpochs() then reports the
         * realized (merged) count and realizedSpans() records the
         * per-epoch merge widths so a bit-identical reference layout
         * can be rebuilt with EpochLayout::coalescedFromHeartbeats.
         * Null (the default) keeps the source slicing untouched.
         */
        ReslicePolicy reslice;
    };

    EpochStream(const Trace &trace, Config config);
    EpochStream(const Trace &&, Config) = delete;

    std::size_t numEpochs() const { return numEpochs_; }

    /** Marker-delimited epoch count before any coalescing. */
    std::size_t sourceEpochs() const { return sourceEpochs_; }

    /**
     * Per-analyzed-epoch source spans chosen by Config::reslice, in
     * epoch order; sums to sourceEpochs(). Empty when no policy ran
     * (the realized slicing is then the source slicing).
     */
    const std::vector<std::uint32_t> &realizedSpans() const
    {
        return spans_;
    }
    std::size_t numThreads() const { return starts_.size(); }
    std::size_t windowEpochs() const { return cells_.size(); }

    /** Admit epoch l into the ring. @pre l is the next unacquired epoch
     *  and fewer than windowEpochs epochs are resident. */
    void acquire(EpochId l);

    /** The block (l, t) of a currently resident epoch. */
    BlockView block(EpochId l, ThreadId t) const;

    /** Release epoch l's ring cell. @pre l is the oldest resident epoch. */
    void retire(EpochId l);

    /**
     * Events acquire() has copied so far, for blocks that straddle a
     * heartbeat marker (0 unless reslice coalesced epochs, or a marked
     * trace is cut by gseq). Read it once the schedule has finished.
     */
    std::uint64_t copiedEvents() const { return copiedEvents_; }

    std::size_t residentEpochs() const { return resident_; }

    /** High-water mark of simultaneously resident epochs. */
    std::size_t peakResidentEpochs() const { return peakResident_; }

  private:
    /** Ring cell holding one resident epoch's per-thread blocks. */
    struct Cell
    {
        EpochId epoch = kNoEpoch;
        std::vector<std::span<const Event>> events; ///< [t]
        /** The epoch's blocks that straddle a marker, one after another;
         *  their events[t] span this buffer. */
        std::vector<Event> copies;
    };

    Cell &cellOf(EpochId l) { return cells_[l % cells_.size()]; }
    const Cell &cellOf(EpochId l) const { return cells_[l % cells_.size()]; }

    std::size_t numEpochs_ = 0;
    std::size_t sourceEpochs_ = 0;
    std::vector<std::uint32_t> spans_;
    /** Same boundary table as EpochLayout::byGlobalSeq or
     *  fromHeartbeats (coalesced when reslice ran). */
    std::vector<std::vector<std::size_t>> starts_;
    /** [t]: each heartbeat marker's position among the thread's events,
     *  heartbeats excluded. */
    std::vector<std::vector<std::size_t>> markers_;
    /** Each thread's events as the trace stores them, markers included. */
    std::vector<std::span<const Event>> raw_;
    std::vector<ThreadId> tids_;
    std::vector<Cell> cells_;

    EpochId nextAcquire_ = 0;
    EpochId nextRetire_ = 0;
    std::uint64_t copiedEvents_ = 0;
    std::size_t resident_ = 0;
    std::size_t peakResident_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_TRACE_EPOCH_SLICER_HPP
