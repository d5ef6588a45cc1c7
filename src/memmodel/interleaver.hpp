/**
 * @file
 * Execution interleavers: produce the *actual* global visibility order of a
 * multithreaded program under a chosen memory consistency model.
 *
 * Workload threads are written as per-thread event programs. An interleaver
 * executes them, stamping each event's @c gseq with the order in which its
 * effect became globally visible:
 *
 *  - SC: one instruction from a randomly chosen runnable thread at a time;
 *    visibility order = execution order, program order preserved per thread.
 *  - TSO/relaxed: stores enter a per-thread FIFO store buffer and become
 *    visible when drained; loads are visible at execute. A load can thus
 *    become visible before an older store of its own thread — the classic
 *    relaxation the paper's Section 4.4 must tolerate. Same-address write
 *    order is a single global order (cache coherence).
 *
 * The per-thread traces handed to lifeguards keep program order (that is
 * what a per-thread log contains); the gseq stamps give the oracle its
 * ground-truth serialized view.
 */

#ifndef BUTTERFLY_MEMMODEL_INTERLEAVER_HPP
#define BUTTERFLY_MEMMODEL_INTERLEAVER_HPP

#include <vector>

#include "common/rng.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** Memory consistency model to execute under. */
enum class MemModel {
    SequentiallyConsistent,
    TSO, ///< FIFO store buffers; loads may pass older stores
};

/** Scheduling knobs for interleaved execution. */
struct InterleaveConfig
{
    MemModel model = MemModel::SequentiallyConsistent;
    /** Maximum store-buffer entries per thread (TSO only). */
    std::size_t storeBufferDepth = 8;
    /** Probability that a scheduler step drains a store buffer (TSO). */
    double drainProbability = 0.3;
    /**
     * Fairness bound: no thread may run more than this many consecutive
     * steps (0 = unbounded). Bounding the skew keeps executions compatible
     * with heartbeat-delimited epochs.
     */
    std::size_t maxBurst = 0;
    /**
     * Relative execution speeds per thread (empty = uniform). Unequal
     * weights model cores running at different effective speeds, which
     * makes per-thread progress drift apart linearly — harmless for
     * time-based heartbeats, fatal for naive instruction-count epochs
     * (see bench_ablation_window).
     */
    std::vector<double> speedWeights;
};

/**
 * Execute per-thread event programs under the configured model.
 *
 * @param programs  one event sequence per thread, program order; any
 *                  embedded Heartbeat markers are preserved in the output
 *                  trace but take no execution step. Taken by value and
 *                  moved into the trace: a caller that keeps its
 *                  programs passes a copy (an lvalue argument is copied),
 *                  one that does not moves them in and pays no copy
 * @param config    model and scheduling parameters
 * @param rng       scheduling randomness (deterministic per seed)
 * @param order     if not null, receives every event in the order it is
 *                  stamped, which is ascending gseq: what
 *                  Trace::gseqOrder() returns, without its sort (equal
 *                  whenever every event is stamped, i.e. unless the
 *                  barriers deadlock). Its refs point into the returned
 *                  trace's events, so it is valid while that Trace (or
 *                  one moved from it) lives, never for a copy; that is
 *                  why it is kept outside the Trace.
 * @return a Trace whose threads hold the same events in program order with
 *         gseq stamped by global visibility order
 */
Trace interleave(std::vector<std::vector<Event>> programs,
                 const InterleaveConfig &config, Rng &rng,
                 std::vector<GseqRef> *order = nullptr);

} // namespace bfly

#endif // BUTTERFLY_MEMMODEL_INTERLEAVER_HPP
