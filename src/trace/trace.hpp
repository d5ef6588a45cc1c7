/**
 * @file
 * Per-thread dynamic traces and the whole-program trace container.
 *
 * A Trace is the input to every monitoring mode: the butterfly lifeguards
 * consume the per-thread sequences independently (plus heartbeats), the
 * timesliced baseline consumes a serialized merge, and the oracles consume
 * the true interleaving recovered from the events' global sequence numbers.
 */

#ifndef BUTTERFLY_TRACE_TRACE_HPP
#define BUTTERFLY_TRACE_TRACE_HPP

#include <cstddef>
#include <vector>

#include "trace/event.hpp"

namespace bfly {

/** The dynamic event sequence of a single application thread. */
struct ThreadTrace
{
    ThreadId tid = 0;
    std::vector<Event> events;

    /** Events excluding heartbeat markers. */
    std::size_t instructionCount() const;

    /** Memory-access events (the denominator of the paper's Fig. 13). */
    std::size_t memoryAccessCount() const;
};

/** One event's place in the true execution order (Trace::gseqOrder). */
struct GseqRef
{
    const Event *event = nullptr;
    ThreadId thread = 0;     ///< position in Trace::threads
    std::uint32_t index = 0; ///< per-thread instruction index
};

/** A complete multithreaded program trace. */
struct Trace
{
    std::vector<ThreadTrace> threads;

    std::size_t numThreads() const { return threads.size(); }

    std::size_t instructionCount() const;
    std::size_t memoryAccessCount() const;

    /**
     * Every non-heartbeat event in the actual execution order: ascending
     * gseq, with equal gseqs kept in thread-then-index order (what a
     * stable sort of the threads' concatenation gives). An LSD radix
     * sort over gseq - min, so the cost is linear in the event count
     * for any gseq range: one counting pass when the range is within
     * about twice the event count (gseqs from one interleaving are), at
     * most eight otherwise. The refs point into this trace.
     */
    std::vector<GseqRef> gseqOrder() const;

    /**
     * Merge all threads round-robin (one event at a time), the way a
     * timesliced monitor on one core would see them if the OS rotated
     * threads at every quantum boundary. Heartbeats are dropped.
     */
    std::vector<std::pair<ThreadId, Event>>
    serializedRoundRobin(std::size_t quantum = 1) const;
};

} // namespace bfly

#endif // BUTTERFLY_TRACE_TRACE_HPP
