/**
 * @file
 * Fundamental identifier and arithmetic types shared across the butterfly
 * analysis library.
 *
 * The naming follows the paper: an *epoch* is a heartbeat-delimited slice of
 * every thread's dynamic trace; a *block* is the portion of one thread's
 * trace inside one epoch, identified by the pair (l, t); an individual
 * dynamic instruction is identified by the triple (l, t, i).
 */

#ifndef BUTTERFLY_COMMON_TYPES_HPP
#define BUTTERFLY_COMMON_TYPES_HPP

#include <cstdint>
#include <limits>

namespace bfly {

/** Simulated virtual address within the monitored application. */
using Addr = std::uint64_t;

/** Application / lifeguard thread identifier. */
using ThreadId = std::uint32_t;

/** Epoch identifier `l`: monotonically increasing, 0-based. */
using EpochId = std::uint64_t;

/** Offset `i` of an instruction from the start of its block. */
using InstrOffset = std::uint32_t;

/** Simulated clock cycles. */
using Cycles = std::uint64_t;

/** Count of dynamic instructions / events. */
using InstrCount = std::uint64_t;

/** Sentinel for "no address". */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Sentinel for "no epoch". */
inline constexpr EpochId kNoEpoch = std::numeric_limits<EpochId>::max();

/** Sentinel for "no thread". */
inline constexpr ThreadId kNoThread = std::numeric_limits<ThreadId>::max();

/**
 * The metadata keys [first, last] of an access, at some number of bytes
 * per key. Never empty; last may be the top key of the address space.
 */
struct KeyRange
{
    Addr first = 0;
    Addr last = 0;

    /** Keys in the range (an access spans at most 2^16 of them). */
    std::uint64_t count() const { return last - first + 1; }

    /** Call @p fn on every key in order; stops after the last one. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (Addr k = first;; ++k) {
            fn(k);
            if (k == last)
                return;
        }
    }
};

/**
 * Keys touched by @p size bytes at @p base (a zero size touches one
 * byte). An access that runs past the top of the address space is cut
 * at its last byte, 2^64 - 1, instead of wrapping around to 0.
 */
inline KeyRange
keyRange(Addr base, std::uint16_t size, unsigned granularity)
{
    const Addr span = size > 0 ? size - 1u : 0u;
    const Addr end = base > kNoAddr - span ? kNoAddr : base + span;
    return KeyRange{base / granularity, end / granularity};
}

} // namespace bfly

#endif // BUTTERFLY_COMMON_TYPES_HPP
