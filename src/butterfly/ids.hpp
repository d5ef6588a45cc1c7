/**
 * @file
 * Dynamic instruction identifiers (l, t, i) and the strictly-before order.
 *
 * The paper names a dynamic instruction by its epoch l, thread t and offset
 * i within block (l, t). TAINTCHECK's SSA-like transfer functions use these
 * tuples as variable subscripts, and its Check algorithm needs the
 * "occurs strictly before" relation of Section 6.2.
 */

#ifndef BUTTERFLY_BUTTERFLY_IDS_HPP
#define BUTTERFLY_BUTTERFLY_IDS_HPP

#include <compare>
#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace bfly {

/** Identifier of a dynamic instruction instance. */
struct InstrId
{
    EpochId l = 0;
    ThreadId t = 0;
    InstrOffset i = 0;

    auto operator<=>(const InstrId &) const = default;

    /**
     * Pack into one 64-bit key for set membership: 24 bits of epoch,
     * 8 bits of thread, 32 bits of offset. Sufficient for any run this
     * library simulates; checked in debug builds.
     */
    std::uint64_t
    pack() const
    {
        return (static_cast<std::uint64_t>(l & 0xffffff) << 40) |
               (static_cast<std::uint64_t>(t & 0xff) << 32) |
               static_cast<std::uint64_t>(i);
    }

    static InstrId
    unpack(std::uint64_t key)
    {
        return InstrId{static_cast<EpochId>(key >> 40),
                       static_cast<ThreadId>((key >> 32) & 0xff),
                       static_cast<InstrOffset>(key & 0xffffffff)};
    }

    std::string
    toString() const
    {
        std::string s = "(";
        s += std::to_string(l);
        s += ',';
        s += std::to_string(t);
        s += ',';
        s += std::to_string(i);
        s += ')';
        return s;
    }
};

/**
 * The paper's "occurs strictly before" relation (Section 6.2).
 *
 * (l,t,i) < (l',t',i') holds if:
 *   - l <= l' - 2 (non-adjacent epochs are ordered by construction), or
 *   - under sequential consistency only: same thread and earlier in
 *     program order.
 */
inline bool
strictlyBefore(const InstrId &a, const InstrId &b,
               bool sequentially_consistent)
{
    if (a.l + 2 <= b.l)
        return true;
    if (!sequentially_consistent)
        return false;
    if (a.t != b.t)
        return false;
    if (a.l != b.l)
        return a.l < b.l;
    return a.i < b.i;
}

/** Relative position of an epoch within a butterfly with body epoch l. */
enum class WingPosition {
    BeforeWindow, ///< epoch <= l-2: strictly ordered before the body
    Head,         ///< epoch l-1, same thread
    Body,         ///< epoch l, same thread
    Tail,         ///< epoch l+1, same thread
    Wings,        ///< epochs l-1..l+1, other thread
    AfterWindow,  ///< epoch >= l+2: strictly ordered after the body
};

/** Classify block (bl, bt) relative to a butterfly with body (l, t). */
inline WingPosition
classify(EpochId l, ThreadId t, EpochId bl, ThreadId bt)
{
    if (bl + 2 <= l)
        return WingPosition::BeforeWindow;
    if (bl >= l + 2)
        return WingPosition::AfterWindow;
    if (bt != t)
        return WingPosition::Wings;
    if (bl == l)
        return WingPosition::Body;
    return bl < l ? WingPosition::Head : WingPosition::Tail;
}

} // namespace bfly

#endif // BUTTERFLY_BUTTERFLY_IDS_HPP
