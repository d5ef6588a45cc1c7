/**
 * @file
 * TAINTCHECK: the taint-propagation lifeguard (paper Section 6.2).
 *
 * The butterfly adaptation of reaching definitions with *inheritance*:
 * metadata are SSA-like transfer functions (x_{l,t,i} <- s) where s is
 * taint (bottom), untaint (top), or a set of parent locations the value
 * was computed from. Resolution of a check is a depth-first search over
 * the transfer functions visible in the butterfly (Algorithm 1):
 *
 *  - own-thread state resolves sequentially (local writes, then the head's
 *    resolved LASTCHECK results, then the SOS of tainted addresses);
 *  - wing transfer functions are explored conservatively: if *any*
 *    interleaving permitted by the termination condition taints a parent,
 *    the destination is considered tainted;
 *  - two termination variants: sequential consistency (per-thread position
 *    counters force each thread's contribution to descend in program
 *    order, and body-local taints may only flow into reads at later
 *    offsets) and relaxed (only parent repetition is disallowed);
 *  - checks resolve in two phases (Lemma 6.3): phase one may use wing
 *    transfer functions from epochs l-1 and l, phase two from l and l+1.
 *    Phase-one taint conclusions persist into phase two as *roots*,
 *    computed as a min-cost fixpoint over the phase-one window: each
 *    root records the smallest body offset its taint derivation depends
 *    on (-1 when independent of the body), so phase two can honour the
 *    body's program order under the SC termination condition.
 *
 * The SOS tracks addresses believed tainted, advanced with the reaching-
 * definitions update rule via LASTCHECK (the resolved status of the last
 * write to each address in a block).
 */

#ifndef BUTTERFLY_LIFEGUARDS_TAINTCHECK_HPP
#define BUTTERFLY_LIFEGUARDS_TAINTCHECK_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/addr_set.hpp"
#include "butterfly/ids.hpp"
#include "butterfly/window.hpp"
#include "lifeguards/report.hpp"
#include "lifeguards/taintcheck_oracle.hpp"

namespace bfly {

/** Check-algorithm termination condition (Section 6.2). */
enum class TaintTermination {
    SequentialConsistency, ///< per-thread counters, program-order descent
    Relaxed,               ///< no parent revisited on a path
};

/** Butterfly-analysis TAINTCHECK. Drive with WindowSchedule. */
class ButterflyTaintCheck : public AnalysisDriver
{
  public:
    /** Streaming-friendly: the driver only needs the thread count, so it
     *  can run over an EpochStream without materializing a layout. */
    ButterflyTaintCheck(std::size_t num_threads,
                        const TaintCheckConfig &config,
                        TaintTermination termination =
                            TaintTermination::SequentialConsistency);
    ButterflyTaintCheck(const EpochLayout &layout,
                        const TaintCheckConfig &config,
                        TaintTermination termination =
                            TaintTermination::SequentialConsistency)
        : ButterflyTaintCheck(layout.numThreads(), config, termination)
    {}

    // AnalysisDriver hooks.
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    const ErrorLog &errors() const { return errors_; }

    /** Addresses (keys) currently believed tainted (the SOS). */
    const AddrSet &sosNow() const { return sosCur_; }

    /** Number of Check resolutions performed (cost-model feed). */
    std::uint64_t checksResolved() const { return checksResolved_; }

    /** Checks that ran out of kMaxResolvedPerCheck and fell back to
     *  "assume tainted". Also published per pass-2 block as the counter
     *  bfly.taintcheck.budget_exhausted. */
    std::uint64_t budgetExhausted() const { return budgetExhausted_; }

  private:
    static constexpr std::size_t kWindow = 4;
    static constexpr unsigned kMaxDepth = 128;
    /**
     * Work budget for one Check resolution. kMaxDepth bounds the DFS
     * depth but not its branching: a dense web of Assign copy rules can
     * make the SC inheritance-chain search exponential in the chain
     * length (each wing rule re-explores its parents under a fresh
     * counter ceiling). Past the budget the check gives up the same way
     * the depth cutoff does — assume tainted rather than miss. The
     * traversal order is deterministic, so all schedule modes cut off
     * at the identical point and report-level equivalence is preserved.
     */
    static constexpr std::uint64_t kMaxResolvedPerCheck = 1u << 16;
    /** Root cost meaning "independent of the body block". */
    static constexpr std::int64_t kNoLocal = -1;

    /** Right-hand side of a transfer function. */
    enum class Rhs : std::uint8_t { Taint, Untaint, Copy };

    /** One transfer function (x_{l,t,i} <- s). */
    struct Rule
    {
        InstrOffset i = 0;
        Addr dst = 0;        ///< destination key
        Rhs rhs = Rhs::Copy;
        std::array<Addr, 2> srcs{};
        std::uint8_t nsrc = 0;
    };

    /** Per-block state: pass-1 rules, pass-2 resolved LASTCHECK. */
    struct BlockState
    {
        std::vector<Rule> rules;
        /** dst key -> indices into rules, ascending program order. */
        std::unordered_map<Addr, std::vector<std::size_t>> rulesByKey;
        /** Resolved status of the last write per key (true = tainted). */
        std::unordered_map<Addr, bool> lastCheck;
        /** Keys whose resolved status was tainted at *some* point in
         *  the block — what a concurrent (wing) reader could observe
         *  even if a later write in this block untainted them. */
        AddrSet everTainted;
        EpochId epoch = kNoEpoch;
    };

    BlockState &slot(EpochId l, ThreadId t);
    const BlockState *slotIfValid(EpochId l, ThreadId t) const;

    /** Own-thread base taint status at body entry (LSOS semantics). */
    bool lsosTainted(Addr key, EpochId l, ThreadId t) const;

    /**
     * Taint status as visible to a *wing* reader. The body's own head
     * may have untainted the key, but a concurrent wing instruction can
     * read the pre-head value (the head and the wings are unordered),
     * so a head untaint must not mask an older taint here.
     */
    bool wingVisibleTainted(Addr key, EpochId l, ThreadId t) const;

    /** DFS state for one Check resolution. */
    struct CheckCtx
    {
        EpochId bodyEpoch = 0;
        ThreadId bodyThread = 0;
        EpochId wingLo = 0; ///< phase window: lowest wing epoch usable
        EpochId wingHi = 0; ///< highest wing epoch usable
        /** Offset of the body instruction being resolved; body-local
         *  taints and roots at offsets >= this are unusable under SC. */
        InstrOffset checkOffset = 0;
        /** Latest value per locally-written key (program order). */
        const std::unordered_map<Addr, bool> *localState = nullptr;
        /** Earliest offset at which each key became tainted locally. */
        const std::unordered_map<Addr, InstrOffset> *localTaintOffset =
            nullptr;
        /** Phase-one taint roots: key -> min body offset required. */
        const std::unordered_map<Addr, std::int64_t> *phaseOneRoots =
            nullptr;
        /** SC termination: per-thread position ceilings. */
        std::vector<std::optional<InstrId>> counters;
        /** Relaxed termination: keys on the current path. */
        std::vector<Addr> path;
        unsigned depth = 0;
        /** Resolutions performed through this context (added to
         *  checksResolved_ at the end of its phase). */
        std::uint64_t resolved = 0;
        /** ctx.resolved at the start of the current check (budget base). */
        std::uint64_t budgetMark = 0;
        /** Checks whose search hit the budget. The fallback answers
         *  "tainted", which ends the check, so it fires once per check. */
        std::uint64_t exhausted = 0;
    };

    /** Could @p key be tainted under some permitted interleaving? */
    bool resolveKey(Addr key, CheckCtx &ctx);

    /** Explore wing transfer functions writing @p key. */
    bool wingsTaint(Addr key, CheckCtx &ctx);

    /**
     * Min-cost taint fixpoint over the phase-one window: for every key
     * written by a wing rule or tainted by the body, the smallest body
     * offset its taint depends on (kNoLocal if none). Ignores the SC
     * counters, so it over-approximates taint — sound for roots.
     */
    std::unordered_map<Addr, std::int64_t>
    phaseOneFixpoint(EpochId l, ThreadId t, EpochId wing_lo,
                     EpochId wing_hi,
                     const std::unordered_map<Addr, InstrOffset>
                         &local_taint_offset) const;

    TaintCheckConfig config_;
    TaintTermination termination_;

    std::vector<std::array<BlockState, kWindow>> blocks_; ///< [t]

    AddrSet sosPrev_; ///< SOS_l   while pass 2 of epoch l runs
    AddrSet sosCur_;  ///< SOS_{l+1} (already advanced by finalize(l-1))

    ErrorLog errors_;
    std::uint64_t checksResolved_ = 0;
    std::uint64_t budgetExhausted_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_TAINTCHECK_HPP
