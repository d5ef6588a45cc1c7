/**
 * @file
 * Dynamic parallel reaching expressions (paper Section 5.2).
 *
 * The canonical *must* analysis, dual to reaching definitions: an expression
 * e reaches a point p only if it reaches p under *every* valid ordering.
 * Killing is global (KILL-SIDE-OUT is the union of every kill anywhere in
 * the block, since the body can interleave between any two wing
 * instructions); generating is local (GEN-SIDE-OUT is empty — no block can
 * know that every path generated e).
 *
 * Expressions are abstract 64-bit ids; the instantiation supplies an
 * extractor describing which expressions each event generates and kills.
 * ADDRCHECK (Section 6.1) instantiates this analysis with
 * "e = address is allocated": alloc generates, free kills.
 */

#ifndef BUTTERFLY_BUTTERFLY_REACHING_EXPRS_HPP
#define BUTTERFLY_BUTTERFLY_REACHING_EXPRS_HPP

#include <functional>
#include <vector>

#include "common/addr_set.hpp"
#include "butterfly/ids.hpp"
#include "butterfly/window.hpp"

namespace bfly {

/** Abstract expression identifier. */
using ExprId = std::uint64_t;
using ExprSet = FlatSet<ExprId>;

/** Expressions an event generates and kills. */
struct ExprEffect
{
    std::vector<ExprId> gens;
    std::vector<ExprId> kills;
};

using ExprExtractor = std::function<ExprEffect(const Event &)>;

/** Butterfly reaching expressions over a dynamic parallel trace. */
class ReachingExpressions : public AnalysisDriver
{
  public:
    struct BlockResults
    {
        ExprSet gen;         ///< GEN_{l,t}: available at block end
        ExprSet kill;        ///< KILL_{l,t}: killed at block end
        ExprSet killSideOut; ///< KILL-SIDE-OUT_{l,t}: killed anywhere
        ExprSet lsos;        ///< LSOS_{l,t} at block entry
        ExprSet killSideIn;  ///< KILL-SIDE-IN_{l,t} (union of wing KSOs)
        ExprSet in;          ///< IN_{l,t} = LSOS - KILL-SIDE-IN
        ExprSet out;         ///< OUT_{l,t}
    };

    ReachingExpressions(std::size_t num_threads, ExprExtractor effects);

    // AnalysisDriver hooks.
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    const ExprSet &sos(EpochId l) const;
    const BlockResults &blockResults(EpochId l, ThreadId t) const;
    const ExprSet &genEpoch(EpochId l) const;
    const ExprSet &killEpoch(EpochId l) const;

    /** IN_{l,t,i} = LSOS_{l,t,i} - KILL-SIDE-IN_{l,t}, on demand. */
    ExprSet inAt(EpochId l, ThreadId t, InstrOffset i) const;

    std::size_t numThreads() const { return numThreads_; }

  private:
    struct BlockPrivate
    {
        BlockResults res;
        /** (offset, effect) for instructions with effects, program order. */
        std::vector<std::pair<InstrOffset, ExprEffect>> effects;
    };

    const BlockPrivate &priv(EpochId l, ThreadId t) const;
    BlockPrivate &priv(EpochId l, ThreadId t);

    /** e in GEN_{(l-1,l),t} = (GEN_{l-1,t} - KILL_{l,t}) U GEN_{l,t}. */
    bool inGenSpan(ExprId e, EpochId l, ThreadId t) const;

    /** e in NOT-KILL_{(l-1,l),t}. */
    bool inNotKillSpan(ExprId e, EpochId l, ThreadId t) const;

    ExprSet computeLsos(EpochId l, ThreadId t) const;

    std::size_t numThreads_;
    ExprExtractor effects_;
    std::vector<std::vector<BlockPrivate>> blocks_; ///< [l][t]
    std::vector<ExprSet> sos_;
    std::vector<ExprSet> genEpoch_;
    std::vector<ExprSet> killEpoch_;
};

} // namespace bfly

#endif // BUTTERFLY_BUTTERFLY_REACHING_EXPRS_HPP
