/**
 * @file
 * Dynamic parallel reaching definitions (paper Section 5.1).
 *
 * The canonical *may* analysis: a definition d_k reaches a point p if there
 * exists a valid ordering under which d_k reaches p. Definitions are dynamic
 * instruction instances (l, t, i) defining a location; killing a definition
 * is any other write to its location.
 *
 * Faithful to the paper's equations:
 *   - generating is global (GEN-SIDE-OUT visible to the whole wings);
 *     killing is local (KILL-SIDE-OUT conservatively "everything", unused);
 *   - GEN_l  = U_t GEN_{l,t};
 *   - KILL_l = U_t (KILL_{l,t} restricted to defs that every other thread
 *     kills-or-never-generates across epochs l-1..l);
 *   - SOS_l invariant: d in SOS_l iff some valid ordering O_{l-2} ends with
 *     d defined (Lemma 5.2);
 *   - LSOS folds in the head, resurrecting SOS defs the head killed that
 *     another thread regenerated in epoch l-2 (head/l-2 adjacency).
 *
 * This class retains per-block results for the whole run so tests and the
 * demonstration lifeguards can query IN/OUT anywhere; production lifeguards
 * (AddrCheck/TaintCheck) use their own windowed state instead.
 */

#ifndef BUTTERFLY_BUTTERFLY_REACHING_DEFS_HPP
#define BUTTERFLY_BUTTERFLY_REACHING_DEFS_HPP

#include <functional>
#include <optional>
#include <vector>

#include "common/addr_set.hpp"
#include "butterfly/ids.hpp"
#include "butterfly/window.hpp"

namespace bfly {

/** Packed InstrId of a defining instruction. */
using DefId = std::uint64_t;
using DefSet = FlatSet<DefId>;

/** Maps an event to the location it defines (nullopt: defines nothing). */
using DefineExtractor = std::function<std::optional<Addr>(const Event &)>;

/** The default extractor: any store-like event defines its target. */
std::optional<Addr> defaultDefines(const Event &e);

/** Butterfly reaching definitions over a dynamic parallel trace. */
class ReachingDefinitions : public AnalysisDriver
{
  public:
    /** Per-block dataflow results (paper notation in comments). */
    struct BlockResults
    {
        DefSet gen;        ///< GEN_{l,t}: defs surviving to block end
        DefSet sideOut;    ///< GEN-SIDE-OUT_{l,t}: every def in the block
        AddrSet killAddrs; ///< locations the block writes (its KILL basis)
        DefSet lsos;       ///< LSOS_{l,t} at block entry
        DefSet genSideIn;  ///< GEN-SIDE-IN_{l,t} (meet of wing side-outs)
        DefSet in;         ///< IN_{l,t}
        DefSet out;        ///< OUT_{l,t}
    };

    explicit ReachingDefinitions(std::size_t num_threads,
                                 DefineExtractor defines = defaultDefines);

    // AnalysisDriver hooks (invoked by WindowSchedule).
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    /** SOS_l. Valid for l <= (last finalized epoch) + 2. */
    const DefSet &sos(EpochId l) const;

    /** Results of block (l, t) (after its pass 2). */
    const BlockResults &blockResults(EpochId l, ThreadId t) const;

    /** GEN_l: epoch-level generate set (after finalizeEpoch(l)). */
    const DefSet &genEpoch(EpochId l) const;

    /** Membership in KILL_l: true iff d is dead under every O_l. */
    bool inKillEpoch(DefId d, EpochId l) const;

    /** Location defined by @p d. @pre d was seen during the run. */
    Addr locOf(DefId d) const;

    /**
     * IN_{l,t,i}: definitions reaching instruction i of the block,
     * recomputed on demand from the recorded block events.
     */
    DefSet inAt(EpochId l, ThreadId t, InstrOffset i) const;

    std::size_t numThreads() const { return numThreads_; }

  private:
    struct BlockPrivate
    {
        BlockResults res;
        /** (offset, addr) of each defining instruction, program order. */
        std::vector<std::pair<InstrOffset, Addr>> defs;
    };

    const BlockPrivate &priv(EpochId l, ThreadId t) const;
    BlockPrivate &priv(EpochId l, ThreadId t);

    /** d in KILL_{l,t} (sequential block kill, surviving-GEN excluded). */
    bool inKillBlock(DefId d, EpochId l, ThreadId t) const;

    /** d in KILL_{(l-1,l),t} = (KILL_{l-1,t} - GEN_{l,t}) U KILL_{l,t}. */
    bool inKillSpan(DefId d, EpochId l, ThreadId t) const;

    /** d in NOT-GEN_{(l-1,l),t}. */
    bool inNotGenSpan(DefId d, EpochId l, ThreadId t) const;

    DefSet computeLsos(EpochId l, ThreadId t) const;

    std::size_t numThreads_;
    DefineExtractor defines_;
    std::vector<std::vector<BlockPrivate>> blocks_; ///< [l][t]
    std::vector<DefSet> sos_;                       ///< [l]
    std::vector<DefSet> genEpoch_;                  ///< [l]
};

} // namespace bfly

#endif // BUTTERFLY_BUTTERFLY_REACHING_DEFS_HPP
