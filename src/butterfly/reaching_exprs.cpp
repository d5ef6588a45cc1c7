#include "butterfly/reaching_exprs.hpp"

#include "common/logging.hpp"

namespace bfly {

ReachingExpressions::ReachingExpressions(std::size_t num_threads,
                                         ExprExtractor effects)
    : numThreads_(num_threads), effects_(std::move(effects))
{
    sos_.resize(2); // SOS_0 = SOS_1 = empty
}

const ReachingExpressions::BlockPrivate &
ReachingExpressions::priv(EpochId l, ThreadId t) const
{
    ensure(l < blocks_.size() && t < blocks_[l].size(),
           "block results not yet computed");
    return blocks_[l][t];
}

ReachingExpressions::BlockPrivate &
ReachingExpressions::priv(EpochId l, ThreadId t)
{
    if (blocks_.size() <= l)
        blocks_.resize(l + 1);
    if (blocks_[l].size() < numThreads_)
        blocks_[l].resize(numThreads_);
    return blocks_[l][t];
}

void
ReachingExpressions::beginPass(EpochId l, bool second)
{
    // Pre-size the per-epoch block storage before the pass; a resize
    // while blocks run would invalidate references sibling blocks read
    // while computing their LSOS.
    (void)second;
    if (blocks_.size() <= l)
        blocks_.resize(l + 1);
    if (blocks_[l].size() < numThreads_)
        blocks_[l].resize(numThreads_);
}

bool
ReachingExpressions::inGenSpan(ExprId e, EpochId l, ThreadId t) const
{
    // GEN_{(l-1,l),t} = (GEN_{l-1,t} - KILL_{l,t}) U GEN_{l,t}
    const BlockResults &cur = priv(l, t).res;
    if (cur.gen.contains(e))
        return true;
    if (l >= 1 && priv(l - 1, t).res.gen.contains(e) &&
        !cur.kill.contains(e)) {
        return true;
    }
    return false;
}

bool
ReachingExpressions::inNotKillSpan(ExprId e, EpochId l, ThreadId t) const
{
    if (l >= 1 && priv(l - 1, t).res.kill.contains(e))
        return false;
    if (priv(l, t).res.kill.contains(e))
        return false;
    return true;
}

ExprSet
ReachingExpressions::computeLsos(EpochId l, ThreadId t) const
{
    // LSOS_{l,t} = (GEN_{l-1,t} - U_{t'!=t} KILL_{l-2,t'})
    //              U (SOS_l - KILL_{l-1,t})
    ExprSet lsos;
    ensure(l < sos_.size(), "SOS not available for requested epoch");
    if (l == 0)
        return lsos;

    const BlockResults &head = priv(l - 1, t).res;

    for (ExprId e : head.gen) {
        bool killed_by_l2 = false;
        if (l >= 2) {
            for (ThreadId u = 0; u < numThreads_ && !killed_by_l2; ++u) {
                if (u != t && priv(l - 2, u).res.kill.contains(e))
                    killed_by_l2 = true;
            }
        }
        if (!killed_by_l2)
            lsos.insert(e);
    }
    for (ExprId e : sos_[l]) {
        if (!head.kill.contains(e))
            lsos.insert(e);
    }
    return lsos;
}

void
ReachingExpressions::pass1(const BlockView &block)
{
    BlockPrivate &bp = priv(block.epoch, block.thread);
    bp.res = BlockResults{};
    bp.effects.clear();

    // Sequential GEN/KILL over the block: an expression is generated
    // (killed) at block end if its last effect in the block is a gen
    // (kill). KILL-SIDE-OUT accumulates every kill regardless of position.
    ExprSet gen, kill, kso;
    for (InstrOffset i = 0; i < block.size(); ++i) {
        ExprEffect eff = effects_(block.events[i]);
        if (eff.gens.empty() && eff.kills.empty())
            continue;
        for (ExprId e : eff.kills) {
            kill.insert(e);
            gen.erase(e);
            kso.insert(e);
        }
        for (ExprId e : eff.gens) {
            gen.insert(e);
            kill.erase(e);
        }
        bp.effects.emplace_back(i, std::move(eff));
    }
    bp.res.gen = std::move(gen);
    bp.res.kill = std::move(kill);
    bp.res.killSideOut = std::move(kso);

    bp.res.lsos = computeLsos(block.epoch, block.thread);
}

void
ReachingExpressions::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockPrivate &bp = priv(l, t);

    // Meet: KILL-SIDE-IN = union of wing KILL-SIDE-OUTs (epochs l-1..l+1).
    ExprSet side_in;
    const EpochId lo = l >= 1 ? l - 1 : 0;
    for (EpochId w = lo; w <= l + 1 && w < blocks_.size(); ++w) {
        for (ThreadId u = 0; u < numThreads_; ++u) {
            if (u != t && u < blocks_[w].size())
                side_in.unionWith(blocks_[w][u].res.killSideOut);
        }
    }
    bp.res.killSideIn = std::move(side_in);

    // IN = LSOS - KILL-SIDE-IN; OUT = GEN U (IN - KILL).
    bp.res.in = setDifference(bp.res.lsos, bp.res.killSideIn);
    ExprSet out = bp.res.gen;
    for (ExprId e : bp.res.in) {
        if (!bp.res.kill.contains(e))
            out.insert(e);
    }
    bp.res.out = std::move(out);
}

void
ReachingExpressions::finalizeEpoch(EpochId l)
{
    if (killEpoch_.size() <= l) {
        killEpoch_.resize(l + 1);
        genEpoch_.resize(l + 1);
    }

    // KILL_l = U_t KILL_{l,t}
    ExprSet kill;
    for (ThreadId t = 0; t < numThreads_; ++t)
        kill.unionWith(priv(l, t).res.kill);
    killEpoch_[l] = std::move(kill);

    // GEN_l: e is generated by the epoch only if some thread generates it
    // and every other thread generates-or-never-kills it across l-1..l.
    ExprSet gen;
    for (ThreadId t = 0; t < numThreads_; ++t) {
        for (ExprId e : priv(l, t).res.gen) {
            bool all_others = true;
            for (ThreadId u = 0; u < numThreads_; ++u) {
                if (u == t)
                    continue;
                if (!inGenSpan(e, l, u) && !inNotKillSpan(e, l, u)) {
                    all_others = false;
                    break;
                }
            }
            if (all_others)
                gen.insert(e);
        }
    }
    genEpoch_[l] = std::move(gen);

    // SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l).
    ensure(sos_.size() >= l + 2, "SOS pipeline out of order");
    if (sos_.size() == l + 2)
        sos_.resize(l + 3);
    ExprSet next = genEpoch_[l];
    for (ExprId e : sos_[l + 1]) {
        if (!killEpoch_[l].contains(e))
            next.insert(e);
    }
    sos_[l + 2] = std::move(next);
}

const ExprSet &
ReachingExpressions::sos(EpochId l) const
{
    ensure(l < sos_.size(), "SOS not computed for epoch");
    return sos_[l];
}

const ReachingExpressions::BlockResults &
ReachingExpressions::blockResults(EpochId l, ThreadId t) const
{
    return priv(l, t).res;
}

const ExprSet &
ReachingExpressions::genEpoch(EpochId l) const
{
    ensure(l < genEpoch_.size(), "epoch not finalized");
    return genEpoch_[l];
}

const ExprSet &
ReachingExpressions::killEpoch(EpochId l) const
{
    ensure(l < killEpoch_.size(), "epoch not finalized");
    return killEpoch_[l];
}

ExprSet
ReachingExpressions::inAt(EpochId l, ThreadId t, InstrOffset i) const
{
    const BlockPrivate &bp = priv(l, t);
    ExprSet lsos_k = bp.res.lsos;
    for (const auto &[off, eff] : bp.effects) {
        if (off >= i)
            break;
        for (ExprId e : eff.kills)
            lsos_k.erase(e);
        for (ExprId e : eff.gens)
            lsos_k.insert(e);
    }
    return setDifference(lsos_k, bp.res.killSideIn);
}

} // namespace bfly
