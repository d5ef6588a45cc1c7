#include "butterfly/reaching_defs.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hpp"

namespace bfly {

std::optional<Addr>
defaultDefines(const Event &e)
{
    switch (e.kind) {
      case EventKind::Write:
      case EventKind::Assign:
      case EventKind::TaintSrc:
      case EventKind::Untaint:
        return e.addr;
      default:
        return std::nullopt;
    }
}

ReachingDefinitions::ReachingDefinitions(std::size_t num_threads,
                                         DefineExtractor defines)
    : numThreads_(num_threads), defines_(std::move(defines))
{
    // SOS_0 = SOS_1 = empty (paper Section 5.1.2).
    sos_.resize(2);
}

const ReachingDefinitions::BlockPrivate &
ReachingDefinitions::priv(EpochId l, ThreadId t) const
{
    ensure(l < blocks_.size() && t < blocks_[l].size(),
           "block results not yet computed");
    return blocks_[l][t];
}

ReachingDefinitions::BlockPrivate &
ReachingDefinitions::priv(EpochId l, ThreadId t)
{
    if (blocks_.size() <= l)
        blocks_.resize(l + 1);
    if (blocks_[l].size() < numThreads_)
        blocks_[l].resize(numThreads_);
    return blocks_[l][t];
}

bool
ReachingDefinitions::inKillBlock(DefId d, EpochId l, ThreadId t) const
{
    if (l >= blocks_.size())
        return false;
    const BlockResults &res = priv(l, t).res;
    return res.killAddrs.contains(locOf(d)) && !res.gen.contains(d);
}

bool
ReachingDefinitions::inKillSpan(DefId d, EpochId l, ThreadId t) const
{
    // KILL_{(l-1,l),t} = (KILL_{l-1,t} - GEN_{l,t}) U KILL_{l,t}
    const bool gen_in_l =
        l < blocks_.size() && priv(l, t).res.gen.contains(d);
    if (l >= 1 && inKillBlock(d, l - 1, t) && !gen_in_l)
        return true;
    return inKillBlock(d, l, t);
}

bool
ReachingDefinitions::inNotGenSpan(DefId d, EpochId l, ThreadId t) const
{
    // NOT-GEN_{(l-1,l),t}: not generated (surviving) in epoch l-1 nor l.
    if (l >= 1 && l - 1 < blocks_.size() &&
        priv(l - 1, t).res.gen.contains(d)) {
        return false;
    }
    if (l < blocks_.size() && priv(l, t).res.gen.contains(d))
        return false;
    return true;
}

DefSet
ReachingDefinitions::computeLsos(EpochId l, ThreadId t) const
{
    DefSet lsos;
    if (l >= sos_.size())
        panic("SOS not available for requested epoch");
    const DefSet &sos_l = sos_[l];

    if (l == 0)
        return lsos; // no head, SOS_0 empty

    const BlockResults &head = priv(l - 1, t).res;

    // GEN_{l-1,t}
    lsos.unionWith(head.gen);

    for (DefId d : sos_l) {
        if (!inKillBlock(d, l - 1, t)) {
            // SOS_l - KILL_{l-1,t}
            lsos.insert(d);
            continue;
        }
        // Head killed d; it still reaches if another thread regenerated it
        // in epoch l-2, which may interleave after the head (adjacency).
        if (l >= 2) {
            for (ThreadId u = 0; u < numThreads_; ++u) {
                if (u != t && priv(l - 2, u).res.gen.contains(d)) {
                    lsos.insert(d);
                    break;
                }
            }
        }
    }
    return lsos;
}

void
ReachingDefinitions::pass1(const BlockView &block)
{
    BlockPrivate &bp = priv(block.epoch, block.thread);
    bp.res = BlockResults{};
    bp.defs.clear();

    // Last surviving definition per address (for GEN_{l,t}).
    std::unordered_map<Addr, DefId> last_def;

    for (InstrOffset i = 0; i < block.size(); ++i) {
        const auto target = defines_(block.events[i]);
        if (!target)
            continue;
        const DefId d =
            InstrId{block.epoch, block.thread, i}.pack();
        bp.defs.emplace_back(i, *target);
        bp.res.sideOut.insert(d); // generating is global (Section 5.1)
        bp.res.killAddrs.insert(*target);
        last_def[*target] = d;
    }
    for (const auto &[addr, d] : last_def)
        bp.res.gen.insert(d);

    bp.res.lsos = computeLsos(block.epoch, block.thread);
}

void
ReachingDefinitions::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockPrivate &bp = priv(l, t);

    // Meet: GEN-SIDE-IN = union of wing side-outs (epochs l-1..l+1).
    DefSet side_in;
    const EpochId lo = l >= 1 ? l - 1 : 0;
    for (EpochId w = lo; w <= l + 1 && w < blocks_.size(); ++w) {
        for (ThreadId u = 0; u < numThreads_; ++u) {
            if (u != t && u < blocks_[w].size())
                side_in.unionWith(blocks_[w][u].res.sideOut);
        }
    }
    bp.res.genSideIn = std::move(side_in);

    // IN = GEN-SIDE-IN U LSOS; OUT = GEN U (IN - KILL).
    bp.res.in = setUnion(bp.res.genSideIn, bp.res.lsos);
    DefSet out = bp.res.gen;
    for (DefId d : bp.res.in) {
        if (!inKillBlock(d, l, t))
            out.insert(d);
    }
    bp.res.out = std::move(out);
}

void
ReachingDefinitions::finalizeEpoch(EpochId l)
{
    if (genEpoch_.size() <= l)
        genEpoch_.resize(l + 1);
    DefSet gen;
    for (ThreadId t = 0; t < numThreads_; ++t)
        gen.unionWith(priv(l, t).res.gen);
    genEpoch_[l] = std::move(gen);

    // SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l).
    ensure(sos_.size() >= l + 2, "SOS pipeline out of order");
    if (sos_.size() == l + 2)
        sos_.resize(l + 3);
    DefSet next = genEpoch_[l];
    for (DefId d : sos_[l + 1]) {
        if (!inKillEpoch(d, l))
            next.insert(d);
    }
    sos_[l + 2] = std::move(next);
}

const DefSet &
ReachingDefinitions::sos(EpochId l) const
{
    ensure(l < sos_.size(), "SOS not computed for epoch");
    return sos_[l];
}

const ReachingDefinitions::BlockResults &
ReachingDefinitions::blockResults(EpochId l, ThreadId t) const
{
    return priv(l, t).res;
}

const DefSet &
ReachingDefinitions::genEpoch(EpochId l) const
{
    ensure(l < genEpoch_.size(), "epoch not finalized");
    return genEpoch_[l];
}

bool
ReachingDefinitions::inKillEpoch(DefId d, EpochId l) const
{
    // d in KILL_l iff some thread kills d at block level and every *other*
    // thread kills-or-never-generates d across epochs l-1..l (the paper's
    // prose and Lemma 5.1 proof use "for all other threads").
    for (ThreadId t = 0; t < numThreads_; ++t) {
        if (!inKillBlock(d, l, t))
            continue;
        bool all_others = true;
        for (ThreadId u = 0; u < numThreads_; ++u) {
            if (u == t)
                continue;
            if (!inKillSpan(d, l, u) && !inNotGenSpan(d, l, u)) {
                all_others = false;
                break;
            }
        }
        if (all_others)
            return true;
    }
    return false;
}

Addr
ReachingDefinitions::locOf(DefId d) const
{
    // The id itself names the defining block; its (offset, addr) pairs
    // are recorded in program order, so a binary search replaces the old
    // globally-shared DefId->Addr map (which raced when blocks ran
    // concurrently and cost a hash lookup per query).
    const InstrId id = InstrId::unpack(d);
    ensure(id.l < blocks_.size() && id.t < blocks_[id.l].size(),
           "unknown definition id");
    const auto &defs = blocks_[id.l][id.t].defs;
    auto it = std::lower_bound(
        defs.begin(), defs.end(), id.i,
        [](const auto &p, InstrOffset i) { return p.first < i; });
    ensure(it != defs.end() && it->first == id.i, "unknown definition id");
    return it->second;
}

DefSet
ReachingDefinitions::inAt(EpochId l, ThreadId t, InstrOffset i) const
{
    const BlockPrivate &bp = priv(l, t);
    // LSOS_{l,t,k} = GEN_{l,t,k} U (LSOS_{l,t,k-1} - KILL_{l,t,k})
    DefSet lsos_k = bp.res.lsos;
    for (const auto &[off, addr] : bp.defs) {
        if (off >= i)
            break;
        std::vector<DefId> to_erase;
        for (DefId d : lsos_k) {
            if (locOf(d) == addr)
                to_erase.push_back(d);
        }
        for (DefId d : to_erase)
            lsos_k.erase(d);
        lsos_k.insert(InstrId{l, t, off}.pack());
    }
    // IN_{l,t,i} = GEN-SIDE-IN_{l,t} U LSOS_{l,t,i}
    return setUnion(bp.res.genSideIn, lsos_k);
}

} // namespace bfly
