#include "lifeguards/lockset.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace bfly {

namespace {

/**
 * The single memory access an event performs, for LOCKSET purposes.
 * Each event charges exactly ONE variable key (its primary address):
 * Assign sources are deliberately not treated as separate accesses so
 * that distinct variable keys never share a flagged event — the
 * ErrorLog coalesces by (tid, index), and one-key-per-event keeps the
 * butterfly's and the oracle's reports 1:1 with racy variables on both
 * sides of the diff.
 */
bool
accessOf(const Event &e, Addr &addr, bool &write)
{
    switch (e.kind) {
      case EventKind::Read:
      case EventKind::Use:
      case EventKind::Output:
        addr = e.addr;
        write = false;
        return true;
      case EventKind::Write:
      case EventKind::Assign:
        addr = e.addr;
        write = true;
        return true;
      default:
        return false;
    }
}

} // namespace

ButterflyLockSet::ButterflyLockSet(std::size_t num_threads,
                                   const LockSetConfig &config)
    : config_(config), summaries_(num_threads), entry_(num_threads, 0)
{
    ensure(config_.granularity > 0, "granularity must be positive");
}

ButterflyLockSet::BlockSummary &
ButterflyLockSet::slot(EpochId l, ThreadId t)
{
    return summaries_[t][l % kWindow];
}

const ButterflyLockSet::BlockSummary *
ButterflyLockSet::slotIfValid(EpochId l, ThreadId t) const
{
    const BlockSummary &s = summaries_[t][l % kWindow];
    return s.epoch == l ? &s : nullptr;
}

void
ButterflyLockSet::pass1(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockSummary &s = slot(l, t);
    s = BlockSummary{};
    s.epoch = l;

    // Replay the block's lock operations, tracking which mask bits the
    // prefix has pinned (set/clear) — everything else is inherited from
    // the unknown epoch-entry state E.
    std::uint64_t set_prefix = 0;
    std::uint64_t clear_prefix = 0;

    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];

        if (e.kind == EventKind::Lock) {
            const std::uint64_t bit = LockSetConfig::lockBit(e.addr);
            set_prefix |= bit;
            clear_prefix &= ~bit;
            continue;
        }
        if (e.kind == EventKind::Unlock) {
            const std::uint64_t bit = LockSetConfig::lockBit(e.addr);
            clear_prefix |= bit;
            set_prefix &= ~bit;
            continue;
        }

        Addr addr = kNoAddr;
        bool write = false;
        if (!accessOf(e, addr, write) || !config_.monitored(addr))
            continue;

        // This access holds, as a function of the entry mask E:
        //   set_prefix | (E & ~touched)
        const std::uint64_t touched = set_prefix | clear_prefix;
        const Addr key = config_.keyOf(addr);
        auto [it, fresh] = s.keys.emplace(key, KeyAccess{});
        KeyAccess &ka = it->second;
        if (fresh) {
            ka.one = set_prefix;
            ka.pass = ~touched;
            ka.first = i;
        } else {
            // Intersect with the running fold one | (E & pass): a bit
            // survives iff both sides hold it for the same E.
            const std::uint64_t r1 = ka.one & set_prefix;
            const std::uint64_t re =
                (ka.one | ka.pass) & (set_prefix | ~touched) & ~r1;
            ka.one = r1;
            ka.pass = re;
        }
        ka.wrote = ka.wrote || write;
    }

    s.setMask = set_prefix;
    s.clearMask = clear_prefix;
}

bool
ButterflyLockSet::otherThreadSeen(Addr key, ThreadId t, EpochId l) const
{
    auto it = keyState_.find(key);
    if (it != keyState_.end() && it->second.seen &&
        (it->second.multi || it->second.firstThread != t)) {
        return true;
    }
    // Epochs not yet folded into the cumulative state: scan the ring.
    for (EpochId w = nextAbsorb_; w <= l + 1; ++w) {
        for (ThreadId u = 0; u < summaries_.size(); ++u) {
            if (u == t)
                continue;
            const BlockSummary *s = slotIfValid(w, u);
            if (s && s->keys.count(key))
                return true;
        }
    }
    return false;
}

void
ButterflyLockSet::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockSummary &s = slot(l, t);

    // Resolve each variable's contribution against the exact entry lock
    // state E_{l,t} (finalizeEpoch(l-1) published it; the strict
    // schedule keeps it stable for the whole pass). An access stays in
    // Eraser's exclusive phase only while no other thread has touched
    // the variable anywhere the access could have raced — conservatively,
    // any epoch <= l+1.
    const std::uint64_t entry = entry_[t];
    s.resolved.clear();
    s.resolved.reserve(s.keys.size());
    for (const auto &[key, ka] : s.keys) {
        Resolved r;
        r.key = key;
        r.lockset = ka.one | (entry & ka.pass);
        r.index = block.first + ka.first;
        r.wrote = ka.wrote;
        r.exempt = !otherThreadSeen(key, t, l);
        s.resolved.push_back(r);
    }
    std::sort(s.resolved.begin(), s.resolved.end(),
              [](const Resolved &a, const Resolved &b) {
                  return a.key < b.key;
              });
}

void
ButterflyLockSet::finalizeEpoch(EpochId l)
{
    const std::size_t nthreads = summaries_.size();

    // Fold the window's accessor sets into the cumulative per-variable
    // state (pass 1 of epoch l+1 has completed under the strict
    // schedule, so its summaries are valid here).
    for (EpochId w = nextAbsorb_; w <= l + 1; ++w) {
        for (ThreadId u = 0; u < nthreads; ++u) {
            const BlockSummary *s = slotIfValid(w, u);
            if (!s)
                continue;
            for (const auto &[key, ka] : s->keys) {
                (void)ka;
                KeyState &ks = keyState_[key];
                if (!ks.seen) {
                    ks.seen = true;
                    ks.firstThread = u;
                } else if (ks.firstThread != u) {
                    ks.multi = true;
                }
            }
        }
    }
    nextAbsorb_ = l + 2;

    // Meet epoch l's resolved contributions in canonical order (thread
    // ascending, key ascending within a block) so reports are identical
    // across every scheduling mode.
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockSummary *s = slotIfValid(l, t);
        if (!s)
            continue;
        for (const Resolved &r : s->resolved) {
            if (r.exempt)
                continue;
            KeyState &ks = keyState_[r.key];
            ks.shared = true;
            ks.candidate &= r.lockset;
            ks.sharedWrite = ks.sharedWrite || r.wrote;
            if (!ks.reported && ks.sharedWrite && ks.candidate == 0) {
                ks.reported = true;
                errors_.report(t, r.index, r.key * config_.granularity,
                               ErrorKind::DataRace,
                               static_cast<std::uint16_t>(
                                   config_.granularity));
            }
        }
    }

    // Chain the exact per-thread lock state into epoch l+1's entry.
    for (ThreadId t = 0; t < nthreads; ++t) {
        if (const BlockSummary *s = slotIfValid(l, t)) {
            entry_[t] = (entry_[t] & ~(s->setMask | s->clearMask)) |
                        s->setMask;
        }
    }
}

LockSetOracle::LockSetOracle(const LockSetConfig &config) : config_(config)
{
    ensure(config_.granularity > 0, "granularity must be positive");
}

void
LockSetOracle::processOne(ThreadId tid, std::uint64_t index, const Event &e)
{
    if (e.kind == EventKind::Lock) {
        held_[tid] |= LockSetConfig::lockBit(e.addr);
        return;
    }
    if (e.kind == EventKind::Unlock) {
        held_[tid] &= ~LockSetConfig::lockBit(e.addr);
        return;
    }

    Addr addr = kNoAddr;
    bool write = false;
    if (!accessOf(e, addr, write) || !config_.monitored(addr))
        return;

    const Addr key = config_.keyOf(addr);
    VarState &v = vars_[key];
    if (!v.seen) {
        // First accessor: Eraser's exclusive (initialization) phase.
        v.seen = true;
        v.firstThread = tid;
        return;
    }
    if (!v.shared) {
        if (tid == v.firstThread)
            return; // still exclusive
        v.shared = true; // second thread arrives: intersect from here on
    }

    auto held = held_.find(tid);
    v.candidate &= held == held_.end() ? 0 : held->second;
    v.sharedWrite = v.sharedWrite || write;
    if (!v.reported && v.sharedWrite && v.candidate == 0) {
        v.reported = true;
        errors_.report(tid, index, key * config_.granularity,
                       ErrorKind::DataRace,
                       static_cast<std::uint16_t>(config_.granularity));
    }
}

void
LockSetOracle::runOnTrace(const Trace &trace)
{
    for (const GseqRef &r : trace.gseqOrder())
        processOne(trace.threads[r.thread].tid, r.index, *r.event);
}

} // namespace bfly
