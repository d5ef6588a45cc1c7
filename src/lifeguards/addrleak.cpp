#include "lifeguards/addrleak.hpp"

#include "common/logging.hpp"

namespace bfly {

ButterflyAddrLeak::ButterflyAddrLeak(std::size_t num_threads,
                                     const AddrLeakConfig &config)
    : config_(config), states_(num_threads)
{
    ensure(config_.granularity > 0, "granularity must be positive");
}

ButterflyAddrLeak::BlockState &
ButterflyAddrLeak::slotRef(EpochId l, ThreadId t)
{
    return states_[t][l % kWindow];
}

const ButterflyAddrLeak::BlockState *
ButterflyAddrLeak::slotIfValid(EpochId l, ThreadId t) const
{
    const BlockState &s = states_[t][l % kWindow];
    return s.epoch == l ? &s : nullptr;
}

void
ButterflyAddrLeak::pass1(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockState &s = slotRef(l, t);
    s = BlockState{};
    s.epoch = l;

    auto push = [&](InstrOffset i, Addr dst_key, RuleKind kind,
                    const Addr *srcs, std::uint8_t nsrc) {
        Rule r;
        r.offset = i;
        r.dst = dst_key;
        r.kind = kind;
        r.nsrc = nsrc;
        for (std::uint8_t n = 0; n < nsrc; ++n)
            r.src[n] = srcs[n];
        s.rulesByKey[dst_key].push_back(s.rules.size());
        s.rules.push_back(r);
    };

    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        switch (e.kind) {
          case EventKind::Alloc:
            // The allocation returns a heap pointer into its base cell.
            if (config_.monitored(e.addr))
                push(i, config_.keyOf(e.addr), RuleKind::Gen, nullptr, 0);
            break;

          case EventKind::Write:
          case EventKind::TaintSrc:
          case EventKind::Untaint:
            // Plain data overwrites the cell: any pointer value is gone.
            if (config_.monitored(e.addr))
                push(i, config_.keyOf(e.addr), RuleKind::Kill, nullptr, 0);
            break;

          case EventKind::Assign: {
            if (!config_.monitored(e.addr))
                break;
            const Addr raw[2] = {e.src0, e.src1};
            Addr srcs[2];
            std::uint8_t nsrc = 0;
            for (unsigned n = 0; n < e.nsrc; ++n)
                if (config_.monitored(raw[n]))
                    srcs[nsrc++] = config_.keyOf(raw[n]);
            // A copy purely from untracked memory cannot carry a heap
            // pointer — it degenerates to a kill.
            if (nsrc == 0)
                push(i, config_.keyOf(e.addr), RuleKind::Kill, nullptr, 0);
            else
                push(i, config_.keyOf(e.addr), RuleKind::Copy, srcs, nsrc);
            break;
          }

          case EventKind::Output:
            if (config_.monitored(e.addr)) {
                Check c;
                c.offset = i;
                c.addr = e.addr;
                c.key = config_.keyOf(e.addr);
                c.size = e.size;
                s.checks.push_back(c);
            }
            break;

          default:
            break;
        }
    }
}

bool
ButterflyAddrLeak::mayTaint(const Rule &rule, const AddrSet &wm) const
{
    switch (rule.kind) {
      case RuleKind::Gen:
        return true;
      case RuleKind::Kill:
        return false;
      case RuleKind::Copy:
        for (std::uint8_t n = 0; n < rule.nsrc; ++n)
            if (wm.contains(rule.src[n]))
                return true;
        return false;
    }
    return false;
}

const AddrSet &
ButterflyAddrLeak::ensureWindowMay(EpochId l)
{
    if (windowMayEpoch_ == l)
        return windowMay_;

    // WM_l: least fixpoint over the window's rules seeded by the SOS —
    // everything that might hold a heap pointer at *some* point of
    // *some* interleaving of epochs l-1..l+1.
    windowMay_ = sosPrev_;
    const EpochId lo = l >= 1 ? l - 1 : 0;
    bool changed = true;
    while (changed) {
        changed = false;
        for (EpochId w = lo; w <= l + 1; ++w) {
            for (ThreadId t = 0; t < states_.size(); ++t) {
                const BlockState *s = slotIfValid(w, t);
                if (!s)
                    continue;
                for (const Rule &r : s->rules) {
                    if (!windowMay_.contains(r.dst) &&
                        mayTaint(r, windowMay_)) {
                        windowMay_.insert(r.dst);
                        changed = true;
                    }
                }
            }
        }
    }
    windowMayEpoch_ = l;
    return windowMay_;
}

void
ButterflyAddrLeak::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    const BlockState *s = slotIfValid(l, t);
    if (!s || s->checks.empty())
        return;

    const AddrSet &wm = ensureWindowMay(l);

    // Cells a wing rule may taint: any such rule could interleave
    // between this thread's last own write and the sink.
    AddrSet wing_gen;
    const EpochId lo = l >= 1 ? l - 1 : 0;
    for (EpochId w = lo; w <= l + 1; ++w) {
        for (ThreadId u = 0; u < states_.size(); ++u) {
            if (u == t)
                continue;
            const BlockState *ws = slotIfValid(w, u);
            if (!ws)
                continue;
            for (const Rule &r : ws->rules)
                if (mayTaint(r, wm))
                    wing_gen.insert(r.dst);
        }
    }

    // The thread's own value entering this block: last write in the
    // head block (epoch l-1) if any, else the SOS snapshot SOS_l.
    const BlockState *head = l >= 1 ? slotIfValid(l - 1, t) : nullptr;
    auto head_may = [&](Addr key) {
        if (head) {
            auto it = head->rulesByKey.find(key);
            if (it != head->rulesByKey.end()) {
                const Rule &last = head->rules[it->second.back()];
                switch (last.kind) {
                  case RuleKind::Gen:  return true;
                  case RuleKind::Kill: return false;
                  case RuleKind::Copy: return mayTaint(last, wm);
                }
            }
        }
        return sosPrev_.contains(key);
    };

    std::unordered_map<Addr, const Rule *> last_own;
    std::size_t ri = 0;
    for (const Check &c : s->checks) {
        while (ri < s->rules.size() && s->rules[ri].offset < c.offset) {
            last_own[s->rules[ri].dst] = &s->rules[ri];
            ++ri;
        }

        bool may = false;
        auto it = last_own.find(c.key);
        if (it != last_own.end()) {
            // Own write precedes the sink: its value, unless a wing
            // rule slipped in after it and re-tainted the cell.
            switch (it->second->kind) {
              case RuleKind::Gen:
                may = true;
                break;
              case RuleKind::Kill:
                may = wing_gen.contains(c.key);
                break;
              case RuleKind::Copy:
                may = mayTaint(*it->second, wm) ||
                      wing_gen.contains(c.key);
                break;
            }
        } else {
            may = head_may(c.key) || wing_gen.contains(c.key);
        }

        if (may) {
            errors_.report(t, block.first + c.offset, c.addr,
                           ErrorKind::AddrLeak, c.size);
        }
    }
}

void
ButterflyAddrLeak::finalizeEpoch(EpochId l)
{
    const AddrSet &wm = ensureWindowMay(l);
    const std::size_t nthreads = states_.size();

    // May-gen: each thread's LAST rule per cell, resolved against the
    // window may-set. The value a cell carries out of the epoch is the
    // last write to it in the true interleaving, and within a thread a
    // later rule always overwrites an earlier one — so the epoch-final
    // rule is necessarily some thread's last rule for the cell, and
    // folding only those is sound. Mid-epoch taints still reach the
    // fold through copies: their liveness is judged under WM_l, which
    // keeps any-rule semantics. Folding every rule instead (an earlier
    // revision did) breaks FP(H) <= FP(4H): a gen the same thread kills
    // later in the epoch stays in the SOS forever at fine H, while a
    // coarse H resolves the sink exactly in-block and stays quiet.
    AddrSet gen;
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockState *s = slotIfValid(l, t);
        if (!s)
            continue;
        for (const auto &[key, idxs] : s->rulesByKey)
            if (mayTaint(s->rules[idxs.back()], wm))
                gen.insert(key);
    }

    // Must-kill: every thread that wrote the cell ended on a kill.
    std::unordered_map<Addr, bool> all_last_kill;
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockState *s = slotIfValid(l, t);
        if (!s)
            continue;
        for (const auto &[key, idxs] : s->rulesByKey) {
            const bool last_kill =
                s->rules[idxs.back()].kind == RuleKind::Kill;
            auto [it, fresh] = all_last_kill.emplace(key, last_kill);
            if (!fresh)
                it->second = it->second && last_kill;
        }
    }

    // SOS_{l+2} = GEN_l U (SOS_{l+1} - MUSTKILL_l), double-buffered so
    // epoch l+1's pass 2 still sees SOS_{l+1} in sosPrev_.
    sosPrev_ = sosCur_;
    for (const auto &[key, kill] : all_last_kill)
        if (kill && !gen.contains(key))
            sosCur_.erase(key);
    sosCur_.unionWith(gen);
}

AddrLeakOracle::AddrLeakOracle(const AddrLeakConfig &config) : config_(config)
{
    ensure(config_.granularity > 0, "granularity must be positive");
}

void
AddrLeakOracle::processOne(ThreadId tid, std::uint64_t index, const Event &e)
{
    switch (e.kind) {
      case EventKind::Alloc:
        if (config_.monitored(e.addr))
            tainted_.insert(config_.keyOf(e.addr));
        break;

      case EventKind::Write:
      case EventKind::TaintSrc:
      case EventKind::Untaint:
        if (config_.monitored(e.addr))
            tainted_.erase(config_.keyOf(e.addr));
        break;

      case EventKind::Assign: {
        if (!config_.monitored(e.addr))
            break;
        const Addr raw[2] = {e.src0, e.src1};
        bool taint = false;
        for (unsigned n = 0; n < e.nsrc; ++n) {
            if (config_.monitored(raw[n]) &&
                tainted_.contains(config_.keyOf(raw[n]))) {
                taint = true;
            }
        }
        if (taint)
            tainted_.insert(config_.keyOf(e.addr));
        else
            tainted_.erase(config_.keyOf(e.addr));
        break;
      }

      case EventKind::Output:
        if (config_.monitored(e.addr) &&
            tainted_.contains(config_.keyOf(e.addr))) {
            errors_.report(tid, index, e.addr, ErrorKind::AddrLeak,
                           e.size);
        }
        break;

      default:
        break;
    }
}

void
AddrLeakOracle::runOnTrace(const Trace &trace)
{
    for (const GseqRef &r : trace.gseqOrder())
        processOne(trace.threads[r.thread].tid, r.index, *r.event);
}

} // namespace bfly
