#include "lifeguards/taintcheck.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "telemetry/metrics.hpp"

namespace bfly {

namespace {

/** Pre-interned TAINTCHECK metric ids (one-time registration). */
struct TaintCheckTelemetry
{
    telemetry::MetricId epochsFinalized;
    telemetry::MetricId sosSize;        ///< gauge: tainted keys in SOS
    telemetry::MetricId epochGenKill;   ///< histogram: |GEN_l| + |KILL_l|
    telemetry::MetricId budgetExhausted; ///< checks cut off by the budget

    static const TaintCheckTelemetry &
    get()
    {
        static const TaintCheckTelemetry m = [] {
            auto &r = telemetry::registry();
            TaintCheckTelemetry s;
            s.epochsFinalized =
                r.counter("bfly.taintcheck.epochs_finalized");
            s.sosSize = r.gauge("bfly.taintcheck.sos_size");
            s.epochGenKill =
                r.histogram("bfly.taintcheck.epoch_genkill_size");
            s.budgetExhausted =
                r.counter("bfly.taintcheck.budget_exhausted");
            return s;
        }();
        return m;
    }
};

} // namespace

ButterflyTaintCheck::ButterflyTaintCheck(std::size_t num_threads,
                                         const TaintCheckConfig &config,
                                         TaintTermination termination)
    : config_(config), termination_(termination), blocks_(num_threads)
{}

ButterflyTaintCheck::BlockState &
ButterflyTaintCheck::slot(EpochId l, ThreadId t)
{
    return blocks_[t][l % kWindow];
}

const ButterflyTaintCheck::BlockState *
ButterflyTaintCheck::slotIfValid(EpochId l, ThreadId t) const
{
    const BlockState &s = blocks_[t][l % kWindow];
    return s.epoch == l ? &s : nullptr;
}

void
ButterflyTaintCheck::pass1(const BlockView &block)
{
    BlockState &bs = slot(block.epoch, block.thread);
    bs = BlockState{};
    bs.epoch = block.epoch;

    auto add_rule = [&](Rule r) {
        bs.rulesByKey[r.dst].push_back(bs.rules.size());
        bs.rules.push_back(r);
    };
    auto keys_over = [&](Addr base, std::uint16_t size, auto &&fn) {
        if (base == kNoAddr)
            return;
        keyRange(base, size, config_.granularity).forEach(fn);
    };

    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        switch (e.kind) {
          case EventKind::TaintSrc:
            keys_over(e.addr, e.size, [&](Addr k) {
                add_rule(Rule{i, k, Rhs::Taint, {}, 0});
            });
            break;
          case EventKind::Untaint:
          case EventKind::Write:
            keys_over(e.addr, e.size, [&](Addr k) {
                add_rule(Rule{i, k, Rhs::Untaint, {}, 0});
            });
            break;
          case EventKind::Assign: {
            Rule proto{i, 0, Rhs::Copy, {}, 0};
            const Addr srcs[2] = {e.src0, e.src1};
            for (unsigned n = 0; n < e.nsrc && n < 2; ++n)
                proto.srcs[proto.nsrc++] = config_.keyOf(srcs[n]);
            keys_over(e.addr, e.size, [&](Addr k) {
                Rule r = proto;
                r.dst = k;
                add_rule(r);
            });
            break;
          }
          default:
            break;
        }
    }
}

bool
ButterflyTaintCheck::lsosTainted(Addr key, EpochId l, ThreadId t) const
{
    const BlockState *head = l >= 1 ? slotIfValid(l - 1, t) : nullptr;
    if (head) {
        auto it = head->lastCheck.find(key);
        if (it != head->lastCheck.end()) {
            if (it->second)
                return true;
            // The head untainted key, but a taint resolved in epoch l-2 by
            // another thread may interleave after the head (adjacency):
            // the reaching-definitions LSOS "resurrection" term.
            if (l >= 2) {
                for (ThreadId u = 0; u < blocks_.size(); ++u) {
                    if (u == t)
                        continue;
                    const BlockState *w = slotIfValid(l - 2, u);
                    if (!w)
                        continue;
                    auto wit = w->lastCheck.find(key);
                    if (wit != w->lastCheck.end() && wit->second)
                        return true;
                }
            }
            return false;
        }
    }
    return sosPrev_.contains(key);
}

bool
ButterflyTaintCheck::wingVisibleTainted(Addr key, EpochId l,
                                        ThreadId t) const
{
    if (lsosTainted(key, l, t))
        return true;
    // A wing reader is unordered against the head, so it can observe
    // (a) a taint the head held mid-block even if a later head write
    // untainted it, or (b) the pre-head value — the SOS taint
    // summarizing epochs <= l-2 — even if the head overwrote it.
    if (l >= 1) {
        const BlockState *head = slotIfValid(l - 1, t);
        if (head && head->everTainted.contains(key))
            return true;
        if (head && head->lastCheck.count(key))
            return sosPrev_.contains(key);
    }
    return false;
}

bool
ButterflyTaintCheck::wingsTaint(Addr key, CheckCtx &ctx)
{
    if (ctx.depth >= kMaxDepth)
        return true; // conservative: assume tainted rather than miss

    if (termination_ == TaintTermination::Relaxed) {
        if (std::find(ctx.path.begin(), ctx.path.end(), key) !=
            ctx.path.end()) {
            return false; // cycle: no new taint can enter through it
        }
    }
    ctx.path.push_back(key);
    ++ctx.depth;

    bool tainted = false;
    for (EpochId w = ctx.wingLo; w <= ctx.wingHi && !tainted; ++w) {
        for (ThreadId u = 0; u < blocks_.size() && !tainted; ++u) {
            if (u == ctx.bodyThread)
                continue;
            const BlockState *bs = slotIfValid(w, u);
            if (!bs)
                continue;
            // Epoch l-1 wings finished their own pass 2 (the schedule
            // orders pass2(l-1) before pass2(l)), so their *resolved*
            // taint conclusions are available — and necessary: they were
            // derived with a window reaching epoch l-2, whose transfer
            // functions this body can no longer see. If the wing block
            // ever held the key tainted, a reader here could observe it.
            if (w + 1 == ctx.bodyEpoch &&
                bs->everTainted.contains(key)) {
                tainted = true;
                break;
            }
            auto it = bs->rulesByKey.find(key);
            if (it == bs->rulesByKey.end())
                continue;
            for (std::size_t ridx : it->second) {
                const Rule &r = bs->rules[ridx];
                const InstrId pos{w, u, r.i};
                if (termination_ ==
                    TaintTermination::SequentialConsistency) {
                    // Per-thread counter: thread u's contribution to the
                    // inheritance chain must descend in program order.
                    const auto &ctr = ctx.counters[u];
                    if (ctr && !strictlyBefore(pos, *ctr, true))
                        continue;
                }
                if (r.rhs == Rhs::Taint) {
                    tainted = true;
                    break;
                }
                if (r.rhs == Rhs::Untaint)
                    continue; // only offers an untainted possibility
                // Copy: recurse into parents under an updated counter.
                const auto saved = ctx.counters[u];
                ctx.counters[u] = pos;
                for (unsigned n = 0; n < r.nsrc && !tainted; ++n)
                    tainted = resolveKey(r.srcs[n], ctx);
                ctx.counters[u] = saved;
                if (tainted)
                    break;
            }
        }
    }

    --ctx.depth;
    ctx.path.pop_back();
    return tainted;
}

bool
ButterflyTaintCheck::resolveKey(Addr key, CheckCtx &ctx)
{
    if (ctx.resolved - ctx.budgetMark >= kMaxResolvedPerCheck) {
        ++ctx.exhausted;
        return true; // conservative: assume tainted rather than miss
    }
    ++ctx.resolved;
    const bool relaxed = termination_ == TaintTermination::Relaxed;

    // Phase-one roots (Lemma 6.3): taints concluded over epochs l-1..l,
    // usable if their body-offset dependence respects program order.
    if (ctx.phaseOneRoots) {
        auto it = ctx.phaseOneRoots->find(key);
        if (it != ctx.phaseOneRoots->end() &&
            (relaxed ||
             it->second < static_cast<std::int64_t>(ctx.checkOffset))) {
            return true;
        }
    }

    auto lw = ctx.localState->find(key);
    if (ctx.depth == 0) {
        // Direct source of the checking instruction: program order pins
        // the own-thread view to the latest local write; absent that,
        // the LSOS. A locally-untainted value may still be overwritten
        // by a concurrent wing write before the read, so fall through.
        if (lw != ctx.localState->end()) {
            if (lw->second)
                return true;
        } else if (lsosTainted(key, ctx.bodyEpoch, ctx.bodyThread)) {
            return true;
        }
    } else {
        // Inside a wing inheritance chain there is no own-thread anchor
        // except the checking instruction itself: a wing may read any
        // value the key held in the window — a body-local taint at an
        // earlier offset (SC) or any offset (relaxed), or the pre-block
        // LSOS value even if the body later overwrote it.
        auto lo = ctx.localTaintOffset->find(key);
        if (lo != ctx.localTaintOffset->end() &&
            (relaxed || lo->second < ctx.checkOffset)) {
            return true;
        }
        if (wingVisibleTainted(key, ctx.bodyEpoch, ctx.bodyThread))
            return true;
    }
    return wingsTaint(key, ctx);
}

std::unordered_map<Addr, std::int64_t>
ButterflyTaintCheck::phaseOneFixpoint(
    EpochId l, ThreadId t, EpochId wing_lo, EpochId wing_hi,
    const std::unordered_map<Addr, InstrOffset> &local_taint_offset) const
{
    std::unordered_map<Addr, std::int64_t> cost;

    // Seed: body-local taints at their offsets; LSOS taints of every key
    // the wing rules mention, independent of the body.
    for (const auto &[key, off] : local_taint_offset)
        cost[key] = static_cast<std::int64_t>(off);

    std::vector<const BlockState *> wings;
    for (EpochId w = wing_lo; w <= wing_hi; ++w) {
        for (ThreadId u = 0; u < blocks_.size(); ++u) {
            if (u == t)
                continue;
            if (const BlockState *bs = slotIfValid(w, u))
                wings.push_back(bs);
        }
    }
    auto seed_lsos = [&](Addr key) {
        if (cost.count(key))
            return;
        if (wingVisibleTainted(key, l, t))
            cost[key] = kNoLocal;
    };
    for (const BlockState *bs : wings) {
        for (const Rule &r : bs->rules) {
            for (unsigned n = 0; n < r.nsrc; ++n)
                seed_lsos(r.srcs[n]);
        }
        // Resolved conclusions of completed (epoch l-1) wings seed the
        // fixpoint body-independently, for the same reason as above.
        if (bs->epoch + 1 == l) {
            for (Addr key : bs->everTainted)
                cost.emplace(key, kNoLocal);
        }
    }

    // Min-cost relaxation over the wing rules until stable. A Copy rule
    // propagates the cheapest tainted source into its destination; a
    // Taint rule makes its destination body-independent. Untaint rules
    // never lower a cost (they only add untainted possibilities).
    std::unordered_map<Addr, std::int64_t> wing_delivered;
    bool changed = true;
    while (changed) {
        changed = false;
        for (const BlockState *bs : wings) {
            for (const Rule &r : bs->rules) {
                std::int64_t best = std::numeric_limits<std::int64_t>::max();
                if (r.rhs == Rhs::Taint) {
                    best = kNoLocal;
                } else if (r.rhs == Rhs::Copy) {
                    for (unsigned n = 0; n < r.nsrc; ++n) {
                        auto it = cost.find(r.srcs[n]);
                        if (it != cost.end())
                            best = std::min(best, it->second);
                    }
                } else {
                    continue;
                }
                if (best == std::numeric_limits<std::int64_t>::max())
                    continue;
                auto it = cost.find(r.dst);
                if (it == cost.end() || best < it->second) {
                    cost[r.dst] = best;
                    changed = true;
                }
                auto [wit, inserted] = wing_delivered.emplace(r.dst, best);
                if (!inserted && best < wit->second) {
                    wit->second = best;
                    changed = true;
                }
            }
        }
    }
    // Only taints a *wing write* can deliver count as roots: body-local
    // seeds are intermediate history a later local write supersedes, and
    // LSOS seeds are re-derivable directly. A wing write, by contrast,
    // can land after any body instruction its derivation permits.
    return wing_delivered;
}

void
ButterflyTaintCheck::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockState &bs = slot(l, t);
    ensure(bs.epoch == l, "pass 2 before pass 1");

    // Resolved status of the last write per key, per phase; the final
    // LASTCHECK is their OR (a taint concluded in either phase persists).
    std::unordered_map<Addr, bool> last_check_phase[2];
    std::unordered_map<Addr, std::int64_t> roots;
    std::uint64_t exhausted = 0;

    auto keys_over = [&](Addr base, std::uint16_t size, auto &&fn) {
        if (base == kNoAddr)
            return;
        keyRange(base, size, config_.granularity).forEach(fn);
    };

    for (int phase = 1; phase <= 2; ++phase) {
        std::unordered_map<Addr, bool> &last_check =
            last_check_phase[phase - 1];

        CheckCtx ctx;
        ctx.bodyEpoch = l;
        ctx.bodyThread = t;
        // Lemma 6.3 phase windows: 1st uses wings from epochs l-1..l,
        // 2nd from l..l+1 (phase-one roots persist).
        ctx.wingLo = (phase == 1 && l >= 1) ? l - 1 : l;
        ctx.wingHi = phase == 1 ? l : l + 1;
        ctx.phaseOneRoots = phase == 2 ? &roots : nullptr;
        ctx.counters.assign(blocks_.size(), std::nullopt);

        std::unordered_map<Addr, bool> local_state;
        std::unordered_map<Addr, InstrOffset> local_taint_offset;
        ctx.localState = &local_state;
        ctx.localTaintOffset = &local_taint_offset;

        for (InstrOffset i = 0; i < block.size(); ++i) {
            const Event &e = block.events[i];
            const std::uint64_t index = block.first + i;
            ctx.checkOffset = i;
            switch (e.kind) {
              case EventKind::TaintSrc:
                keys_over(e.addr, e.size, [&](Addr k) {
                    local_state[k] = true;
                    local_taint_offset.try_emplace(k, i);
                    last_check[k] = true;
                    bs.everTainted.insert(k);
                });
                break;
              case EventKind::Untaint:
              case EventKind::Write:
                keys_over(e.addr, e.size, [&](Addr k) {
                    local_state[k] = false;
                    last_check[k] = false;
                });
                break;
              case EventKind::Assign: {
                bool tainted = false;
                const Addr srcs[2] = {e.src0, e.src1};
                ctx.budgetMark = ctx.resolved;
                for (unsigned n = 0; n < e.nsrc && !tainted; ++n)
                    tainted = resolveKey(config_.keyOf(srcs[n]), ctx);
                keys_over(e.addr, e.size, [&](Addr k) {
                    local_state[k] = tainted;
                    if (tainted) {
                        local_taint_offset.try_emplace(k, i);
                        bs.everTainted.insert(k);
                    }
                    last_check[k] = tainted;
                });
                break;
              }
              case EventKind::Use: {
                ctx.budgetMark = ctx.resolved;
                const bool tainted =
                    resolveKey(config_.keyOf(e.addr), ctx);
                if (tainted) {
                    errors_.report(t, index, e.addr, ErrorKind::TaintedUse,
                                   e.size);
                }
                break;
              }
              default:
                break;
            }
        }

        if (phase == 1) {
            // Roots for phase two (Lemma 6.3 case 3): every key that can
            // appear tainted over epochs l-1..l, with the minimum body
            // offset its derivation requires.
            roots = phaseOneFixpoint(l, t, ctx.wingLo, ctx.wingHi,
                                     local_taint_offset);
        }
        checksResolved_ += ctx.resolved;
        exhausted += ctx.exhausted;
    }

    budgetExhausted_ += exhausted;
    if (telemetry::enabled())
        telemetry::registry().add(TaintCheckTelemetry::get().budgetExhausted,
                                  exhausted);

    // LASTCHECK = OR of the two phases' last-write resolutions.
    bs.lastCheck = last_check_phase[0];
    for (const auto &[key, tainted] : last_check_phase[1]) {
        auto [it, inserted] = bs.lastCheck.emplace(key, tainted);
        if (!inserted)
            it->second = it->second || tainted;
    }
}

void
ButterflyTaintCheck::finalizeEpoch(EpochId l)
{
    const std::size_t nthreads = blocks_.size();

    // GEN_l: tainted by some thread's last check.
    AddrSet gen_epoch;
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockState *bs = slotIfValid(l, t);
        if (!bs)
            continue;
        for (const auto &[key, tainted] : bs->lastCheck) {
            if (tainted)
                gen_epoch.insert(key);
        }
    }

    // KILL_l: untainted by some thread, with every other thread's last
    // check across epochs l-1..l either untainting or absent.
    auto span_status = [&](Addr key, ThreadId u) -> std::optional<bool> {
        const BlockState *cur = slotIfValid(l, u);
        if (cur) {
            auto it = cur->lastCheck.find(key);
            if (it != cur->lastCheck.end())
                return it->second;
        }
        if (l >= 1) {
            const BlockState *prev = slotIfValid(l - 1, u);
            if (prev) {
                auto it = prev->lastCheck.find(key);
                if (it != prev->lastCheck.end())
                    return it->second;
            }
        }
        return std::nullopt;
    };

    AddrSet kill_epoch;
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockState *bs = slotIfValid(l, t);
        if (!bs)
            continue;
        for (const auto &[key, tainted] : bs->lastCheck) {
            if (tainted)
                continue;
            bool all_others = true;
            for (ThreadId u = 0; u < nthreads; ++u) {
                if (u == t)
                    continue;
                const auto status = span_status(key, u);
                if (status && *status) {
                    all_others = false;
                    break;
                }
            }
            if (all_others)
                kill_epoch.insert(key);
        }
    }

    // Advance the SOS (reaching-definitions update rule).
    sosPrev_ = sosCur_;
    sosCur_.subtract(kill_epoch);
    sosCur_.unionWith(gen_epoch);

    if (telemetry::enabled()) {
        const TaintCheckTelemetry &m = TaintCheckTelemetry::get();
        auto &reg = telemetry::registry();
        reg.add(m.epochsFinalized);
        reg.set(m.sosSize, sosCur_.size());
        reg.observe(m.epochGenKill,
                    gen_epoch.size() + kill_epoch.size());
    }
}

} // namespace bfly
