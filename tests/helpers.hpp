/**
 * @file
 * Shared test utilities: tiny trace construction, sequential reference
 * evaluators for reaching definitions / reaching expressions over a given
 * total ordering, and random small-trace generators for property tests.
 */

#ifndef BUTTERFLY_TESTS_HELPERS_HPP
#define BUTTERFLY_TESTS_HELPERS_HPP

#include <map>
#include <vector>

#include "butterfly/ids.hpp"
#include "butterfly/reaching_defs.hpp"
#include "butterfly/reaching_exprs.hpp"
#include "common/rng.hpp"
#include "lifeguards/report.hpp"
#include "memmodel/valid_orderings.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly::test {

/**
 * Build a trace from per-thread event programs with explicit heartbeat
 * markers already embedded (kind Heartbeat separates epochs).
 */
inline Trace
traceOf(std::vector<std::vector<Event>> programs)
{
    Trace trace;
    trace.threads.resize(programs.size());
    for (std::size_t t = 0; t < programs.size(); ++t) {
        trace.threads[t].tid = static_cast<ThreadId>(t);
        trace.threads[t].events = std::move(programs[t]);
    }
    return trace;
}

/** Sequential reaching definitions over one total ordering: the set of
 *  definitions live at the end (last definition per location wins). */
inline DefSet
genOfOrdering(const std::vector<OrderedInstr> &order,
              const DefineExtractor &defines)
{
    std::map<Addr, DefId> last;
    for (const OrderedInstr &oi : order) {
        if (auto loc = defines(oi.e))
            last[*loc] = InstrId{oi.l, oi.t, oi.i}.pack();
    }
    DefSet out;
    for (const auto &[addr, d] : last)
        out.insert(d);
    return out;
}

/** Sequential reaching expressions over one total ordering: expressions
 *  available at the end (last effect per expression is a gen). */
inline ExprSet
availOfOrdering(const std::vector<OrderedInstr> &order,
                const ExprExtractor &effects)
{
    ExprSet avail;
    for (const OrderedInstr &oi : order) {
        const ExprEffect eff = effects(oi.e);
        for (ExprId e : eff.kills)
            avail.erase(e);
        for (ExprId e : eff.gens)
            avail.insert(e);
    }
    return avail;
}

/**
 * Random small trace for exhaustive property tests: @p threads threads,
 * @p epochs epochs, 0..max_per_block write events per block over a tiny
 * variable pool. Heartbeats embedded.
 */
inline Trace
randomSmallTrace(Rng &rng, unsigned threads, unsigned epochs,
                 unsigned max_per_block, unsigned vars)
{
    std::vector<std::vector<Event>> programs(threads);
    for (unsigned t = 0; t < threads; ++t) {
        for (unsigned l = 0; l < epochs; ++l) {
            const unsigned n =
                static_cast<unsigned>(rng.below(max_per_block + 1));
            for (unsigned i = 0; i < n; ++i)
                programs[t].push_back(
                    Event::write(0x100 + 8 * rng.below(vars), 8));
            if (l + 1 < epochs)
                programs[t].push_back(Event::heartbeat());
        }
    }
    return traceOf(std::move(programs));
}

/**
 * Random small trace of Alloc/Free events over a tiny key pool, for
 * reaching-expressions property tests (alloc generates the expression
 * "key available", free kills it).
 */
inline Trace
randomAllocTrace(Rng &rng, unsigned threads, unsigned epochs,
                 unsigned max_per_block, unsigned vars)
{
    std::vector<std::vector<Event>> programs(threads);
    for (unsigned t = 0; t < threads; ++t) {
        for (unsigned l = 0; l < epochs; ++l) {
            const unsigned n =
                static_cast<unsigned>(rng.below(max_per_block + 1));
            for (unsigned i = 0; i < n; ++i) {
                const Addr a = 0x100 + 8 * rng.below(vars);
                if (rng.chance(0.5))
                    programs[t].push_back(Event::alloc(a, 8));
                else
                    programs[t].push_back(Event::freeOf(a, 8));
            }
            if (l + 1 < epochs)
                programs[t].push_back(Event::heartbeat());
        }
    }
    return traceOf(std::move(programs));
}

/** Alloc gens "addr available"; free kills it. */
inline ExprEffect
allocEffects(const Event &e)
{
    switch (e.kind) {
      case EventKind::Alloc:
        return ExprEffect{{e.addr}, {}};
      case EventKind::Free:
        return ExprEffect{{}, {e.addr}};
      default:
        return ExprEffect{};
    }
}

/** FNV-1a step over one 64-bit word. */
inline void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

/** FNV-1a over error records in the given order (tid, index, addr,
 *  kind, size per record) — pins both the records and their order. */
inline std::uint64_t
recordsFnv(const std::vector<ErrorRecord> &records)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const ErrorRecord &r : records) {
        fnvMix(h, r.tid);
        fnvMix(h, r.index);
        fnvMix(h, r.addr);
        fnvMix(h, static_cast<std::uint64_t>(r.kind));
        fnvMix(h, r.size);
    }
    return h;
}

/** FNV-1a over a key list in the given order. */
inline std::uint64_t
keysFnv(const std::vector<Addr> &keys)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (Addr k : keys)
        fnvMix(h, k);
    return h;
}

} // namespace bfly::test

#endif // BUTTERFLY_TESTS_HELPERS_HPP
