#include "memmodel/interleaver.hpp"

#include <deque>
#include <limits>

#include "common/logging.hpp"

namespace bfly {

namespace {

/** True for events whose effect is a store (drains via the store buffer). */
bool
isStoreLike(const Event &e)
{
    switch (e.kind) {
      case EventKind::Write:
      case EventKind::Alloc:
      case EventKind::Free:
      case EventKind::TaintSrc:
      case EventKind::Untaint:
      case EventKind::Assign:
        return true;
      default:
        return false;
    }
}

/** Address range(s) an event touches, for intra-thread dependences. */
bool
rangesOverlap(const Event &a, const Event &b)
{
    auto overlap1 = [](Addr base_a, std::uint16_t sz_a, Addr base_b,
                       std::uint16_t sz_b) {
        if (base_a == kNoAddr || base_b == kNoAddr)
            return false;
        const Addr end_a = base_a + (sz_a > 0 ? sz_a : 1);
        const Addr end_b = base_b + (sz_b > 0 ? sz_b : 1);
        return base_a < end_b && base_b < end_a;
    };
    Addr a_addrs[3] = {a.addr, kNoAddr, kNoAddr};
    Addr b_addrs[3] = {b.addr, kNoAddr, kNoAddr};
    if (a.kind == EventKind::Assign) {
        a_addrs[1] = a.nsrc >= 1 ? a.src0 : kNoAddr;
        a_addrs[2] = a.nsrc >= 2 ? a.src1 : kNoAddr;
    }
    if (b.kind == EventKind::Assign) {
        b_addrs[1] = b.nsrc >= 1 ? b.src0 : kNoAddr;
        b_addrs[2] = b.nsrc >= 2 ? b.src1 : kNoAddr;
    }
    for (Addr aa : a_addrs)
        for (Addr bb : b_addrs)
            if (overlap1(aa, a.size, bb, b.size))
                return true;
    return false;
}

} // namespace

Trace
interleave(std::vector<std::vector<Event>> programs,
           const InterleaveConfig &config, Rng &rng,
           std::vector<GseqRef> *order)
{
    const std::size_t nthreads = programs.size();
    ensure(nthreads > 0, "interleave needs at least one thread");

    // The programs become the trace's threads; the interleaver stamps
    // them in place.
    Trace trace;
    trace.threads.resize(nthreads);
    std::size_t events = 0;
    for (std::size_t t = 0; t < nthreads; ++t) {
        trace.threads[t].tid = static_cast<ThreadId>(t);
        trace.threads[t].events = std::move(programs[t]);
        events += trace.threads[t].events.size();
    }
    auto program = [&trace](std::size_t t) -> std::vector<Event> & {
        return trace.threads[t].events;
    };
    if (order) {
        ensure(events <= std::numeric_limits<std::uint32_t>::max(),
               "too many events for 32-bit instruction indices");
        order->clear();
        order->reserve(events);
    }

    // Per-thread cursor into the program, heartbeats passed so far (a
    // position minus them is the instruction index), and (TSO) a FIFO of
    // buffered stores awaiting visibility.
    struct Buffered
    {
        std::size_t position;
        std::uint32_t index;
    };
    std::vector<std::size_t> cursor(nthreads, 0);
    std::vector<std::size_t> heartbeats(nthreads, 0);
    std::vector<std::deque<Buffered>> store_buffer(nthreads);

    std::uint64_t gseq = 1;
    std::size_t last_thread = nthreads;
    std::size_t burst = 0;

    /** Make event @p position of thread @p t globally visible. */
    auto stamp = [&](std::size_t t, std::size_t position,
                     std::uint32_t index) {
        Event &e = program(t)[position];
        e.gseq = gseq++;
        if (order)
            order->push_back(GseqRef{&e, static_cast<ThreadId>(t), index});
    };
    auto stamp_oldest = [&](std::size_t t) {
        const Buffered b = store_buffer[t].front();
        store_buffer[t].pop_front();
        stamp(t, b.position, b.index);
    };
    auto finished = [&](std::size_t t) {
        return cursor[t] >= program(t).size() && store_buffer[t].empty();
    };
    auto at_barrier = [&](std::size_t t) {
        return cursor[t] < program(t).size() &&
               program(t)[cursor[t]].kind == EventKind::Barrier;
    };
    /** Thread can take a scheduler step right now. */
    auto steppable = [&](std::size_t t) {
        if (!store_buffer[t].empty())
            return true; // can always drain
        return cursor[t] < program(t).size() && !at_barrier(t);
    };

    for (;;) {
        // Barrier release: every thread is finished, or parked at a
        // barrier with a drained store buffer (barriers are fences).
        bool any_parked = false;
        bool all_parked_or_done = true;
        for (std::size_t t = 0; t < nthreads; ++t) {
            if (at_barrier(t) && store_buffer[t].empty()) {
                any_parked = true;
            } else if (!finished(t)) {
                all_parked_or_done = false;
            }
        }
        if (any_parked && all_parked_or_done) {
            for (std::size_t t = 0; t < nthreads; ++t) {
                if (at_barrier(t)) {
                    stamp(t, cursor[t], static_cast<std::uint32_t>(
                                            cursor[t] - heartbeats[t]));
                    ++cursor[t];
                }
            }
            continue;
        }

        bool any = false;
        for (std::size_t t = 0; t < nthreads; ++t)
            any = any || steppable(t);
        if (!any)
            break; // all finished (or deadlocked barrier; callers emit
                   // barriers symmetrically so this means done)

        // Pick a steppable thread, honouring speed weights and the
        // fairness bound.
        std::size_t t;
        for (;;) {
            if (!config.speedWeights.empty()) {
                double total = 0;
                for (std::size_t u = 0; u < nthreads; ++u)
                    if (steppable(u))
                        total += config.speedWeights[u];
                double pick = rng.uniform() * total;
                t = nthreads;
                for (std::size_t u = 0; u < nthreads; ++u) {
                    if (!steppable(u))
                        continue;
                    pick -= config.speedWeights[u];
                    if (pick <= 0) {
                        t = u;
                        break;
                    }
                }
                if (t == nthreads)
                    continue;
            } else {
                t = rng.below(nthreads);
            }
            if (!steppable(t))
                continue;
            if (config.maxBurst > 0 && t == last_thread &&
                burst >= config.maxBurst && nthreads > 1) {
                bool other = false;
                for (std::size_t u = 0; u < nthreads; ++u)
                    other = other || (u != t && steppable(u));
                if (other)
                    continue;
            }
            break;
        }
        if (t == last_thread) {
            ++burst;
        } else {
            last_thread = t;
            burst = 1;
        }

        auto &buf = store_buffer[t];
        const bool must_drain =
            cursor[t] >= program(t).size() || at_barrier(t);

        if (!buf.empty() &&
            (must_drain || rng.chance(config.drainProbability) ||
             buf.size() >= config.storeBufferDepth)) {
            // Oldest buffered store becomes globally visible.
            stamp_oldest(t);
            continue;
        }
        if (must_drain)
            continue;

        const std::size_t i = cursor[t]++;
        const Event &e = program(t)[i];
        if (e.kind == EventKind::Heartbeat) {
            ++heartbeats[t];
            continue; // markers take no execution step
        }
        const auto index = static_cast<std::uint32_t>(i - heartbeats[t]);

        if (config.model == MemModel::TSO) {
            // Lock/unlock carry acquire/release semantics: on x86-TSO a
            // locked instruction flushes the store buffer, so every
            // buffered store becomes visible before the sync operation.
            if (e.kind == EventKind::Lock ||
                e.kind == EventKind::Unlock) {
                while (!buf.empty())
                    stamp_oldest(t);
            }
            // Intra-thread dependences are respected (paper Section 4.4
            // assumption (i)): a TSO core forwards from its own store
            // buffer, so any buffered store to an overlapping address
            // must become visible no later than this event. Drain the
            // FIFO through the last overlapping store.
            std::size_t drain_through = 0;
            bool found = false;
            for (std::size_t k = 0; k < buf.size(); ++k) {
                if (rangesOverlap(program(t)[buf[k].position], e)) {
                    drain_through = k;
                    found = true;
                }
            }
            if (found) {
                for (std::size_t k = 0; k <= drain_through; ++k)
                    stamp_oldest(t);
            }
        }

        if (config.model == MemModel::TSO && isStoreLike(e)) {
            buf.push_back(Buffered{i, index});
        } else {
            stamp(t, i, index);
        }
    }
    return trace;
}

} // namespace bfly
