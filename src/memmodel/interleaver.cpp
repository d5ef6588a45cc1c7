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

/** A buffered store: its event's position and instruction index. */
struct Buffered
{
    std::size_t position;
    std::uint32_t index;
};

/**
 * Where a thread stands for the scheduler; exactly one holds. It can
 * take a step (drain a buffered store, or run an instruction that is
 * not a barrier), it is parked at a barrier with its store buffer
 * drained (barriers are fences), or it has run and drained everything.
 */
enum Status : std::uint8_t { kSteppable, kParked, kFinished };

/** One thread's progress through its program. */
struct Runner
{
    Event *events = nullptr;
    std::size_t size = 0;
    std::size_t cursor = 0;      ///< next event to run
    std::size_t heartbeats = 0;  ///< markers passed so far
    std::deque<Buffered> buffer; ///< (TSO) stores awaiting visibility
    Status status = kFinished;

    bool
    atBarrier() const
    {
        return cursor < size && events[cursor].kind == EventKind::Barrier;
    }

    Status
    classify() const
    {
        if (!buffer.empty())
            return kSteppable; // can always drain
        if (cursor >= size)
            return kFinished;
        return atBarrier() ? kParked : kSteppable;
    }
};

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
    if (order) {
        ensure(events <= std::numeric_limits<std::uint32_t>::max(),
               "too many events for 32-bit instruction indices");
        order->clear();
        order->reserve(events);
    }

    // Each thread's state is kept current, with a count per state, so a
    // step looks only at the thread it moved (a position minus the
    // heartbeats passed is the instruction index).
    std::vector<Runner> threads(nthreads);
    std::size_t count[3] = {0, 0, 0};
    for (std::size_t t = 0; t < nthreads; ++t) {
        Runner &r = threads[t];
        r.events = trace.threads[t].events.data();
        r.size = trace.threads[t].events.size();
        r.status = r.classify();
        ++count[r.status];
    }
    auto refresh = [&](Runner &r) {
        const Status s = r.classify();
        --count[r.status];
        ++count[s];
        r.status = s;
    };

    std::uint64_t gseq = 1;
    std::size_t last_thread = nthreads;
    std::size_t burst = 0;

    /** Make event @p position of thread @p t globally visible. */
    auto stamp = [&](std::size_t t, std::size_t position,
                     std::uint32_t index) {
        Event &e = threads[t].events[position];
        e.gseq = gseq++;
        if (order)
            order->push_back(GseqRef{&e, static_cast<ThreadId>(t), index});
    };
    auto stamp_oldest = [&](std::size_t t) {
        const Buffered b = threads[t].buffer.front();
        threads[t].buffer.pop_front();
        stamp(t, b.position, b.index);
    };

    /** Thread @p t takes one scheduler step. */
    auto step = [&](std::size_t t) {
        Runner &r = threads[t];
        std::deque<Buffered> &buf = r.buffer;
        if (!buf.empty() &&
            (r.cursor >= r.size || r.atBarrier() ||
             rng.chance(config.drainProbability) ||
             buf.size() >= config.storeBufferDepth)) {
            // Oldest buffered store becomes globally visible.
            stamp_oldest(t);
            return;
        }
        // A steppable thread with no store to drain has an instruction
        // to run, and it is not a barrier.
        const std::size_t i = r.cursor++;
        const Event &e = r.events[i];
        if (e.kind == EventKind::Heartbeat) {
            ++r.heartbeats;
            return; // markers take no execution step
        }
        const auto index = static_cast<std::uint32_t>(i - r.heartbeats);

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
            std::size_t drain = 0;
            for (std::size_t k = 0; k < buf.size(); ++k)
                if (rangesOverlap(r.events[buf[k].position], e))
                    drain = k + 1;
            for (; drain > 0; --drain)
                stamp_oldest(t);
            if (isStoreLike(e)) {
                buf.push_back(Buffered{i, index});
                return;
            }
        }
        stamp(t, i, index);
    };

    for (;;) {
        if (count[kSteppable] == 0) {
            // All finished (or a deadlocked barrier; callers emit
            // barriers symmetrically so this means done).
            if (count[kParked] == 0)
                break;
            // Barrier release: every thread is finished or parked.
            for (std::size_t t = 0; t < nthreads; ++t) {
                Runner &r = threads[t];
                if (r.status != kParked)
                    continue;
                stamp(t, r.cursor,
                      static_cast<std::uint32_t>(r.cursor - r.heartbeats));
                ++r.cursor;
                refresh(r);
            }
            continue;
        }

        // Pick a steppable thread, honouring speed weights and the
        // fairness bound.
        std::size_t t;
        for (;;) {
            if (!config.speedWeights.empty()) {
                double total = 0;
                for (std::size_t u = 0; u < nthreads; ++u)
                    if (threads[u].status == kSteppable)
                        total += config.speedWeights[u];
                double pick = rng.uniform() * total;
                t = nthreads;
                for (std::size_t u = 0; u < nthreads; ++u) {
                    if (threads[u].status != kSteppable)
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
                if (threads[t].status != kSteppable)
                    continue;
            }
            if (config.maxBurst > 0 && t == last_thread &&
                burst >= config.maxBurst && count[kSteppable] > 1)
                continue;
            break;
        }
        if (t == last_thread) {
            ++burst;
        } else {
            last_thread = t;
            burst = 1;
        }
        step(t);
        refresh(threads[t]);
    }
    return trace;
}

} // namespace bfly
