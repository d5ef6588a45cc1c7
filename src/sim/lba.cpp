#include "sim/lba.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

#include "common/logging.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"

namespace bfly {

namespace {

/**
 * Pre-interned names for the simulated-pipeline timeline (pid 1 in the
 * Chrome trace; timestamps are simulated cycles). Each lifeguard thread
 * gets a track; track `nthreads` carries the master-thread events
 * (barriers, SOS updates).
 */
struct SimTimeline
{
    std::uint32_t pass1;
    std::uint32_t pass2;
    std::uint32_t barrier;
    std::uint32_t sosUpdate;
    std::uint32_t epochArg;

    static const SimTimeline &
    get()
    {
        static const SimTimeline s = [] {
            auto &t = telemetry::tracer();
            SimTimeline m;
            m.pass1 = t.internName("sim.pass1");
            m.pass2 = t.internName("sim.pass2");
            m.barrier = t.internName("sim.barrier");
            m.sosUpdate = t.internName("sim.sos_update");
            m.epochArg = t.internName("epoch");
            return m;
        }();
        return s;
    }
};

/**
 * Ring of the last @c capacity consume-completion times, so production of
 * record i can wait for the consumption of record i-capacity (slot reuse)
 * without storing the whole history.
 */
class ConsumeRing
{
  public:
    explicit ConsumeRing(std::size_t capacity)
        : ring_(capacity, 0), capacity_(capacity)
    {}

    /** Completion time of record @p i - capacity (0 if i < capacity). */
    Cycles
    slotFree(std::uint64_t i) const
    {
        if (i < capacity_)
            return 0;
        return ring_[(i - capacity_) % capacity_];
    }

    void
    record(std::uint64_t i, Cycles done)
    {
        ring_[i % capacity_] = done;
    }

  private:
    std::vector<Cycles> ring_;
    std::size_t capacity_;
};

} // namespace

TimingResult
simulateSpsc(const std::vector<Cycles> &prod_cost,
             const std::vector<Cycles> &cons_cost, std::size_t capacity)
{
    ensure(prod_cost.size() == cons_cost.size(),
           "producer/consumer cost streams must align");
    ensure(capacity > 0, "buffer capacity must be positive");

    TimingResult result;
    ConsumeRing ring(capacity);
    Cycles produce = 0;
    Cycles consume = 0;

    for (std::uint64_t i = 0; i < prod_cost.size(); ++i) {
        const Cycles slot_free = ring.slotFree(i);
        const Cycles stall = slot_free > produce ? slot_free - produce : 0;
        result.appStallCycles += stall;
        produce = std::max(produce, slot_free) + prod_cost[i];
        consume = std::max(consume, produce) + cons_cost[i];
        ring.record(i, consume);
    }
    result.appCycles = produce;
    result.totalCycles = consume;
    return result;
}

TimingResult
simulateButterfly(const ButterflyTimingInput &input)
{
    const std::size_t nthreads = input.costs.size();
    ensure(nthreads > 0, "butterfly timing needs at least one thread");
    const std::size_t nepochs = input.costs[0].size();
    for (const auto &per_thread : input.costs) {
        ensure(per_thread.size() == nepochs,
               "all threads must have the same epoch count");
    }
    ensure(input.bufferCapacity > 0, "buffer capacity must be positive");

    TimingResult result;
    result.barrierStallPerBlock.assign(
        nthreads, std::vector<Cycles>(nepochs, 0));
    // Step-l barrier stalls land on epoch l; the trailing step (l ==
    // nepochs) has no epoch of its own and charges the final one.
    auto stall_epoch = [&](std::size_t l) {
        return std::min(l, nepochs - 1);
    };

    // Simulated-cycle timeline export (pid 1). Guarded per epoch, not
    // per record, so the disabled cost is one branch per epoch.
    const bool traced = telemetry::enabled();
    const SimTimeline *tl = traced ? &SimTimeline::get() : nullptr;
    auto &ttr = telemetry::tracer();
    const auto mastertid = static_cast<std::uint16_t>(nthreads);

    // Per-thread production / consumption state.
    std::vector<ConsumeRing> rings(nthreads,
                                   ConsumeRing(input.bufferCapacity));
    std::vector<Cycles> produce(nthreads, 0);
    std::vector<Cycles> consume(nthreads, 0);
    std::vector<std::uint64_t> record_index(nthreads, 0);
    std::vector<Cycles> lg_ready(nthreads, 0);

    Cycles final_time = 0;

    // Step l runs pass 1 of epoch l (if any) and pass 2 of epoch l-1.
    for (std::size_t l = 0; l <= nepochs; ++l) {
        std::vector<Cycles> pass1_done(nthreads, 0);

        if (l < nepochs) {
            for (std::size_t t = 0; t < nthreads; ++t) {
                const EpochCosts &block = input.costs[t][l];
                ensure(block.appCost.size() == block.pass1Cost.size(),
                       "app/pass1 cost streams must align");
                Cycles cons = std::max(consume[t], lg_ready[t]);
                const Cycles cons_start = cons;
                for (std::size_t k = 0; k < block.appCost.size(); ++k) {
                    const std::uint64_t i = record_index[t]++;
                    const Cycles slot_free = rings[t].slotFree(i);
                    const Cycles stall =
                        slot_free > produce[t] ? slot_free - produce[t] : 0;
                    result.appStallCycles += stall;
                    produce[t] = std::max(produce[t], slot_free) +
                                 block.appCost[k];
                    cons = std::max(cons, produce[t]) + block.pass1Cost[k];
                    rings[t].record(i, cons);
                }
                consume[t] = cons;
                pass1_done[t] = cons;
                if (traced)
                    ttr.complete(tl->pass1, cons_start, cons - cons_start,
                                 telemetry::SpanTracer::kSimPid,
                                 static_cast<std::uint16_t>(t),
                                 tl->epochArg, l);
            }
        } else {
            for (std::size_t t = 0; t < nthreads; ++t)
                pass1_done[t] = std::max(consume[t], lg_ready[t]);
        }

        // Barrier after pass 1: everyone waits for the slowest thread.
        const Cycles slowest =
            *std::max_element(pass1_done.begin(), pass1_done.end());
        const Cycles barrier1 = slowest + input.barrierCost;
        for (std::size_t t = 0; t < nthreads; ++t) {
            const Cycles wait = barrier1 - pass1_done[t];
            result.barrierWaitCycles += wait;
            if (nepochs > 0)
                result.barrierStallPerBlock[t][stall_epoch(l)] += wait;
        }
        if (traced)
            ttr.complete(tl->barrier, slowest, input.barrierCost,
                         telemetry::SpanTracer::kSimPid, mastertid,
                         tl->epochArg, l);

        if (l == 0) {
            for (std::size_t t = 0; t < nthreads; ++t)
                lg_ready[t] = barrier1;
            final_time = barrier1;
            continue;
        }

        // Pass 2 over epoch l-1 (its wings through epoch l are complete).
        std::vector<Cycles> pass2_done(nthreads, 0);
        for (std::size_t t = 0; t < nthreads; ++t) {
            pass2_done[t] = barrier1 + input.costs[t][l - 1].pass2Cost;
            if (traced)
                ttr.complete(tl->pass2, barrier1,
                             input.costs[t][l - 1].pass2Cost,
                             telemetry::SpanTracer::kSimPid,
                             static_cast<std::uint16_t>(t), tl->epochArg,
                             l - 1);
        }

        const Cycles slowest2 =
            *std::max_element(pass2_done.begin(), pass2_done.end());
        Cycles barrier2 = slowest2 + input.barrierCost;
        for (std::size_t t = 0; t < nthreads; ++t) {
            const Cycles wait = barrier2 - pass2_done[t];
            result.barrierWaitCycles += wait;
            result.barrierStallPerBlock[t][l - 1] += wait;
        }
        if (traced)
            ttr.complete(tl->barrier, slowest2, input.barrierCost,
                         telemetry::SpanTracer::kSimPid, mastertid,
                         tl->epochArg, l - 1);

        // Master thread folds the epoch summary into the SOS.
        if (l - 1 < input.sosUpdateCost.size()) {
            if (traced && input.sosUpdateCost[l - 1] > 0)
                ttr.complete(tl->sosUpdate, barrier2,
                             input.sosUpdateCost[l - 1],
                             telemetry::SpanTracer::kSimPid, mastertid,
                             tl->epochArg, l - 1);
            barrier2 += input.sosUpdateCost[l - 1];
        }

        for (std::size_t t = 0; t < nthreads; ++t)
            lg_ready[t] = barrier2;
        final_time = barrier2;
    }

    result.totalCycles = final_time;
    result.appCycles = *std::max_element(produce.begin(), produce.end());
    return result;
}

TimingResult
simulateButterflyPipelined(const ButterflyTimingInput &input,
                           std::size_t workers, bool strict_finalize)
{
    const std::size_t T = input.costs.size();
    ensure(T > 0, "butterfly timing needs at least one thread");
    ensure(workers > 0, "pipelined timing needs at least one worker");
    const std::size_t L = input.costs[0].size();
    for (const auto &per_thread : input.costs) {
        ensure(per_thread.size() == L,
               "all threads must have the same epoch count");
    }

    TimingResult result;
    for (std::size_t t = 0; t < T; ++t) {
        Cycles app = 0;
        for (const EpochCosts &block : input.costs[t])
            for (Cycles c : block.appCost)
                app += c;
        result.appCycles = std::max(result.appCycles, app);
    }
    if (L == 0)
        return result;

    // Task table of DESIGN.md §7's edge list: A(0..L), P1, P2, F, R.
    // Admission and retirement cost nothing but still order the graph.
    const std::size_t p1_base = L + 1;
    const std::size_t p2_base = p1_base + L * T;
    const std::size_t f_base = p2_base + L * T;
    const std::size_t r_base = f_base + L;
    const std::size_t total = r_base + L;
    const auto p1_id = [&](std::size_t l, std::size_t t) {
        return p1_base + l * T + t;
    };
    const auto p2_id = [&](std::size_t l, std::size_t t) {
        return p2_base + l * T + t;
    };

    std::vector<Cycles> duration(total, 0);
    for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t t = 0; t < T; ++t) {
            Cycles p1 = 0;
            for (Cycles c : input.costs[t][l].pass1Cost)
                p1 += c;
            duration[p1_id(l, t)] = p1;
            duration[p2_id(l, t)] = input.costs[t][l].pass2Cost;
        }
        if (l < input.sosUpdateCost.size())
            duration[f_base + l] = input.sosUpdateCost[l];
    }

    std::vector<std::vector<std::uint32_t>> succ(total);
    std::vector<std::uint32_t> pending(total, 0);
    const auto add_edge = [&](std::size_t task, std::size_t prereq) {
        ++pending[task];
        succ[prereq].push_back(static_cast<std::uint32_t>(task));
    };
    for (std::size_t l = 0; l <= L; ++l) {
        if (l == 1)
            for (std::size_t u = 0; u < T; ++u)
                add_edge(1, p1_id(0, u));
        if (l >= 2)
            add_edge(l, f_base + (l - 2));
        if (l >= 3)
            add_edge(l, r_base + (l - 3));
    }
    for (std::size_t l = 0; l < L; ++l) {
        for (std::size_t t = 0; t < T; ++t) {
            add_edge(p1_id(l, t), l);
            add_edge(p2_id(l, t), l + 1);
            if (l + 1 < L)
                for (std::size_t u = 0; u < T; ++u)
                    if (u != t)
                        add_edge(p2_id(l, t), p1_id(l + 1, u));
        }
        if (l >= 1)
            add_edge(f_base + l, f_base + (l - 1));
        if (strict_finalize)
            for (std::size_t t = 0; t < T; ++t)
                add_edge(f_base + l, p2_id(l, t));
        if (l + 1 < L)
            for (std::size_t t = 0; t < T; ++t)
                add_edge(f_base + l, p1_id(l + 1, t));
        if (!strict_finalize && L == 1)
            for (std::size_t t = 0; t < T; ++t)
                add_edge(f_base, p1_id(0, t));
        for (std::size_t t = 0; t < T; ++t)
            add_edge(r_base + l, p2_id(l, t));
        if (l >= 1)
            add_edge(r_base + l, r_base + (l - 1));
    }

    // Greedy work-conserving list scheduling on `workers` identical
    // cores: a task starts on the earliest-free core once every
    // prerequisite has finished; ties break by task id (graph order).
    // Min-heaps via sort-free priority queues.
    using ReadyEntry = std::pair<Cycles, std::size_t>; // (ready, id)
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                        std::greater<ReadyEntry>>
        ready;
    std::priority_queue<Cycles, std::vector<Cycles>, std::greater<Cycles>>
        core_free;
    for (std::size_t w = 0; w < workers; ++w)
        core_free.push(0);
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>,
                        std::greater<ReadyEntry>>
        running; // (finish, id)

    for (std::size_t id = 0; id < total; ++id)
        if (pending[id] == 0)
            ready.push({0, id});

    // Completions may be processed out of chronological order (instant
    // zero-duration tasks vs. running ones), so a successor's ready time
    // is the max prerequisite finish, tracked explicitly.
    std::vector<Cycles> ready_time(total, 0);
    const auto complete = [&](std::size_t id, Cycles finish) {
        for (std::uint32_t s : succ[id]) {
            ready_time[s] = std::max(ready_time[s], finish);
            if (--pending[s] == 0)
                ready.push({ready_time[s], s});
        }
    };

    std::size_t done = 0;
    while (done < total) {
        // Start every ready task whose prerequisites allow it, earliest
        // first; when nothing can start, retire the next completion.
        if (!ready.empty()) {
            const auto [ready_at, id] = ready.top();
            // A zero-duration task (admission, retirement, or an empty
            // block) completes instantly without occupying a core.
            if (duration[id] == 0) {
                ready.pop();
                ++done;
                complete(id, ready_at);
                continue;
            }
            // Needs a core; with every core busy, fall through to the
            // next completion, which frees one.
            if (!core_free.empty()) {
                const Cycles core_at = core_free.top();
                const Cycles start = std::max(ready_at, core_at);
                // If a running task finishes before this one could
                // start, process that completion first: it may ready an
                // earlier-runnable task.
                if (running.empty() || running.top().first >= start) {
                    ready.pop();
                    core_free.pop();
                    result.taskWaitCycles += start - ready_at;
                    running.push({start + duration[id], id});
                    continue;
                }
            }
        }
        ensure(!running.empty(),
               "pipelined timing graph stalled with tasks unfinished");
        const auto [finish, id] = running.top();
        running.pop();
        core_free.push(finish);
        ++done;
        complete(id, finish);
    }

    Cycles makespan = 0;
    while (!core_free.empty()) {
        makespan = std::max(makespan, core_free.top());
        core_free.pop();
    }
    result.totalCycles = makespan;
    return result;
}

TimingResult
simulateUnmonitored(const std::vector<Cycles> &per_thread_cost)
{
    TimingResult result;
    for (Cycles c : per_thread_cost) {
        result.totalCycles = std::max(result.totalCycles, c);
        result.appCycles = result.totalCycles;
    }
    return result;
}

} // namespace bfly
