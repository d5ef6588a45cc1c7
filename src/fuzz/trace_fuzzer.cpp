#include "fuzz/trace_fuzzer.hpp"

#include <algorithm>

namespace bfly::fuzz {

namespace {

/** Shared simulated heap window for every generated case. */
constexpr Addr kHeapBase = 0x10000;
constexpr Addr kHeapLimit = 0x18000;
/** Allocation slots are 64-byte aligned inside the window. */
constexpr std::size_t kSlots = 96;
/** Slots at and above this index are never allocated by any generator:
 *  accesses to them are guaranteed oracle errors (not just races). */
constexpr std::size_t kRogueSlotBase = 80;

Addr
slotAddr(std::size_t slot)
{
    return kHeapBase + static_cast<Addr>(slot) * 64;
}

std::uint16_t
drawSize(Rng &rng)
{
    static constexpr std::uint16_t sizes[] = {8, 8, 8, 4, 16, 32};
    return sizes[rng.below(std::size(sizes))];
}

/** A random access-ish event against slot @p a (no alloc/free). */
Event
drawAccess(Rng &rng, Addr a)
{
    switch (rng.below(4)) {
      case 0:
        return Event::write(a, drawSize(rng));
      case 1:
        return Event::use(a);
      default:
        return Event::read(a, drawSize(rng));
    }
}

/**
 * Racy allocation/free interleavings: every thread allocates, frees and
 * accesses the *same* small slot pool with no synchronization at all, so
 * double allocs, double frees, use-after-free and alloc/access races are
 * all common — the oracle flags plenty, and butterfly must subsume it.
 */
void
racyAllocFree(FuzzCase &c, Rng &rng, unsigned threads, std::size_t per)
{
    const std::size_t pool = 4 + rng.below(12);
    c.programs.assign(threads, {});
    for (unsigned t = 0; t < threads; ++t) {
        auto &p = c.programs[t];
        while (p.size() < per) {
            const Addr a = slotAddr(rng.below(pool));
            switch (rng.below(8)) {
              case 0:
                p.push_back(Event::alloc(a, drawSize(rng)));
                break;
              case 1:
                p.push_back(Event::freeOf(a, drawSize(rng)));
                break;
              case 2: // guaranteed-unallocated touch, sometimes
                if (rng.chance(0.3)) {
                    p.push_back(drawAccess(
                        rng, slotAddr(kRogueSlotBase + rng.below(8))));
                    break;
                }
                [[fallthrough]];
              default:
                p.push_back(drawAccess(rng, a));
            }
        }
    }
}

/**
 * Taint laundering: taint enters on one thread and is washed through
 * cross-thread Assign chains — copies into shared cells, partial
 * untaints, overwrites with trusted data — before reaching Use events on
 * *other* threads. Exercises the Check DFS over wing transfer functions
 * and both termination conditions.
 */
void
taintLaunder(FuzzCase &c, Rng &rng, unsigned threads, std::size_t per)
{
    const std::size_t pool = 6 + rng.below(10);
    c.programs.assign(threads, {});
    for (unsigned t = 0; t < threads; ++t) {
        auto &p = c.programs[t];
        while (p.size() < per) {
            const Addr a = slotAddr(rng.below(pool));
            const Addr b = slotAddr(rng.below(pool));
            switch (rng.below(10)) {
              case 0:
                p.push_back(Event::taintSrc(a, drawSize(rng)));
                break;
              case 1:
                p.push_back(Event::untaint(a, drawSize(rng)));
                break;
              case 2:
              case 3:
                p.push_back(Event::use(a));
                break;
              case 4: // trusted overwrite (untaints its range)
                p.push_back(Event::write(a, drawSize(rng)));
                break;
              case 5:
                p.push_back(
                    Event::assign2(a, b, slotAddr(rng.below(pool))));
                break;
              default: // the laundering step: copy b into a
                p.push_back(Event::assign(a, b));
            }
        }
    }
}

/**
 * Heartbeat-boundary straddles: work comes in phases of roughly H global
 * events; each phase's *last* events are allocation-state changes and the
 * next phase's *first* events access them, so metadata transitions land
 * right at (or skewed across) epoch boundaries.
 */
void
heartbeatStraddle(FuzzCase &c, Rng &rng, unsigned threads,
                  std::size_t per)
{
    c.globalH = 24 + rng.below(72);
    const std::size_t phase_per_thread =
        std::max<std::size_t>(2, c.globalH / std::max(1u, threads));
    const std::size_t pool = 8 + rng.below(8);
    c.programs.assign(threads, {});
    std::size_t phase = 0;
    bool grew = true;
    while (grew) {
        grew = false;
        const Addr hot = slotAddr(phase % pool);
        for (unsigned t = 0; t < threads; ++t) {
            auto &p = c.programs[t];
            if (p.size() >= per)
                continue;
            grew = true;
            // Phase opening: touch what the previous phase just changed.
            p.push_back(drawAccess(rng, hot));
            for (std::size_t i = 2; i < phase_per_thread; ++i)
                p.push_back(drawAccess(rng, slotAddr(rng.below(pool))));
            // Phase close: one thread flips allocation state of the slot
            // the *next* phase opens on.
            const Addr next_hot = slotAddr((phase + 1) % pool);
            if (t == phase % threads)
                p.push_back(rng.chance(0.5)
                                ? Event::alloc(next_hot, 64)
                                : Event::freeOf(next_hot, 64));
            else
                p.push_back(drawAccess(rng, slotAddr(rng.below(pool))));
        }
        ++phase;
    }
}

/**
 * Epoch-skewed progress: grossly unequal thread speeds (the interleaver's
 * speedWeights), so fast threads race many epochs ahead of slow ones and
 * stalled threads contribute empty blocks — the straggler pattern that
 * broke the first worker-pool protocol.
 */
void
epochSkew(FuzzCase &c, Rng &rng, unsigned threads, std::size_t per)
{
    racyAllocFree(c, rng, threads, per);
    c.speedWeights.resize(threads);
    for (unsigned t = 0; t < threads; ++t)
        c.speedWeights[t] = static_cast<double>(1u << rng.below(7));
    c.globalH = 16 + rng.below(112);
}

/**
 * Degenerate epochs: H so small that most epochs hold one or two events
 * (and many blocks are empty). Stresses window arithmetic, empty-block
 * summaries and the slicer's boundary handling.
 */
void
degenerateEpochs(FuzzCase &c, Rng &rng, unsigned threads,
                 std::size_t /*per*/)
{
    racyAllocFree(c, rng, threads, 6 + rng.below(10));
    if (rng.chance(0.4)) {
        // Mix in some taint flow at the same tiny scale.
        FuzzCase taint;
        taintLaunder(taint, rng, threads, 6);
        for (unsigned t = 0; t < threads; ++t)
            c.programs[t].insert(c.programs[t].end(),
                                 taint.programs[t].begin(),
                                 taint.programs[t].end());
    }
    c.globalH = 1 + rng.below(4);
    c.model = MemModel::SequentiallyConsistent; // drift must stay < H
}

/** Lock identities live outside the heap window so data-address-keyed
 *  lifeguards never confuse a lock with a monitored cell. */
constexpr Addr kLockBase = 0x20000;

Addr
lockAddr(std::size_t j)
{
    return kLockBase + static_cast<Addr>(j) * 8;
}

/**
 * Lock-churn: threads hammer a small pool of shared slots under a small
 * pool of locks. Most critical sections use the slot's designated lock
 * (race-free), but threads sometimes grab the *wrong* lock, skip locking
 * entirely, or release early and keep touching the slot — so LOCKSET's
 * candidate intersections drain at different rates per slot, and lock
 * acquisitions constantly straddle epoch boundaries. A prelude of allocs
 * keeps ADDRCHECK's view of the same traces mostly quiet.
 */
void
lockChurn(FuzzCase &c, Rng &rng, unsigned threads, std::size_t per)
{
    const std::size_t pool = 3 + rng.below(8);
    const std::size_t nlocks = 2 + rng.below(6);
    c.programs.assign(threads, {});
    for (unsigned t = 0; t < threads; ++t) {
        auto &p = c.programs[t];
        if (t == 0) {
            for (std::size_t s = 0; s < pool; ++s)
                p.push_back(Event::alloc(slotAddr(s), 64));
        }
        while (p.size() < per) {
            const std::size_t s = rng.below(pool);
            const Addr a = slotAddr(s);
            const std::size_t right = s % nlocks;
            switch (rng.below(10)) {
              case 0: // unsynchronized touch: a real race
                p.push_back(drawAccess(rng, a));
                break;
              case 1: { // wrong lock: drains the candidate set
                const Addr l = lockAddr(rng.below(nlocks));
                p.push_back(Event::lock(l));
                p.push_back(drawAccess(rng, a));
                p.push_back(Event::unlock(l));
                break;
              }
              case 2: // early release, then keep touching
                p.push_back(Event::lock(lockAddr(right)));
                p.push_back(drawAccess(rng, a));
                p.push_back(Event::unlock(lockAddr(right)));
                p.push_back(drawAccess(rng, a));
                break;
              case 3: // nested sections over two locks
                p.push_back(Event::lock(lockAddr(right)));
                p.push_back(Event::lock(lockAddr(rng.below(nlocks))));
                p.push_back(drawAccess(rng, a));
                p.push_back(Event::unlock(lockAddr(rng.below(nlocks))));
                p.push_back(Event::unlock(lockAddr(right)));
                break;
              default: { // well-locked critical section
                p.push_back(Event::lock(lockAddr(right)));
                const std::size_t body = 1 + rng.below(3);
                for (std::size_t i = 0; i < body; ++i)
                    p.push_back(drawAccess(rng, a));
                p.push_back(Event::unlock(lockAddr(right)));
                break;
              }
            }
        }
    }
}

/**
 * Leak laundering: heap pointers enter cells at Alloc events and are
 * washed through cross-thread Assign chains — copied into shared cells,
 * overwritten with plain data, re-derived from laundered copies — before
 * Output events ship cells to the outside world. Exercises ADDRLEAK's
 * window may-set closure and the must-kill SOS fold; Outputs of
 * never-allocated rogue slots are guaranteed clean sinks.
 */
void
leakLaunder(FuzzCase &c, Rng &rng, unsigned threads, std::size_t per)
{
    const std::size_t pool = 6 + rng.below(10);
    c.programs.assign(threads, {});
    for (unsigned t = 0; t < threads; ++t) {
        auto &p = c.programs[t];
        while (p.size() < per) {
            const Addr a = slotAddr(rng.below(pool));
            const Addr b = slotAddr(rng.below(pool));
            switch (rng.below(10)) {
              case 0: // pointer enters the cell
                p.push_back(Event::alloc(a, drawSize(rng)));
                break;
              case 1: // scrubbed with plain data
                p.push_back(Event::write(a, drawSize(rng)));
                break;
              case 2: // clean sink: rogue slots never hold a pointer
                p.push_back(Event::output(
                    slotAddr(kRogueSlotBase + rng.below(8)),
                    drawSize(rng)));
                break;
              case 3:
              case 4: // the sink under test
                p.push_back(Event::output(a, drawSize(rng)));
                break;
              case 5:
                p.push_back(
                    Event::assign2(a, b, slotAddr(rng.below(pool))));
                break;
              case 6: // launder from off-heap: degenerates to a kill
                p.push_back(Event::assign(a, 0x100 + 8 * rng.below(32)));
                break;
              default: // the laundering step: copy b into a
                p.push_back(Event::assign(a, b));
            }
        }
    }
}

/** Anything-goes soup over the full event vocabulary. */
void
randomSoup(FuzzCase &c, Rng &rng, unsigned threads, std::size_t per)
{
    const std::size_t pool = 4 + rng.below(28);
    c.programs.assign(threads, {});
    for (unsigned t = 0; t < threads; ++t) {
        auto &p = c.programs[t];
        while (p.size() < per) {
            const Addr a = rng.chance(0.9)
                               ? slotAddr(rng.below(pool))
                               : 0x100 + 8 * rng.below(64); // off-heap
            switch (rng.below(15)) {
              case 0:
                p.push_back(Event::alloc(a, drawSize(rng)));
                break;
              case 1:
                p.push_back(Event::freeOf(a, drawSize(rng)));
                break;
              case 2:
                p.push_back(Event::taintSrc(a, drawSize(rng)));
                break;
              case 3:
                p.push_back(Event::untaint(a, drawSize(rng)));
                break;
              case 4:
                p.push_back(Event::assign(a, slotAddr(rng.below(pool))));
                break;
              case 5:
                p.push_back(Event::assign2(a, slotAddr(rng.below(pool)),
                                           slotAddr(rng.below(pool))));
                break;
              case 6:
                p.push_back(Event::nop());
                break;
              case 7:
                p.push_back(Event::lock(lockAddr(rng.below(6))));
                break;
              case 8:
                p.push_back(Event::unlock(lockAddr(rng.below(6))));
                break;
              case 9:
                p.push_back(Event::output(a, drawSize(rng)));
                break;
              default:
                p.push_back(drawAccess(rng, a));
            }
        }
    }
}

using Generator = void (*)(FuzzCase &, Rng &, unsigned, std::size_t);

struct Scenario
{
    const char *name;
    Generator generate;
};

constexpr Scenario kScenarios[] = {
    {"racy-alloc-free", racyAllocFree},
    {"taint-launder", taintLaunder},
    {"heartbeat-straddle", heartbeatStraddle},
    {"epoch-skew", epochSkew},
    {"degenerate-epochs", degenerateEpochs},
    {"random-soup", randomSoup},
    {"lock-churn", lockChurn},
    {"leak-launder", leakLaunder},
};

/** True if swapping adjacent events preserves the thread's semantics:
 *  their address footprints must not overlap. */
bool
commutes(const Event &a, const Event &b)
{
    auto touches = [](const Event &e, Addr lo, Addr hi) {
        auto in = [&](Addr base, std::uint16_t sz) {
            if (base == kNoAddr)
                return false;
            const Addr end = base + (sz > 0 ? sz : 1);
            return base < hi && lo < end;
        };
        if (in(e.addr, e.size))
            return true;
        if (e.kind == EventKind::Assign) {
            if (e.nsrc >= 1 && in(e.src0, e.size))
                return true;
            if (e.nsrc >= 2 && in(e.src1, e.size))
                return true;
        }
        return false;
    };
    auto footprint = [](const Event &e, Addr out[3]) {
        out[0] = e.addr;
        out[1] = e.kind == EventKind::Assign && e.nsrc >= 1 ? e.src0
                                                            : kNoAddr;
        out[2] = e.kind == EventKind::Assign && e.nsrc >= 2 ? e.src1
                                                            : kNoAddr;
    };
    Addr fa[3];
    footprint(a, fa);
    for (Addr base : fa) {
        if (base == kNoAddr)
            continue;
        const Addr end = base + (a.size > 0 ? a.size : 1);
        if (touches(b, base, end))
            return false;
    }
    return true;
}

} // namespace

Trace
FuzzCase::materialize() const
{
    InterleaveConfig icfg;
    icfg.model = model;
    icfg.speedWeights = speedWeights;
    Rng rng(interleaveSeed);
    return interleave(programs, icfg, rng);
}

LifeguardParams
FuzzCase::lifeguardParams(Lifeguard lg, std::size_t num_threads) const
{
    LifeguardParams params;
    params.numThreads = num_threads;
    params.heapBase = heapBase;
    params.heapLimit = heapLimit;
    params.granularity = lifeguardEntry(lg).defaultGranularity;
    if (model == MemModel::TSO)
        params.termination = TaintTermination::Relaxed;
    return params;
}

const std::vector<std::string> &
scenarioNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const Scenario &s : kScenarios)
            out.emplace_back(s.name);
        return out;
    }();
    return names;
}

TraceFuzzer::TraceFuzzer(const FuzzerConfig &config)
    : config_(config), rng_(config.seed)
{}

FuzzCase
TraceFuzzer::generate(std::uint64_t case_seed) const
{
    Rng rng(case_seed);
    const Scenario &scenario = kScenarios[rng.below(std::size(kScenarios))];

    FuzzCase c;
    c.scenario = scenario.name;
    c.heapBase = kHeapBase;
    c.heapLimit = kHeapLimit;
    c.interleaveSeed = rng.next() | 1;
    c.globalH = 16 + rng.below(112);

    const unsigned threads =
        1 + static_cast<unsigned>(rng.below(config_.maxThreads));
    const std::size_t per =
        16 + rng.below(std::max<std::size_t>(1,
                                             config_.maxEventsPerThread -
                                                 15));
    scenario.generate(c, rng, threads, per);

    // TSO only when the epoch covers store-buffer drift comfortably
    // (the butterfly premise; see EpochLayout::byGlobalSeq).
    if (config_.allowTso && c.globalH >= 64 && rng.chance(0.4) &&
        c.model == MemModel::SequentiallyConsistent &&
        c.scenario != "degenerate-epochs")
        c.model = MemModel::TSO;
    return c;
}

FuzzCase
TraceFuzzer::mutate(const FuzzCase &base, std::uint64_t mutation_seed) const
{
    Rng rng(mutation_seed);
    FuzzCase c = base;
    c.scenario = base.scenario + "+mut";

    const unsigned rounds = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned round = 0; round < rounds; ++round) {
        // Non-empty threads, for the structural mutators (deletion and
        // splicing can empty a program mid-mutation).
        std::vector<std::size_t> busy;
        for (std::size_t t = 0; t < c.programs.size(); ++t)
            if (!c.programs[t].empty())
                busy.push_back(t);
        switch (rng.below(6)) {
          case 0: // schedule perturbation: same program, new interleaving
            c.interleaveSeed = rng.next() | 1;
            break;
          case 1: { // swap an adjacent commuting pair
            if (busy.empty())
                break;
            auto &p = c.programs[busy[rng.below(busy.size())]];
            if (p.size() < 2)
                break;
            const std::size_t i = rng.below(p.size() - 1);
            if (commutes(p[i], p[i + 1]))
                std::swap(p[i], p[i + 1]);
            break;
          }
          case 2: { // duplicate or delete one event
            if (busy.empty())
                break;
            auto &p = c.programs[busy[rng.below(busy.size())]];
            const std::size_t i = rng.below(p.size());
            if (rng.chance(0.5))
                p.insert(p.begin() + i, p[i]);
            else
                p.erase(p.begin() + i);
            break;
          }
          case 3: { // retarget an address within the slot pool
            if (busy.empty())
                break;
            auto &p = c.programs[busy[rng.below(busy.size())]];
            Event &e = p[rng.below(p.size())];
            if (e.addr != kNoAddr)
                e.addr = slotAddr(rng.below(kSlots));
            break;
          }
          case 4: // epoch-size jitter (keeps the TSO drift bound)
            if (c.model == MemModel::TSO)
                c.globalH = 64 + rng.below(128);
            else
                c.globalH =
                    std::max<std::size_t>(1, c.globalH / 2 +
                                                 rng.below(c.globalH + 1));
            break;
          default: { // splice a run of events onto another thread
            if (busy.size() < 2)
                break;
            const std::size_t from_i = rng.below(busy.size());
            const std::size_t from = busy[from_i];
            const std::size_t to =
                busy[(from_i + 1 + rng.below(busy.size() - 1)) %
                     busy.size()];
            auto &src = c.programs[from];
            auto &dst = c.programs[to];
            const std::size_t n =
                1 + rng.below(std::min<std::size_t>(8, src.size()));
            const std::size_t at = rng.below(src.size() - n + 1);
            dst.insert(dst.begin() + rng.below(dst.size() + 1),
                       src.begin() + at, src.begin() + at + n);
            src.erase(src.begin() + at, src.begin() + at + n);
            break;
          }
        }
    }
    return c;
}

FuzzCase
TraceFuzzer::next()
{
    FuzzCase c;
    if (!recent_.empty() && rng_.chance(config_.mutateProbability))
        c = mutate(recent_[rng_.below(recent_.size())], rng_.next());
    else
        c = generate(rng_.next());
    c.caseId = nextId_++;
    if (recent_.size() < 16)
        recent_.push_back(c);
    else
        recent_[rng_.below(recent_.size())] = c;
    return c;
}

} // namespace bfly::fuzz
