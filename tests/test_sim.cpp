/** @file Unit tests for src/sim: caches, CMP hierarchy, LBA timing. */

#include <algorithm>
#include <iterator>
#include <span>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/cmp.hpp"
#include "sim/core_model.hpp"
#include "sim/lba.hpp"

namespace bfly {
namespace {

TEST(Cache, HitAfterMiss)
{
    Cache cache(CacheConfig{1024, 2, 64, 1});
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f)); // same 64B line
    EXPECT_FALSE(cache.access(0x140)); // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2-way, 64B lines, 2 sets (256B total): lines 0,2,4 map to set 0.
    Cache cache(CacheConfig{256, 2, 64, 1});
    cache.access(0 * 64);
    cache.access(2 * 64);
    cache.access(0 * 64);      // refresh line 0
    cache.access(4 * 64);      // evicts line 2 (LRU)
    EXPECT_TRUE(cache.probe(0 * 64));
    EXPECT_FALSE(cache.probe(2 * 64));
    EXPECT_TRUE(cache.probe(4 * 64));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache(CacheConfig{1024, 2, 64, 1});
    cache.access(0x100);
    EXPECT_TRUE(cache.probe(0x100));
    cache.invalidate(0x100);
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_EQ(cache.invalidations(), 1u);
    cache.invalidate(0x100); // no-op
    EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(Cache, FlushClearsEverything)
{
    Cache cache(CacheConfig{1024, 2, 64, 1});
    cache.access(0x100);
    cache.access(0x500);
    cache.flush();
    EXPECT_FALSE(cache.probe(0x100));
    EXPECT_FALSE(cache.probe(0x500));
}

TEST(CmpConfig, Table1L2Scaling)
{
    EXPECT_EQ(CmpConfig::forCores(4).l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(CmpConfig::forCores(8).l2.sizeBytes, 4u * 1024 * 1024);
    EXPECT_EQ(CmpConfig::forCores(16).l2.sizeBytes, 8u * 1024 * 1024);
}

TEST(Cmp, Table1LatenciesPerLevel)
{
    // Table 1: L1 2 cycles, L2 +6, memory +90.
    Cmp cmp(CmpConfig::forCores(4));
    EXPECT_EQ(cmp.access(0, 0x1000, false), 2u + 6 + 90); // cold miss
    EXPECT_EQ(cmp.access(0, 0x1000, false), 2u);          // L1 hit
    // Another core misses L1 but hits the shared L2.
    EXPECT_EQ(cmp.access(1, 0x1000, false), 2u + 6);
}

TEST(Cmp, WriteInvalidatesOtherCores)
{
    Cmp cmp(CmpConfig::forCores(4));
    cmp.access(0, 0x2000, false);
    cmp.access(1, 0x2000, false);
    cmp.access(1, 0x2000, true); // write: invalidates core 0's copy
    // Core 0 now misses L1 (hits L2).
    EXPECT_EQ(cmp.access(0, 0x2000, false), 2u + 6);
    EXPECT_EQ(cmp.stats().coherenceInvalidations, 1u);
}

TEST(CacheStats, EqualityComparesEveryField)
{
    // PerfReport equality (and the session stage-graph tests built on
    // it) compares cache counters with this operator: a field it
    // skipped would let two replays disagree unnoticed.
    const CacheStats base{1, 2, 3, 4, 5};
    EXPECT_EQ(base, (CacheStats{1, 2, 3, 4, 5}));
    EXPECT_EQ(CacheStats{}, (CacheStats{0, 0, 0, 0, 0}));
    std::uint64_t CacheStats::*const fields[] = {
        &CacheStats::coherenceInvalidations, &CacheStats::l1Hits,
        &CacheStats::l1Misses, &CacheStats::l2Hits, &CacheStats::l2Misses};
    for (std::size_t f = 0; f < std::size(fields); ++f) {
        CacheStats other = base;
        ++(other.*fields[f]);
        EXPECT_FALSE(other == base) << "field " << f;
    }
}

TEST(Cmp, StatsCountEachLevel)
{
    // The Table 1 walk: a cold miss in L1 and L2, an L1 hit, then
    // another core's L1 miss served by the shared L2.
    Cmp cmp(CmpConfig::forCores(4));
    cmp.access(0, 0x1000, false);
    cmp.access(0, 0x1000, false);
    cmp.access(1, 0x1000, false);
    EXPECT_EQ(cmp.stats(), (CacheStats{0, 1, 2, 1, 1}));
}

TEST(Cmp, StatsSumOverEveryCoreAndBank)
{
    // Every access probes one L1; exactly the L1 misses probe an L2
    // bank; so the summed counters balance whatever the access mix.
    Cmp cmp(CmpConfig::forCores(4));
    Rng rng(0xcace);
    const std::size_t n = 20000;
    for (std::size_t i = 0; i < n; ++i)
        cmp.access(static_cast<unsigned>(rng.below(4)),
                   0x10000 + 8 * rng.below(1 << 16), rng.chance(0.3));
    const CacheStats s = cmp.stats();
    EXPECT_EQ(s.l1Hits + s.l1Misses, n);
    EXPECT_EQ(s.l2Hits + s.l2Misses, s.l1Misses);
    EXPECT_GT(s.l1Hits, 0u);
    EXPECT_GT(s.l2Hits, 0u);
    EXPECT_GT(s.l2Misses, 0u);
    EXPECT_GT(s.coherenceInvalidations, 0u);
}

TEST(CoreModel, EventCosts)
{
    CoreModel core;
    EXPECT_EQ(core.cost(Event::nop(), 0), 1u);
    EXPECT_EQ(core.cost(Event::read(0x10), 8), 8u);
    EXPECT_EQ(core.cost(Event::heartbeat(), 0), 0u);
    EXPECT_EQ(core.cost(Event::alloc(0x10, 8), 2),
              core.allocatorOverhead + 2);
}

TEST(SimulateSpsc, ConsumerBoundPipeline)
{
    // Producer 1 cycle/record, consumer 10: end time ~ n*10.
    std::vector<Cycles> prod(100, 1), cons(100, 10);
    const TimingResult r = simulateSpsc(prod, cons, 4);
    EXPECT_EQ(r.totalCycles, 1u + 100 * 10);
    // Producer runs 4 ahead then stalls on the full buffer.
    EXPECT_GT(r.appStallCycles, 0u);
}

TEST(SimulateSpsc, ProducerBoundPipeline)
{
    std::vector<Cycles> prod(100, 10), cons(100, 1);
    const TimingResult r = simulateSpsc(prod, cons, 4);
    EXPECT_EQ(r.totalCycles, 100u * 10 + 1); // last consume after last prod
    EXPECT_EQ(r.appStallCycles, 0u);
}

TEST(SimulateSpsc, TinyBufferSerializes)
{
    std::vector<Cycles> prod(10, 5), cons(10, 5);
    const TimingResult r1 = simulateSpsc(prod, cons, 1);
    const TimingResult big = simulateSpsc(prod, cons, 64);
    EXPECT_GE(r1.totalCycles, big.totalCycles);
}

TEST(SimulateButterfly, BarrierCostsAccumulatePerEpoch)
{
    // 2 threads, 3 epochs, no events: total = per-epoch fixed costs only.
    ButterflyTimingInput in;
    in.costs.assign(2, std::vector<EpochCosts>(3));
    in.barrierCost = 100;
    in.sosUpdateCost = {10, 10, 10};
    const TimingResult r = simulateButterfly(in);
    // Epoch pipeline: 4 pass-1 barriers (incl. drain step) + 3 pass-2
    // barriers + 3 SOS updates.
    EXPECT_EQ(r.totalCycles, 4u * 100 + 3 * 100 + 3 * 10);
}

TEST(SimulateButterfly, SlowestThreadGatesTheBarrier)
{
    ButterflyTimingInput in;
    in.costs.assign(2, std::vector<EpochCosts>(1));
    in.barrierCost = 0;
    const std::vector<Cycles> app = {1, 1};
    in.costs[0][0].appCost = app;
    in.costs[0][0].pass1Cost = {5, 5};
    in.costs[1][0].appCost = std::span(app).first(1);
    in.costs[1][0].pass1Cost = {100};
    const TimingResult r = simulateButterfly(in);
    EXPECT_GE(r.totalCycles, 101u);
    EXPECT_GT(r.barrierWaitCycles, 0u); // thread 0 waited for thread 1
}

TEST(SimulateButterfly, Pass2CostDelaysCompletion)
{
    ButterflyTimingInput base;
    base.costs.assign(1, std::vector<EpochCosts>(2));
    base.barrierCost = 0;
    const std::vector<Cycles> app = {1};
    base.costs[0][0].appCost = app;
    base.costs[0][0].pass1Cost = {1};
    ButterflyTimingInput heavy = base;
    heavy.costs[0][0].pass2Cost = 1000;
    EXPECT_GT(simulateButterfly(heavy).totalCycles,
              simulateButterfly(base).totalCycles);
}

TEST(SimulateButterfly, BufferBackPressureStallsApp)
{
    // Slow lifeguard + tiny buffer: the app must stall.
    ButterflyTimingInput in;
    in.costs.assign(1, std::vector<EpochCosts>(1));
    in.bufferCapacity = 2;
    const std::vector<Cycles> app(50, 1);
    in.costs[0][0].appCost = app;
    in.costs[0][0].pass1Cost.assign(50, 20);
    const TimingResult r = simulateButterfly(in);
    EXPECT_GT(r.appStallCycles, 0u);
    EXPECT_GT(r.appCycles, 50u); // far more than unmonitored 50 cycles
}

// ---------------------------------------------------------------------
// The division-based simulator loops, kept as references: the cache
// that divides for its line and set and keeps a 24-byte way with a
// valid flag, the CMP that probes then invalidates every other L1, and
// the log ring indexed by two remainders per record.
// ---------------------------------------------------------------------

class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config)
        : config_(config), numSets_(config.numSets()),
          ways_(numSets_ * config.assoc)
    {}

    bool
    access(Addr addr)
    {
        const Addr line = lineOf(addr);
        const std::size_t base = setOf(line) * config_.assoc;
        ++clock_;
        std::size_t victim = base;
        for (std::size_t w = base; w < base + config_.assoc; ++w) {
            if (ways_[w].valid && ways_[w].tag == line) {
                ways_[w].lastUse = clock_;
                ++hits_;
                return true;
            }
            if (!ways_[w].valid) {
                victim = w;
            } else if (ways_[victim].valid &&
                       ways_[w].lastUse < ways_[victim].lastUse) {
                victim = w;
            }
        }
        ++misses_;
        ways_[victim] = {line, clock_, true};
        return false;
    }

    bool
    probe(Addr addr) const
    {
        const Addr line = lineOf(addr);
        const std::size_t base = setOf(line) * config_.assoc;
        for (std::size_t w = base; w < base + config_.assoc; ++w)
            if (ways_[w].valid && ways_[w].tag == line)
                return true;
        return false;
    }

    void
    invalidate(Addr addr)
    {
        const Addr line = lineOf(addr);
        const std::size_t base = setOf(line) * config_.assoc;
        for (std::size_t w = base; w < base + config_.assoc; ++w) {
            if (ways_[w].valid && ways_[w].tag == line) {
                ways_[w].valid = false;
                ++invalidations_;
                return;
            }
        }
    }

    void
    flush()
    {
        for (Way &w : ways_)
            w.valid = false;
    }

    bool
    empty() const
    {
        for (const Way &w : ways_)
            if (w.valid)
                return false;
        return true;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    struct Way
    {
        Addr tag = kNoAddr;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    Addr lineOf(Addr addr) const { return addr / config_.lineBytes; }

    std::size_t
    setOf(Addr line) const
    {
        return (line / config_.indexDivisor) % numSets_;
    }

    CacheConfig config_;
    std::size_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
};

TEST(Cache, MatchesTheDividingReference)
{
    // Random access / probe / invalidate / flush streams over addresses
    // that crowd a few sets, on power-of-two geometries at the edges:
    // one set, direct-mapped, 16 ways, a banked index divisor, and the
    // Table 1 L1.
    const CacheConfig configs[] = {
        {256, 4, 64, 1, 1},      // one set
        {1024, 1, 64, 1, 1},     // direct-mapped
        {16 * 1024, 16, 64, 1},  // 16 ways, 16 sets
        {4096, 2, 32, 1, 4},     // banked: sets indexed by line / 4
        {64 * 1024, 4, 64, 2},   // Table 1 L1
        {8, 2, 2, 1, 2},         // two-byte lines
    };
    for (std::size_t c = 0; c < std::size(configs); ++c) {
        SCOPED_TRACE(c);
        const CacheConfig &cfg = configs[c];
        Cache cache(cfg);
        ReferenceCache ref(cfg);
        Rng rng(100 + c);
        const Addr span = 4 * cfg.sizeBytes;
        std::size_t mismatches = 0;
        for (std::size_t op = 0; op < 40000; ++op) {
            const Addr addr = 0x40000 + rng.below(span);
            const std::uint64_t what = rng.below(100);
            if (what < 80) {
                mismatches += cache.access(addr) != ref.access(addr);
            } else if (what < 90) {
                mismatches += cache.probe(addr) != ref.probe(addr);
            } else if (what < 99) {
                const bool resident = ref.probe(addr);
                ref.invalidate(addr);
                mismatches += cache.invalidate(addr) != resident;
            } else {
                cache.flush();
                ref.flush();
            }
            if (op % 256 == 0)
                mismatches += cache.empty() != ref.empty();
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(cache.hits(), ref.hits());
        EXPECT_EQ(cache.misses(), ref.misses());
        EXPECT_EQ(cache.invalidations(), ref.invalidations());
        EXPECT_GT(cache.hits(), 0u);
        EXPECT_GT(cache.misses(), 0u);
        EXPECT_GT(cache.invalidations(), 0u);
    }
}

TEST(Cache, RefusesAGeometryThatIsNotAPowerOfTwo)
{
    EXPECT_DEATH(Cache(CacheConfig{3 * 4 * 64, 4, 64, 1}),
                 "set count must be a power of two");
    EXPECT_DEATH(Cache(CacheConfig{4 * 48, 4, 48, 1}),
                 "line size must be a power of two");
    EXPECT_DEATH(Cache(CacheConfig{64, 4, 1, 1}),
                 "line size must be a power of two");
    EXPECT_DEATH(Cache(CacheConfig{1024, 2, 64, 1, 3}),
                 "index divisor must be a power of two");
    EXPECT_DEATH(Cache(CacheConfig{1024, 0, 64, 1}), "at least one way");
    CmpConfig banks = CmpConfig::forCores(4);
    banks.l2Banks = 3;
    EXPECT_DEATH(Cmp{banks}, "bank count must be a power of two");
    // Associativity may be any count; the default configs are accepted.
    EXPECT_EQ(Cache(CacheConfig{3 * 64, 3, 64, 1}).misses(), 0u);
    for (const unsigned cores : {1u, 2u, 3u, 4u, 6u, 8u, 16u, 32u})
        EXPECT_EQ(Cmp(CmpConfig::forCores(cores)).stats(), CacheStats{});
}

/** The CMP over reference caches, with its probe-then-invalidate pass
 *  over every other L1. */
class ReferenceCmp
{
  public:
    explicit ReferenceCmp(const CmpConfig &config) : config_(config)
    {
        for (unsigned c = 0; c < config_.numCores; ++c)
            l1_.emplace_back(config_.l1d);
        CacheConfig bank = config_.l2;
        bank.sizeBytes = config_.l2.sizeBytes / config_.l2Banks;
        bank.indexDivisor = config_.l2Banks;
        for (unsigned b = 0; b < config_.l2Banks; ++b)
            l2_.emplace_back(bank);
    }

    Cycles
    access(unsigned core, Addr addr, bool is_write)
    {
        Cycles latency = config_.l1d.latency;
        if (!l1_[core].access(addr)) {
            latency += config_.l2.latency;
            const std::size_t bank =
                (addr / config_.l2.lineBytes) % config_.l2Banks;
            if (!l2_[bank].access(addr))
                latency += config_.memLatency;
        }
        if (is_write) {
            for (unsigned c = 0; c < l1_.size(); ++c) {
                if (c != core && l1_[c].probe(addr)) {
                    l1_[c].invalidate(addr);
                    ++coherenceMisses_;
                }
            }
        }
        return latency;
    }

    CacheStats
    stats() const
    {
        CacheStats s;
        s.coherenceInvalidations = coherenceMisses_;
        for (const ReferenceCache &c : l1_) {
            s.l1Hits += c.hits();
            s.l1Misses += c.misses();
        }
        for (const ReferenceCache &c : l2_) {
            s.l2Hits += c.hits();
            s.l2Misses += c.misses();
        }
        return s;
    }

  private:
    CmpConfig config_;
    std::vector<ReferenceCache> l1_;
    std::vector<ReferenceCache> l2_;
    std::uint64_t coherenceMisses_ = 0;
};

TEST(Cmp, MatchesTheProbingReferenceWithIdleCores)
{
    // The perf model's parallel replay: 2T cores of which only the T
    // application cores access memory, so the lifeguard cores' L1s stay
    // empty. Then every core joins in, and the L1s are shrunk so lines
    // get evicted between a core's accesses.
    for (const bool all_cores : {false, true}) {
        SCOPED_TRACE(all_cores ? "every core" : "4 of 8 cores");
        CmpConfig cfg = CmpConfig::forCores(8);
        if (all_cores)
            cfg.l1d.sizeBytes = 4 * 1024;
        Cmp cmp(cfg);
        ReferenceCmp ref(cfg);
        Rng rng(0x5eed);
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < 60000; ++i) {
            const auto core =
                static_cast<unsigned>(rng.below(all_cores ? 8 : 4));
            // A shared band the cores write to, and private ones.
            const Addr addr = rng.chance(0.3)
                                  ? 0x100000 + 8 * rng.below(2048)
                                  : 0x200000 * (core + 1) +
                                        8 * rng.below(1 << 14);
            const bool is_write = rng.chance(0.35);
            mismatches +=
                cmp.access(core, addr, is_write) !=
                ref.access(core, addr, is_write);
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(cmp.stats(), ref.stats());
        EXPECT_GT(cmp.stats().coherenceInvalidations, 0u);
        EXPECT_GT(cmp.stats().l2Misses, 0u);
    }
}

/** Ring of consume-completion times indexed by two remainders. */
class ReferenceRing
{
  public:
    explicit ReferenceRing(std::size_t capacity)
        : ring_(capacity, 0), capacity_(capacity)
    {}

    Cycles
    slotFree(std::uint64_t i) const
    {
        if (i < capacity_)
            return 0;
        return ring_[(i - capacity_) % capacity_];
    }

    void record(std::uint64_t i, Cycles done) { ring_[i % capacity_] = done; }

  private:
    std::vector<Cycles> ring_;
    std::size_t capacity_;
};

TimingResult
referenceSpsc(std::span<const Cycles> prod_cost,
              std::span<const Cycles> cons_cost, std::size_t capacity)
{
    TimingResult result;
    ReferenceRing ring(capacity);
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

/** simulateButterfly without its timeline export, on the reference
 *  ring with a record index per thread. */
TimingResult
referenceButterfly(const ButterflyTimingInput &input)
{
    const std::size_t nthreads = input.costs.size();
    const std::size_t nepochs = input.costs[0].size();
    TimingResult result;
    result.barrierStallPerBlock.assign(
        nthreads, std::vector<Cycles>(nepochs, 0));
    auto stall_epoch = [&](std::size_t l) {
        return std::min(l, nepochs - 1);
    };
    std::vector<ReferenceRing> rings(nthreads,
                                     ReferenceRing(input.bufferCapacity));
    std::vector<Cycles> produce(nthreads, 0);
    std::vector<Cycles> consume(nthreads, 0);
    std::vector<std::uint64_t> record_index(nthreads, 0);
    std::vector<Cycles> lg_ready(nthreads, 0);
    Cycles final_time = 0;
    for (std::size_t l = 0; l <= nepochs; ++l) {
        std::vector<Cycles> pass1_done(nthreads, 0);
        if (l < nepochs) {
            for (std::size_t t = 0; t < nthreads; ++t) {
                const EpochCosts &block = input.costs[t][l];
                Cycles cons = std::max(consume[t], lg_ready[t]);
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
            }
        } else {
            for (std::size_t t = 0; t < nthreads; ++t)
                pass1_done[t] = std::max(consume[t], lg_ready[t]);
        }
        const Cycles barrier1 =
            *std::max_element(pass1_done.begin(), pass1_done.end()) +
            input.barrierCost;
        for (std::size_t t = 0; t < nthreads; ++t) {
            const Cycles wait = barrier1 - pass1_done[t];
            result.barrierWaitCycles += wait;
            if (nepochs > 0)
                result.barrierStallPerBlock[t][stall_epoch(l)] += wait;
        }
        if (l == 0) {
            for (std::size_t t = 0; t < nthreads; ++t)
                lg_ready[t] = barrier1;
            final_time = barrier1;
            continue;
        }
        std::vector<Cycles> pass2_done(nthreads, 0);
        for (std::size_t t = 0; t < nthreads; ++t)
            pass2_done[t] = barrier1 + input.costs[t][l - 1].pass2Cost;
        Cycles barrier2 =
            *std::max_element(pass2_done.begin(), pass2_done.end()) +
            input.barrierCost;
        for (std::size_t t = 0; t < nthreads; ++t) {
            const Cycles wait = barrier2 - pass2_done[t];
            result.barrierWaitCycles += wait;
            result.barrierStallPerBlock[t][l - 1] += wait;
        }
        if (l - 1 < input.sosUpdateCost.size())
            barrier2 += input.sosUpdateCost[l - 1];
        for (std::size_t t = 0; t < nthreads; ++t)
            lg_ready[t] = barrier2;
        final_time = barrier2;
    }
    result.totalCycles = final_time;
    result.appCycles = *std::max_element(produce.begin(), produce.end());
    return result;
}

void
expectSameTiming(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.appCycles, b.appCycles);
    EXPECT_EQ(a.appStallCycles, b.appStallCycles);
    EXPECT_EQ(a.barrierWaitCycles, b.barrierWaitCycles);
    EXPECT_EQ(a.barrierStallPerBlock, b.barrierStallPerBlock);
    EXPECT_EQ(a.taskWaitCycles, b.taskWaitCycles);
}

TEST(SimulateSpsc, MatchesTheRemainderRingReference)
{
    // Capacities 1, 3 and 512, with record counts below, at and above
    // each; bursty costs so the producer both stalls and runs ahead.
    for (const std::size_t capacity : {1u, 3u, 512u}) {
        for (const std::size_t n :
             {std::size_t{0}, capacity - 1, capacity, capacity + 1,
              3 * capacity + 2, std::size_t{5000}}) {
            SCOPED_TRACE(testing::Message()
                         << "capacity " << capacity << ", " << n
                         << " records");
            Rng rng(capacity * 7919 + n);
            std::vector<Cycles> prod(n), cons(n);
            for (std::size_t i = 0; i < n; ++i) {
                prod[i] = rng.chance(0.1) ? 40 + rng.below(200)
                                          : 1 + rng.below(8);
                cons[i] = rng.chance(0.2) ? 30 + rng.below(100)
                                          : 2 + rng.below(10);
            }
            expectSameTiming(simulateSpsc(prod, cons, capacity),
                             referenceSpsc(prod, cons, capacity));
        }
    }
}

TEST(SimulateButterfly, MatchesTheRemainderRingReference)
{
    // 3 threads, 5 epochs of uneven blocks (some empty, some longer than
    // the ring), so ring slots wrap inside a block and across epochs.
    for (const std::size_t capacity : {1u, 3u, 512u}) {
        for (const std::size_t scale : {1u, 40u, 400u}) {
            SCOPED_TRACE(testing::Message() << "capacity " << capacity
                                            << ", scale " << scale);
            Rng rng(capacity + 31 * scale);
            const std::size_t T = 3;
            const std::size_t L = 5;
            std::vector<std::vector<Cycles>> app(T);
            std::vector<std::vector<std::size_t>> sizes(
                T, std::vector<std::size_t>(L));
            for (std::size_t t = 0; t < T; ++t) {
                for (std::size_t l = 0; l < L; ++l) {
                    sizes[t][l] = rng.below(2 * scale + 1);
                    for (std::size_t k = 0; k < sizes[t][l]; ++k)
                        app[t].push_back(1 + rng.below(12));
                }
            }
            ButterflyTimingInput in;
            in.bufferCapacity = capacity;
            in.barrierCost = 50;
            in.costs.assign(T, std::vector<EpochCosts>(L));
            for (std::size_t t = 0; t < T; ++t) {
                std::size_t from = 0;
                for (std::size_t l = 0; l < L; ++l) {
                    EpochCosts &block = in.costs[t][l];
                    block.appCost =
                        std::span(app[t]).subspan(from, sizes[t][l]);
                    from += sizes[t][l];
                    for (std::size_t k = 0; k < sizes[t][l]; ++k)
                        block.pass1Cost.push_back(
                            rng.chance(0.3) ? 20 + rng.below(30)
                                            : 1 + rng.below(4));
                    block.pass2Cost = rng.below(300);
                }
            }
            for (std::size_t l = 0; l < L; ++l)
                in.sosUpdateCost.push_back(rng.below(100));
            expectSameTiming(simulateButterfly(in), referenceButterfly(in));
        }
    }
}

TEST(SimulateUnmonitored, MaxOfThreads)
{
    const TimingResult r = simulateUnmonitored({100, 250, 30});
    EXPECT_EQ(r.totalCycles, 250u);
}

} // namespace
} // namespace bfly
