/** @file Unit tests for src/sim: caches, CMP hierarchy, LBA timing. */

#include <iterator>

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

TEST(SimulateUnmonitored, MaxOfThreads)
{
    const TimingResult r = simulateUnmonitored({100, 250, 30});
    EXPECT_EQ(r.totalCycles, 250u);
}

} // namespace
} // namespace bfly
