/** @file Unit tests for src/common: sets, shadow memory, heap, RNG. */

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/addr_set.hpp"
#include "common/heap.hpp"
#include "common/rng.hpp"
#include "common/shadow_memory.hpp"
#include "common/types.hpp"

namespace bfly {
namespace {

std::vector<Addr>
keysOf(const KeyRange &r)
{
    std::vector<Addr> keys;
    r.forEach([&](Addr k) { keys.push_back(k); });
    return keys;
}

TEST(KeyRange, CoversTheAccessedBytes)
{
    const KeyRange r = keyRange(0x1004, 8, 8);
    EXPECT_EQ(r.first, 0x200u);
    EXPECT_EQ(r.last, 0x201u);
    EXPECT_EQ(r.count(), 2u);
    EXPECT_EQ(keysOf(r), (std::vector<Addr>{0x200, 0x201}));
    EXPECT_EQ(keyRange(0x1000, 0, 8).count(), 1u); // zero size: one byte
}

TEST(KeyRange, StopsAtTheTopOfTheAddressSpaceAtGranularity1)
{
    // The last byte of an 8-byte access at 2^64 - 8 is 2^64 - 1: the
    // key loop must end there instead of wrapping to key 0.
    const KeyRange r = keyRange(kNoAddr - 7, 8, 1);
    EXPECT_EQ(r.first, kNoAddr - 7);
    EXPECT_EQ(r.last, kNoAddr);
    EXPECT_EQ(r.count(), 8u);
    const std::vector<Addr> keys = keysOf(r);
    ASSERT_EQ(keys.size(), 8u);
    EXPECT_EQ(keys.front(), kNoAddr - 7);
    EXPECT_EQ(keys.back(), kNoAddr);

    // An access running past the top is cut at its last byte.
    const KeyRange cut = keyRange(kNoAddr - 3, 8, 1);
    EXPECT_EQ(cut.first, kNoAddr - 3);
    EXPECT_EQ(cut.last, kNoAddr);
    EXPECT_EQ(keysOf(cut).size(), 4u);
    EXPECT_EQ(keyRange(kNoAddr, 0xffff, 1).count(), 1u);
}

TEST(KeyRange, StopsAtTheTopOfTheAddressSpaceAtGranularity8)
{
    const Addr top_key = kNoAddr / 8;
    const KeyRange r = keyRange(kNoAddr - 7, 8, 8);
    EXPECT_EQ(r.first, top_key);
    EXPECT_EQ(r.last, top_key);
    EXPECT_EQ(keysOf(r), std::vector<Addr>{top_key});

    // Wrapping used to make last < first, silently skipping every key.
    const KeyRange cut = keyRange(kNoAddr - 11, 16, 8);
    EXPECT_EQ(cut.first, top_key - 1);
    EXPECT_EQ(cut.last, top_key);
    EXPECT_EQ(keysOf(cut), (std::vector<Addr>{top_key - 1, top_key}));
}

TEST(FlatSet, BasicOperations)
{
    AddrSet s{1, 2, 3};
    EXPECT_TRUE(s.contains(1));
    EXPECT_FALSE(s.contains(4));
    EXPECT_EQ(s.size(), 3u);
    s.insert(4);
    EXPECT_TRUE(s.contains(4));
    s.erase(1);
    EXPECT_FALSE(s.contains(1));
    s.clear();
    EXPECT_TRUE(s.empty());
}

TEST(FlatSet, UnionIntersectDifference)
{
    const AddrSet a{1, 2, 3};
    const AddrSet b{2, 3, 4};
    EXPECT_EQ(setUnion(a, b).sorted(), (std::vector<Addr>{1, 2, 3, 4}));
    EXPECT_EQ(setIntersect(a, b).sorted(), (std::vector<Addr>{2, 3}));
    EXPECT_EQ(setDifference(a, b).sorted(), (std::vector<Addr>{1}));
    EXPECT_EQ(setDifference(b, a).sorted(), (std::vector<Addr>{4}));
}

TEST(FlatSet, Intersects)
{
    const AddrSet a{1, 2};
    const AddrSet b{2, 9};
    const AddrSet c{5, 6};
    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE(a.intersects(c));
    EXPECT_FALSE(AddrSet{}.intersects(a));
}

TEST(FlatSet, SubtractPicksCheaperDirection)
{
    AddrSet big;
    for (Addr k = 0; k < 100; ++k)
        big.insert(k);
    AddrSet small{1, 50, 99, 200};
    big.subtract(small);
    EXPECT_EQ(big.size(), 97u);
    small.subtract(big);
    EXPECT_EQ(small.sorted(), (std::vector<Addr>{1, 50, 99, 200}));
}

TEST(FlatSet, GrowsPastInlineBuffer)
{
    AddrSet s;
    for (Addr k = 0; k < 100; ++k) {
        s.insert(k * 3);
        ASSERT_EQ(s.size(), static_cast<std::size_t>(k) + 1);
    }
    for (Addr k = 0; k < 100; ++k) {
        EXPECT_TRUE(s.contains(k * 3));
        EXPECT_FALSE(s.contains(k * 3 + 1));
    }
    std::size_t seen = 0;
    for (Addr k : s) {
        EXPECT_EQ(k % 3, 0u);
        ++seen;
    }
    EXPECT_EQ(seen, 100u);
}

TEST(FlatSet, SentinelValueIsStorable)
{
    // All-ones marks empty slots internally; it must still be a normal
    // element from the outside (kNoAddr is a legitimate key value).
    AddrSet s;
    s.insert(kNoAddr);
    EXPECT_TRUE(s.contains(kNoAddr));
    EXPECT_EQ(s.size(), 1u);
    for (Addr k = 0; k < 50; ++k)
        s.insert(k); // force migration to the table with kNoAddr present
    EXPECT_TRUE(s.contains(kNoAddr));
    EXPECT_EQ(s.size(), 51u);
    EXPECT_EQ(s.sorted().back(), kNoAddr);
    s.erase(kNoAddr);
    EXPECT_FALSE(s.contains(kNoAddr));
    EXPECT_EQ(s.size(), 50u);
}

TEST(FlatSet, CopyAndMoveSemantics)
{
    AddrSet a;
    for (Addr k = 0; k < 40; ++k)
        a.insert(k * 7);
    AddrSet b = a;
    b.insert(1);
    EXPECT_EQ(a.size(), 40u);
    EXPECT_EQ(b.size(), 41u);
    AddrSet c = std::move(b);
    EXPECT_EQ(c.size(), 41u);
    EXPECT_TRUE(c.contains(1));
    a = c;
    EXPECT_TRUE(a == c);
    AddrSet small{1, 2};
    AddrSet moved = std::move(small);
    EXPECT_EQ(moved.sorted(), (std::vector<Addr>{1, 2}));
}

/** Model-based property test: FlatSet vs std::unordered_set under a
 *  randomized op sequence covering both storage regimes. */
TEST(FlatSet, MatchesUnorderedSetModel)
{
    Rng rng(0xbf1f);
    for (int trial = 0; trial < 20; ++trial) {
        AddrSet sut;
        std::unordered_set<Addr> model;
        // Key universe small enough to hit duplicate inserts, erases of
        // present keys, and the inline->table migration both ways.
        const Addr universe = 1 + rng.below(60);
        for (int step = 0; step < 400; ++step) {
            Addr k = rng.below(universe);
            if (rng.chance(0.02))
                k = kNoAddr; // exercise the sentinel path
            switch (rng.below(3)) {
              case 0:
                sut.insert(k);
                model.insert(k);
                break;
              case 1:
                sut.erase(k);
                model.erase(k);
                break;
              default:
                ASSERT_EQ(sut.contains(k), model.count(k) != 0)
                    << "trial " << trial << " step " << step;
                break;
            }
            ASSERT_EQ(sut.size(), model.size())
                << "trial " << trial << " step " << step;
        }
        std::vector<Addr> expected(model.begin(), model.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(sut.sorted(), expected) << "trial " << trial;
    }
}

/** Model-based property test for the set algebra used by the dataflow
 *  equations: union / intersect / subtract / intersects / equality. */
TEST(FlatSet, AlgebraMatchesUnorderedSetModel)
{
    Rng rng(0xa15e);
    auto random_pair = [&](std::size_t max_n, AddrSet &s,
                           std::unordered_set<Addr> &m) {
        const std::size_t n = rng.below(max_n + 1);
        const Addr universe = 1 + rng.below(4 * (max_n + 1));
        for (std::size_t i = 0; i < n; ++i) {
            Addr k = rng.below(universe);
            if (rng.chance(0.05))
                k = kNoAddr - rng.below(3); // near-sentinel keys
            s.insert(k);
            m.insert(k);
        }
    };
    auto sorted_model = [](const std::unordered_set<Addr> &m) {
        std::vector<Addr> v(m.begin(), m.end());
        std::sort(v.begin(), v.end());
        return v;
    };

    for (int trial = 0; trial < 30; ++trial) {
        // Mix the regimes: some trials stay inline, some go to tables.
        const std::size_t max_n = trial % 3 == 0 ? 6 : 200;
        AddrSet a, b;
        std::unordered_set<Addr> ma, mb;
        random_pair(max_n, a, ma);
        random_pair(max_n, b, mb);

        AddrSet u = a;
        u.unionWith(b);
        std::unordered_set<Addr> mu = ma;
        mu.insert(mb.begin(), mb.end());
        EXPECT_EQ(u.sorted(), sorted_model(mu)) << "trial " << trial;

        AddrSet i = a;
        i.intersectWith(b);
        std::unordered_set<Addr> mi;
        for (Addr k : ma)
            if (mb.count(k))
                mi.insert(k);
        EXPECT_EQ(i.sorted(), sorted_model(mi)) << "trial " << trial;

        AddrSet d = a;
        d.subtract(b);
        std::unordered_set<Addr> md;
        for (Addr k : ma)
            if (!mb.count(k))
                md.insert(k);
        EXPECT_EQ(d.sorted(), sorted_model(md)) << "trial " << trial;

        EXPECT_EQ(a.intersects(b), !mi.empty()) << "trial " << trial;
        EXPECT_EQ(a == b, sorted_model(ma) == sorted_model(mb))
            << "trial " << trial;
        EXPECT_TRUE(i == setIntersect(b, a)) << "trial " << trial;
    }
}

TEST(FlatSet, InlineBufferDedupesAndMigratesAtCapacity)
{
    // Duplicates must not use up the 8-key inline buffer, and the ninth
    // distinct key moves everything to the table without losing or
    // doubling a key.
    AddrSet s;
    for (Addr k : {3, 3, 1, 4, 1, 5})
        s.insert(k);
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.sorted(), (std::vector<Addr>{1, 3, 4, 5}));
    for (Addr k : {5, 6, 7, 8, 9, 9})
        s.insert(k);
    EXPECT_EQ(s.size(), 8u); // exactly full, still inline
    s.insert(10);            // migrates
    s.insert(3);
    EXPECT_EQ(s.size(), 9u);
    EXPECT_EQ(s.sorted(),
              (std::vector<Addr>{1, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(FlatSet, ReinsertAfterBackwardShiftErase)
{
    // Backward-shift erase compacts probe chains; inserting afterwards
    // (the erased keys included) must still find the right slots, with
    // no stranded or duplicated entries, over a collision-heavy universe.
    AddrSet sut;
    std::unordered_set<Addr> model;
    Rng rng(0xe7a5);
    std::vector<Addr> keys;
    for (int i = 0; i < 300; ++i)
        keys.push_back(rng.next() % 512);
    for (Addr k : keys) {
        sut.insert(k);
        model.insert(k);
    }
    for (std::size_t i = 0; i < keys.size(); i += 3) {
        sut.erase(keys[i]);
        model.erase(keys[i]);
    }
    ASSERT_EQ(sut.size(), model.size());
    for (Addr k : keys) {
        sut.insert(k);
        model.insert(k);
    }
    std::vector<Addr> expected(model.begin(), model.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sut.size(), expected.size());
    EXPECT_EQ(sut.sorted(), expected);
}

TEST(FlatSet, BackwardShiftEraseKeepsProbeChainsIntact)
{
    // Adversarial pattern for linear probing: long runs of keys, erased
    // from the middle, must not strand later keys in the run.
    AddrSet s;
    std::vector<Addr> keys;
    Rng rng(99);
    for (int i = 0; i < 500; ++i)
        keys.push_back(rng.next());
    for (Addr k : keys)
        s.insert(k);
    for (std::size_t i = 0; i < keys.size(); i += 2)
        s.erase(keys[i]);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(s.contains(keys[i]), i % 2 == 1) << "key index " << i;
}

TEST(ShadowMemory, DefaultValueWithoutAllocation)
{
    ShadowMemory<std::uint8_t> shadow(7);
    EXPECT_EQ(shadow.get(0x1234), 7);
    EXPECT_EQ(shadow.allocatedPages(), 0u);
}

TEST(ShadowMemory, SetGetAcrossPages)
{
    ShadowMemory<std::uint32_t> shadow(0);
    shadow.set(5, 42);
    shadow.set((1 << 12) + 5, 43); // second page
    EXPECT_EQ(shadow.get(5), 42u);
    EXPECT_EQ(shadow.get((1 << 12) + 5), 43u);
    EXPECT_EQ(shadow.get(6), 0u);
    EXPECT_EQ(shadow.allocatedPages(), 2u);
}

TEST(ShadowMemory, RangeOperations)
{
    ShadowMemory<std::uint8_t> shadow(0);
    shadow.setRange(100, 50, 1);
    EXPECT_TRUE(shadow.rangeEquals(100, 50, 1));
    EXPECT_FALSE(shadow.rangeEquals(99, 2, 1));
    shadow.clear();
    EXPECT_EQ(shadow.get(120), 0);
}

TEST(ShadowMemory, RangeOpsCrossPageBoundaries)
{
    ShadowMemory<std::uint8_t> shadow(0);
    const Addr base = (1 << 12) - 100; // straddles pages 0 and 1
    shadow.setRange(base, 200, 9);
    EXPECT_TRUE(shadow.rangeEquals(base, 200, 9));
    EXPECT_EQ(shadow.get(base), 9);
    EXPECT_EQ(shadow.get(base + 199), 9);
    EXPECT_EQ(shadow.get(base - 1), 0);
    EXPECT_EQ(shadow.get(base + 200), 0);
    EXPECT_EQ(shadow.allocatedPages(), 2u);

    // A span longer than a full page.
    shadow.setRange(0x10000, 3 * 4096 + 5, 3);
    EXPECT_TRUE(shadow.rangeEquals(0x10000, 3 * 4096 + 5, 3));
    EXPECT_FALSE(shadow.rangeEquals(0x10000, 3 * 4096 + 6, 3));
}

TEST(ShadowMemory, RangeEqualsOnUntouchedPagesComparesDefault)
{
    ShadowMemory<std::uint8_t> shadow(7);
    // Nothing allocated: every entry reads the default.
    EXPECT_TRUE(shadow.rangeEquals(0x5000, 10000, 7));
    EXPECT_FALSE(shadow.rangeEquals(0x5000, 10000, 8));
    EXPECT_EQ(shadow.allocatedPages(), 0u);
    // A touched page in the middle of an untouched span.
    shadow.set(0x7000, 1);
    EXPECT_FALSE(shadow.rangeEquals(0x5000, 0x3000, 7));
    shadow.set(0x7000, 7);
    EXPECT_TRUE(shadow.rangeEquals(0x5000, 0x3000, 7));
}

TEST(ShadowMemory, ForEachInRangeVisitsEveryEntryInOrder)
{
    ShadowMemory<std::uint16_t> shadow(5);
    shadow.set(4095, 10); // last entry of page 0
    shadow.set(4096, 11); // first entry of page 1
    std::vector<std::uint16_t> seen;
    shadow.forEachInRange(4094, 4, [&](std::uint16_t v) {
        seen.push_back(v);
    });
    EXPECT_EQ(seen, (std::vector<std::uint16_t>{5, 10, 11, 5}));
    EXPECT_EQ(shadow.allocatedPages(), 2u); // read-only: no allocation

    std::size_t count = 0;
    std::uint64_t sum = 0;
    shadow.forEachInRange(0x100000, 2 * 4096 + 7, [&](std::uint16_t v) {
        ++count;
        sum += v;
    });
    EXPECT_EQ(count, 2u * 4096 + 7);
    EXPECT_EQ(sum, (2u * 4096 + 7) * 5);
    EXPECT_EQ(shadow.allocatedPages(), 2u);
}

TEST(ShadowMemory, LastPageCacheStaysCoherent)
{
    ShadowMemory<std::uint8_t> shadow(0);
    // Miss-then-allocate on the same page: the cached "absent" result
    // must be invalidated by the allocation.
    EXPECT_EQ(shadow.get(0x2000), 0);
    shadow.set(0x2000, 4);
    EXPECT_EQ(shadow.get(0x2000), 4);
    EXPECT_EQ(shadow.get(0x2001), 0);
    // Alternating pages exercise cache replacement.
    shadow.set(0x5000, 1);
    shadow.set(0x6000, 2);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(shadow.get(0x5000), 1);
        EXPECT_EQ(shadow.get(0x6000), 2);
    }
    // clear() must also drop the cache.
    shadow.clear();
    EXPECT_EQ(shadow.get(0x5000), 0);
    shadow.set(0x5000, 9);
    EXPECT_EQ(shadow.get(0x5000), 9);
}

TEST(ShadowMemory, SetRangeMatchesPerElementSet)
{
    // Property test: setRange must leave the map identical to a
    // per-element set() loop, for spans that start, end or straddle
    // the 4096-entry page boundary, written over each other.
    Rng rng(0x5e75);
    for (int trial = 0; trial < 20; ++trial) {
        ShadowMemory<std::uint8_t> ranged(0), scalar(0);
        const Addr lo = 4096 - 64;
        for (int w = 0; w < 6; ++w) {
            const Addr start = lo + rng.below(160);
            const std::size_t len = rng.below(100);
            const auto value = static_cast<std::uint8_t>(1 + rng.below(9));
            ranged.setRange(start, len, value);
            for (std::size_t k = 0; k < len; ++k)
                scalar.set(start + k, value);
        }
        for (Addr a = lo - 8; a < lo + 270; ++a)
            ASSERT_EQ(ranged.get(a), scalar.get(a))
                << "trial " << trial << " addr " << a;
        EXPECT_EQ(ranged.allocatedPages(), scalar.allocatedPages())
            << "trial " << trial;
    }
}

TEST(ShadowMemory, SetRangeKeepsLastPageCacheCoherent)
{
    // get() caches the last page it looked up, including "absent". A
    // range write that allocates that page must not let get() serve
    // the stale default.
    ShadowMemory<std::uint8_t> shadow(0);
    EXPECT_EQ(shadow.get(0x3000), 0); // cache the absent page
    shadow.setRange(0x3000, 3, 5);
    EXPECT_EQ(shadow.get(0x3000), 5);
    EXPECT_EQ(shadow.get(0x3002), 5);
    EXPECT_EQ(shadow.get(0x3003), 0);
    // A range that reaches into a second, cached-absent page.
    EXPECT_EQ(shadow.get(0x4000), 0);
    shadow.setRange(0x3ffe, 4, 7);
    EXPECT_EQ(shadow.get(0x4001), 7);
    EXPECT_EQ(shadow.get(0x3fff), 7);
    // Point and range writes interleaved on one page.
    shadow.set(0x3005, 2);
    shadow.setRange(0x3001, 2, 9);
    EXPECT_EQ(shadow.get(0x3000), 5);
    EXPECT_EQ(shadow.get(0x3001), 9);
    EXPECT_EQ(shadow.get(0x3005), 2);
}

TEST(SimHeap, AllocateAndFree)
{
    SimHeap heap(0x1000, 1024);
    const Addr a = heap.malloc(100);
    ASSERT_NE(a, kNoAddr);
    EXPECT_EQ(a, 0x1000u);
    EXPECT_TRUE(heap.isAllocated(a));
    EXPECT_TRUE(heap.isAllocated(a + 99));
    EXPECT_FALSE(heap.isAllocated(a + 104)); // rounded to 104
    EXPECT_EQ(heap.free(a), 104u);
    EXPECT_FALSE(heap.isAllocated(a));
}

TEST(SimHeap, DoubleFreeReturnsZero)
{
    SimHeap heap(0, 1024);
    const Addr a = heap.malloc(16);
    EXPECT_GT(heap.free(a), 0u);
    EXPECT_EQ(heap.free(a), 0u);
    EXPECT_EQ(heap.free(0x500), 0u); // wild free
}

TEST(SimHeap, CoalescingAllowsBigReallocation)
{
    SimHeap heap(0, 1024);
    const Addr a = heap.malloc(256);
    const Addr b = heap.malloc(256);
    const Addr c = heap.malloc(256);
    ASSERT_NE(c, kNoAddr);
    heap.free(b);
    heap.free(a);
    heap.free(c);
    // All three coalesce back into one block covering the whole heap.
    EXPECT_NE(heap.malloc(1024), kNoAddr);
}

TEST(SimHeap, FirstFitReusesFreedBlocks)
{
    SimHeap heap(0, 1024);
    const Addr a = heap.malloc(64);
    heap.malloc(64);
    heap.free(a);
    EXPECT_EQ(heap.malloc(32), a); // hole reused first-fit
}

TEST(SimHeap, OutOfMemoryReturnsSentinel)
{
    SimHeap heap(0, 128);
    EXPECT_NE(heap.malloc(100), kNoAddr);
    EXPECT_EQ(heap.malloc(100), kNoAddr);
}

TEST(SimHeap, BytesInUseTracksAllocations)
{
    SimHeap heap(0, 4096);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    const Addr a = heap.malloc(100);
    EXPECT_EQ(heap.bytesInUse(), 104u);
    heap.free(a);
    EXPECT_EQ(heap.bytesInUse(), 0u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(12345), b(12345), c(54321);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(10), 10u);
}

TEST(Rng, BelowIsTheRemainderOfNext)
{
    // A power-of-two bound masks and any other divides; both give the
    // value next() % bound, so every draw a seed makes stays the same.
    Rng rng(21), ref(21);
    for (unsigned k = 0; k < 64; ++k) {
        const std::uint64_t pow2 = std::uint64_t{1} << k;
        for (const std::uint64_t bound : {pow2, pow2 + 1, pow2 * 3}) {
            if (bound == 0)
                continue;
            for (int i = 0; i < 8; ++i)
                EXPECT_EQ(rng.below(bound), ref.next() % bound) << bound;
        }
    }
    EXPECT_EQ(rng.below(~std::uint64_t{0}), ref.next() % ~std::uint64_t{0});
    EXPECT_EQ(rng.next(), ref.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000, 0.5, 0.05);
}

} // namespace
} // namespace bfly
