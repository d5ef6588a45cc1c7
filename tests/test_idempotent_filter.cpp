/**
 * @file
 * IdempotentFilter unit tests: dedup/hit semantics, direct-mapped slot
 * collisions, metadata-change eviction, epoch-boundary flush, and the
 * per-epoch independence that makes the butterfly (and pipelined)
 * schedule free to finalize epochs without filter-state coupling.
 */

#include <gtest/gtest.h>

#include "src/harness/idempotent_filter.hpp"

using namespace bfly;

TEST(IdempotentFilter, MissThenHitDedupsRepeatedKeys)
{
    IdempotentFilter filter(64);
    EXPECT_FALSE(filter.hit(10));
    filter.insert(10);
    EXPECT_TRUE(filter.hit(10));
    EXPECT_TRUE(filter.hit(10)); // hits are idempotent, not consuming
    EXPECT_FALSE(filter.hit(11));
}

TEST(IdempotentFilter, DirectMappedCollisionEvictsPriorKey)
{
    IdempotentFilter filter(64);
    filter.insert(10);
    filter.insert(10 + 64); // same slot, different key
    EXPECT_TRUE(filter.hit(10 + 64));
    EXPECT_FALSE(filter.hit(10)); // displaced; must be re-checked
}

TEST(IdempotentFilter, EvictForgetsOnlyTheChangedKey)
{
    IdempotentFilter filter(64);
    filter.insert(10);
    filter.insert(11);
    filter.evict(10); // e.g. free() changed 10's metadata
    EXPECT_FALSE(filter.hit(10));
    EXPECT_TRUE(filter.hit(11));

    // Evicting a key that merely collides must not clobber the cached
    // verdict of the key actually resident in the slot.
    filter.evict(11 + 64);
    EXPECT_TRUE(filter.hit(11));
}

TEST(IdempotentFilter, FlushForgetsEverything)
{
    IdempotentFilter filter(8);
    for (Addr k = 0; k < 8; ++k)
        filter.insert(k);
    filter.flush();
    for (Addr k = 0; k < 8; ++k)
        EXPECT_FALSE(filter.hit(k));
}

TEST(IdempotentFilter, KNoAddrNeverHits)
{
    // Slots are initialized to kNoAddr; probing with the sentinel must
    // not read an empty slot as a cached verdict.
    IdempotentFilter filter(16);
    EXPECT_FALSE(filter.hit(kNoAddr));
}

/**
 * Butterfly mode flushes at every epoch boundary, so the set of filtered
 * events inside an epoch depends only on that epoch's own accesses —
 * never on which epochs ran before it. That independence is what lets
 * the pipelined cycle model finalize epochs in dependency order rather
 * than strict sequence without changing any filter verdict.
 */
TEST(IdempotentFilter, EpochFlushMakesFilterDecisionsOrderIndependent)
{
    const std::vector<std::vector<Addr>> epochs = {
        {1, 2, 1, 3, 2},
        {2, 2, 4, 4, 1},
        {5, 1, 5, 1, 5},
    };

    auto filtered_per_epoch =
        [&](const std::vector<std::size_t> &order) {
            IdempotentFilter filter(32);
            std::vector<std::vector<bool>> hits(epochs.size());
            for (std::size_t e : order) {
                filter.flush(); // epoch boundary
                for (Addr k : epochs[e]) {
                    hits[e].push_back(filter.hit(k));
                    filter.insert(k);
                }
            }
            return hits;
        };

    const auto in_order = filtered_per_epoch({0, 1, 2});
    const auto pipelined = filtered_per_epoch({2, 0, 1});
    EXPECT_EQ(in_order, pipelined);

    // Sanity: within an epoch the filter does dedup repeats.
    EXPECT_EQ(in_order[0],
              (std::vector<bool>{false, false, true, false, true}));
}

/** Without the flush (timesliced mode) verdicts *do* leak across epoch
 *  boundaries — the contrast the butterfly rule exists to prevent. */
TEST(IdempotentFilter, NoFlushLeaksVerdictsAcrossEpochs)
{
    IdempotentFilter filter(32);
    filter.insert(7); // "epoch 0" checked key 7
    // New epoch, no flush: the stale verdict survives.
    EXPECT_TRUE(filter.hit(7));
    filter.flush();
    EXPECT_FALSE(filter.hit(7));
}
