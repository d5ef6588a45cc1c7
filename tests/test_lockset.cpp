/**
 * @file
 * Tests for LOCKSET, the Eraser-style data-race lifeguard: candidate
 * lockset intersection, the initialization (exclusive-phase) exemption,
 * lock state carried across epoch boundaries, wing conservatism, and
 * the zero-false-negative property against the sequential oracle.
 */

#include <gtest/gtest.h>

#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "lifeguards/lockset.hpp"
#include "tests/helpers.hpp"

namespace bfly {
namespace {

constexpr Addr kVar = 0x1000;  ///< a monitored shared variable
constexpr Addr kVar2 = 0x1040; ///< a second, unrelated variable
constexpr Addr kLockA = 0x20000;
constexpr Addr kLockB = 0x20008;

struct Run
{
    Trace trace;
    EpochLayout layout;
    std::unique_ptr<ButterflyLockSet> check;
};

Run
runLockSet(Trace trace, const LockSetConfig &cfg = {})
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    Run run{std::move(trace), std::move(layout), {}};
    run.check = std::make_unique<ButterflyLockSet>(run.layout, cfg);
    WindowSchedule().run(run.layout, *run.check);
    return run;
}

/** Keys of the reported races (records carry key-canonical addresses). */
std::vector<Addr>
racedKeys(const Run &run, const LockSetConfig &cfg = {})
{
    std::vector<Addr> keys;
    for (const ErrorRecord &r : run.check->errors().records()) {
        EXPECT_EQ(r.kind, ErrorKind::DataRace);
        keys.push_back(r.addr / cfg.granularity);
    }
    return keys;
}

TEST(LockSet, WellLockedSharingIsClean)
{
    auto run = runLockSet(test::traceOf({
        {Event::lock(kLockA), Event::write(kVar, 8),
         Event::unlock(kLockA)},
        {Event::lock(kLockA), Event::write(kVar, 8),
         Event::unlock(kLockA)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(LockSet, UnsynchronizedSharedWriteFlaggedOnce)
{
    auto run = runLockSet(test::traceOf({
        {Event::write(kVar, 8), Event::write(kVar, 8)},
        {Event::write(kVar, 8)},
    }));
    const auto keys = racedKeys(run);
    ASSERT_EQ(keys.size(), 1u); // one report per variable, not per access
    EXPECT_EQ(keys[0], kVar / 8);
}

TEST(LockSet, ExclusivePhaseIsExempt)
{
    // A single thread may initialize without holding any lock.
    auto run = runLockSet(test::traceOf({
        {Event::write(kVar, 8), Event::write(kVar, 8),
         Event::write(kVar2, 8)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(LockSet, DisjointLocksRace)
{
    // Both sides are locked — but under different locks, so the
    // candidate intersection empties and the race is real.
    auto run = runLockSet(test::traceOf({
        {Event::lock(kLockA), Event::write(kVar, 8),
         Event::unlock(kLockA)},
        {Event::lock(kLockB), Event::write(kVar, 8),
         Event::unlock(kLockB)},
    }));
    EXPECT_EQ(racedKeys(run), std::vector<Addr>{kVar / 8});
}

TEST(LockSet, ReadOnlySharingNeedsNoLocks)
{
    // The init write is two epochs before the readers arrive, so it is
    // truly ordered (still exclusive); the later sharing is read-only.
    // Within one epoch the write and the reads would be unordered and a
    // conservative may-race report would be legitimate.
    auto run = runLockSet(test::traceOf({
        {Event::write(kVar, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(kVar, 8),
         Event::read(kVar, 8)},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(kVar, 8)},
    }));
    // Candidate lockset empties, but no write after sharing started.
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(LockSet, AccessAfterUnlockRaces)
{
    auto run = runLockSet(test::traceOf({
        {Event::lock(kLockA), Event::write(kVar, 8),
         Event::unlock(kLockA), Event::write(kVar, 8)},
        {Event::lock(kLockA), Event::write(kVar, 8),
         Event::unlock(kLockA)},
    }));
    EXPECT_EQ(racedKeys(run), std::vector<Addr>{kVar / 8});
}

TEST(LockSet, LockHeldAcrossEpochBoundary)
{
    // The lock is acquired in epoch 0 and the protected access happens
    // in epoch 2: the entry lock state must flow through finalize.
    auto run = runLockSet(test::traceOf({
        {Event::lock(kLockA), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::write(kVar, 8),
         Event::unlock(kLockA)},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::lock(kLockA), Event::write(kVar, 8),
         Event::unlock(kLockA)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(LockSet, MonitoredWindowFiltersVariables)
{
    LockSetConfig cfg;
    cfg.heapBase = 0x1000;
    cfg.heapLimit = 0x2000;
    auto run = runLockSet(test::traceOf({
                              {Event::write(0x100, 8),
                               Event::write(kVar, 8)},
                              {Event::write(0x100, 8),
                               Event::write(kVar, 8)},
                          }),
                          cfg);
    // 0x100 is outside the monitored window; only kVar races.
    EXPECT_EQ(racedKeys(run, cfg), std::vector<Addr>{kVar / 8});
}

TEST(LockSet, NestedLocksIntersect)
{
    // t0 holds {A,B}; t1 holds {B}: intersection {B} stays nonempty.
    auto run = runLockSet(test::traceOf({
        {Event::lock(kLockA), Event::lock(kLockB), Event::write(kVar, 8),
         Event::unlock(kLockB), Event::unlock(kLockA)},
        {Event::lock(kLockB), Event::write(kVar, 8),
         Event::unlock(kLockB)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
}

/**
 * Zero-false-negative property: on small random lock-sprinkled traces,
 * every race the sequential oracle reports (over a random, per-thread
 * order-preserving interleaving) is also flagged by the butterfly run.
 * FNs are compared at variable-key granularity — the butterfly run may
 * attribute the race to a different access of the same variable.
 */
TEST(LockSet, NoFalseNegativesOnRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed * 0x9e3779b9 + 7);
        const unsigned threads = 2 + rng.below(2);
        const unsigned epochs = 2 + rng.below(3);

        std::vector<std::vector<Event>> programs(threads);
        for (unsigned t = 0; t < threads; ++t) {
            for (unsigned l = 0; l < epochs; ++l) {
                const unsigned n = rng.below(6);
                for (unsigned i = 0; i < n; ++i) {
                    const Addr var = kVar + 8 * rng.below(3);
                    switch (rng.below(5)) {
                      case 0:
                        programs[t].push_back(Event::lock(
                            kLockA + 8 * rng.below(2)));
                        break;
                      case 1:
                        programs[t].push_back(Event::unlock(
                            kLockA + 8 * rng.below(2)));
                        break;
                      case 2:
                        programs[t].push_back(Event::read(var, 8));
                        break;
                      default:
                        programs[t].push_back(Event::write(var, 8));
                        break;
                    }
                }
                if (l + 1 < epochs)
                    programs[t].push_back(Event::heartbeat());
            }
        }

        Trace trace = test::traceOf(programs);
        // Random interleaving consistent with program order: merge the
        // threads by repeatedly advancing a random nonempty cursor.
        std::vector<std::size_t> cursor(threads, 0);
        std::uint64_t gseq = 1;
        for (;;) {
            std::vector<unsigned> live;
            for (unsigned t = 0; t < threads; ++t)
                if (cursor[t] < trace.threads[t].events.size())
                    live.push_back(t);
            if (live.empty())
                break;
            const unsigned t = live[rng.below(live.size())];
            trace.threads[t].events[cursor[t]++].gseq = gseq++;
        }

        const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
        ButterflyLockSet check(layout, {});
        WindowSchedule().run(layout, check);

        LockSetOracle oracle({});
        oracle.runOnTrace(trace);

        for (const ErrorRecord &want : oracle.errors().records()) {
            bool covered = false;
            for (const ErrorRecord &got : check.errors().records())
                covered |= got.addr == want.addr;
            EXPECT_TRUE(covered)
                << "seed " << seed << ": oracle race on key addr "
                << want.addr << " missed by butterfly";
        }
    }
}

} // namespace
} // namespace bfly
