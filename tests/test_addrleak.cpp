/**
 * @file
 * Tests for ADDRLEAK, the pointer-leak lifeguard: allocation sites
 * taint the destination cell, copies launder the pointer, writes scrub
 * it, and Output of a may-tainted cell is flagged. Covers the window
 * may-fixpoint, SOS advance, and the zero-false-negative property
 * against the sequential oracle.
 */

#include <gtest/gtest.h>

#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "lifeguards/addrleak.hpp"
#include "tests/helpers.hpp"

namespace bfly {
namespace {

constexpr Addr kP = 0x1000;  ///< a pointer-holding cell
constexpr Addr kQ = 0x1040;  ///< a second cell
constexpr Addr kOff = 0x40;  ///< outside the monitored window

AddrLeakConfig
heapConfig()
{
    AddrLeakConfig cfg;
    cfg.heapBase = 0x1000;
    cfg.heapLimit = 0x2000;
    return cfg;
}

struct Run
{
    Trace trace;
    EpochLayout layout;
    std::unique_ptr<ButterflyAddrLeak> check;
};

Run
runAddrLeak(Trace trace, const AddrLeakConfig &cfg = heapConfig())
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    Run run{std::move(trace), std::move(layout), {}};
    run.check = std::make_unique<ButterflyAddrLeak>(run.layout, cfg);
    WindowSchedule().run(run.layout, *run.check);
    return run;
}

TEST(AddrLeak, OutputOfAllocatedPointerFlagged)
{
    auto run = runAddrLeak(test::traceOf({{
        Event::alloc(kP, 16),
        Event::output(kP),
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
    const ErrorRecord &r = run.check->errors().records()[0];
    EXPECT_EQ(r.kind, ErrorKind::AddrLeak);
    EXPECT_EQ(r.addr, kP);
    EXPECT_EQ(r.index, 1u);
}

TEST(AddrLeak, ScrubbedCellIsCleanToOutput)
{
    auto run = runAddrLeak(test::traceOf({{
        Event::alloc(kP, 16),
        Event::write(kP, 4),
        Event::output(kP),
    }}));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrLeak, CopyLaundersThePointer)
{
    auto run = runAddrLeak(test::traceOf({{
        Event::alloc(kP, 16),
        Event::assign(kQ, kP),
        Event::write(kP, 4), // scrub the original...
        Event::output(kQ),   // ...the copy still leaks
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].addr, kQ);
}

TEST(AddrLeak, AssignFromCleanSourceScrubs)
{
    auto run = runAddrLeak(test::traceOf({{
        Event::alloc(kQ, 16),
        Event::assign(kQ, kOff), // overwritten with a non-pointer
        Event::output(kQ),
    }}));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrLeak, UnmonitoredSinkNeverFlagged)
{
    auto run = runAddrLeak(test::traceOf({{
        Event::alloc(kP, 16),
        Event::output(kOff), // sink outside the monitored window
    }}));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrLeak, ConcurrentAllocMayReachOutput)
{
    // The alloc and the output are in the same epoch on different
    // threads — unordered, so the butterfly must conservatively flag.
    auto run = runAddrLeak(test::traceOf({
        {Event::alloc(kP, 16)},
        {Event::output(kP)},
    }));
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].tid, 1u);
}

TEST(AddrLeak, TrulyOrderedScrubIsRespected)
{
    // The scrub epoch is two full epochs before the output: truly
    // ordered, so the may-window no longer sees the stale taint. The
    // scrub must also be in a *later* epoch than the alloc: within one
    // epoch the alloc stays visible (any-gen folding — a concurrent
    // reader could observe the cell between the alloc and the scrub,
    // and the coarser half of the FP(H) <= FP(4H) nesting must
    // subsume the finer).
    auto run = runAddrLeak(test::traceOf({
        {Event::alloc(kP, 16), Event::heartbeat(), Event::write(kP, 4),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::output(kP)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrLeak, SosTracksLivePointerCells)
{
    auto run = runAddrLeak(test::traceOf({{
        Event::alloc(kP, 16),
        Event::alloc(kQ, 16),
        Event::heartbeat(),
        Event::write(kQ, 4),
        Event::heartbeat(),
        Event::nop(),
        Event::heartbeat(),
        Event::nop(),
    }}));
    const AddrLeakConfig cfg = heapConfig();
    EXPECT_TRUE(run.check->sosNow().contains(cfg.keyOf(kP)));
    EXPECT_FALSE(run.check->sosNow().contains(cfg.keyOf(kQ)));
}

/**
 * Zero-false-negative property on random alloc/copy/scrub/output
 * traces: every leak the sequential oracle reports over a random
 * interleaving is flagged by the butterfly run at the same sink.
 */
TEST(AddrLeak, NoFalseNegativesOnRandomTraces)
{
    const AddrLeakConfig cfg = heapConfig();
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed * 0x51a7bull + 3);
        const unsigned threads = 2 + rng.below(2);
        const unsigned epochs = 2 + rng.below(3);

        std::vector<std::vector<Event>> programs(threads);
        auto cell = [&] { return Addr{0x1000} + 8 * rng.below(4); };
        for (unsigned t = 0; t < threads; ++t) {
            for (unsigned l = 0; l < epochs; ++l) {
                const unsigned n = rng.below(6);
                for (unsigned i = 0; i < n; ++i) {
                    switch (rng.below(5)) {
                      case 0:
                        programs[t].push_back(Event::alloc(cell(), 16));
                        break;
                      case 1:
                        programs[t].push_back(Event::write(cell(), 4));
                        break;
                      case 2:
                        programs[t].push_back(
                            Event::assign(cell(), cell()));
                        break;
                      default:
                        programs[t].push_back(Event::output(cell()));
                        break;
                    }
                }
                if (l + 1 < epochs)
                    programs[t].push_back(Event::heartbeat());
            }
        }

        Trace trace = test::traceOf(programs);
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
        ButterflyAddrLeak check(layout, cfg);
        WindowSchedule().run(layout, check);

        AddrLeakOracle oracle(cfg);
        oracle.runOnTrace(trace);

        const AccuracyReport acc = compareToOracle(
            check.errors(), oracle.errors(), cfg.granularity);
        EXPECT_EQ(acc.falseNegatives, 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace bfly
