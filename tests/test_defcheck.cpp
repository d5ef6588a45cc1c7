/**
 * @file
 * Tests for DEFINEDCHECK, the uninitialized-read lifeguard built on the
 * generic reaching-expressions analysis: sequential semantics, wing
 * conservatism, and the zero-false-negative property against SC and TSO
 * executions.
 */

#include <gtest/gtest.h>

#include "butterfly/window.hpp"
#include "lifeguards/defcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "tests/helpers.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

DefCheckConfig
wideConfig()
{
    DefCheckConfig cfg;
    cfg.heapBase = 0;
    cfg.heapLimit = kNoAddr;
    return cfg;
}

struct Run
{
    Trace trace;
    EpochLayout layout;
    std::unique_ptr<ButterflyDefCheck> check;
};

Run
runDefCheck(Trace trace, const DefCheckConfig &cfg = wideConfig())
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    Run run{std::move(trace), std::move(layout), {}};
    run.check = std::make_unique<ButterflyDefCheck>(run.layout, cfg);
    WindowSchedule().run(run.layout, *run.check);
    return run;
}

TEST(DefCheck, ReadOfFreshAllocationFlagged)
{
    auto run = runDefCheck(test::traceOf({{
        Event::alloc(0x100, 16),
        Event::read(0x100, 8), // garbage
        Event::write(0x100, 8),
        Event::read(0x100, 8), // now defined
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::UninitializedRead);
    EXPECT_EQ(run.check->errors().records()[0].index, 1u);
}

TEST(DefCheck, ReallocationClobbersDefinedness)
{
    auto run = runDefCheck(test::traceOf({{
        Event::alloc(0x100, 16),
        Event::write(0x100, 8),
        Event::freeOf(0x100, 16),
        Event::alloc(0x100, 16),
        Event::read(0x100, 8), // fresh garbage again
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].index, 4u);
}

TEST(DefCheck, AssignSourcesAreChecked)
{
    Event a = Event::assign(0x108, 0x100);
    a.size = 8;
    auto run = runDefCheck(test::traceOf({{
        Event::alloc(0x100, 16),
        a, // reads undefined 0x100
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
}

TEST(DefCheck, ConcurrentReallocationIsConservative)
{
    // Thread 0 wrote x long ago; thread 1 frees+reallocs x concurrently
    // with thread 0's read: some interleavings hand thread 0 garbage,
    // so the read must be flagged (a wing kill in reaching-expressions
    // terms).
    auto run = runDefCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::write(0x100, 8),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::read(0x100, 8)},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::freeOf(0x100, 8),
         Event::alloc(0x100, 8)},
    }));
    bool read_flagged = false;
    for (const auto &rec : run.check->errors().records())
        read_flagged |= rec.tid == 0 && rec.index == 3;
    EXPECT_TRUE(read_flagged);
}

TEST(DefCheck, DistantWriteReachesViaSos)
{
    auto run = runDefCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::write(0x100, 8),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(0x100, 8)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
}

class DefCheckZeroFn : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(DefCheckZeroFn, OracleErrorsAreAlwaysCovered)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 1500;
    wcfg.seed = GetParam();
    const Workload w = makeRandomMix(wcfg);

    InterleaveConfig icfg;
    icfg.model = GetParam() % 2 ? MemModel::TSO
                                : MemModel::SequentiallyConsistent;
    Rng rng(GetParam() * 41 + 3);
    Trace trace = interleave(w.programs, icfg, rng);
    EpochLayout layout = EpochLayout::byGlobalSeq(trace, 120 * 3);

    DefCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;

    ButterflyDefCheck butterfly(layout, cfg);
    WindowSchedule().run(layout, butterfly);
    DefCheckOracle oracle(cfg);
    oracle.runOnTrace(trace);

    // Random mix reads freshly-allocated blocks before writing them
    // sometimes, so the oracle finds real uninitialized reads.
    const auto acc = compareToOracle(butterfly.errors(),
                                     oracle.errors(), cfg.granularity);
    EXPECT_EQ(acc.falseNegatives, 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DefCheckZeroFn,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(DefCheck, BuiltOnTheGenericAnalysis)
{
    // The underlying ReachingExpressions state is exposed: after a
    // write two epochs back, the definedness expression is in the SOS.
    auto run = runDefCheck(test::traceOf({{
        Event::alloc(0x100, 8),
        Event::write(0x100, 8),
        Event::heartbeat(),
        Event::nop(),
        Event::heartbeat(),
        Event::nop(),
    }}));
    EXPECT_TRUE(run.check->analysis().sos(2).contains(0x100 / 8));
}

} // namespace
} // namespace bfly
