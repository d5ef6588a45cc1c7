/**
 * @file
 * Tests for butterfly reaching expressions (paper Section 5.2), the
 * must-analysis dual of reaching definitions, including exhaustive
 * verification of the dual of Lemma 5.1 against all valid orderings:
 * GEN_l members are available under *every* ordering, KILL_l members are
 * killable under *some* ordering, and IN is a subset of the expressions
 * available along every path to the block.
 */

#include <gtest/gtest.h>

#include "butterfly/reaching_exprs.hpp"
#include "butterfly/window.hpp"
#include "tests/helpers.hpp"

namespace bfly {
namespace {

struct RunResult
{
    Trace trace;
    EpochLayout layout;
    ReachingExpressions analysis;
};

std::unique_ptr<RunResult>
runExprs(Trace trace)
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    auto result = std::make_unique<RunResult>(RunResult{
        std::move(trace), std::move(layout),
        ReachingExpressions(0, test::allocEffects)});
    result->analysis = ReachingExpressions(result->layout.numThreads(),
                                           test::allocEffects);
    WindowSchedule().run(result->layout, result->analysis);
    return result;
}

TEST(ReachingExprs, SequentialGenKillWithinBlock)
{
    auto r = runExprs(test::traceOf({{
        Event::alloc(0x10, 8),
        Event::freeOf(0x10, 8),
        Event::alloc(0x18, 8),
    }}));
    const auto &res = r->analysis.blockResults(0, 0);
    EXPECT_FALSE(res.gen.contains(0x10));
    EXPECT_TRUE(res.kill.contains(0x10));
    EXPECT_TRUE(res.gen.contains(0x18));
    // KILL-SIDE-OUT records the transient kill regardless of position.
    EXPECT_TRUE(res.killSideOut.contains(0x10));
}

TEST(ReachingExprs, KillIsGlobalAcrossWings)
{
    // Thread 1 kills x anywhere in its block; thread 0's IN loses x even
    // though thread 0's own LSOS would keep it (x in SOS via epoch 0).
    auto r = runExprs(test::traceOf({
        {Event::alloc(0x10, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(0x10)},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::freeOf(0x10, 8),
         Event::alloc(0x10, 8)},
    }));
    // x is in SOS_2 (allocated in epoch 0, nobody killed it then).
    EXPECT_TRUE(r->analysis.sos(2).contains(0x10));
    const auto &body = r->analysis.blockResults(2, 0);
    // The wing (2,1) exposes its transient kill; IN must drop x.
    EXPECT_TRUE(body.killSideIn.contains(0x10));
    EXPECT_TRUE(body.lsos.contains(0x10));
    EXPECT_FALSE(body.in.contains(0x10));
}

TEST(ReachingExprs, GenIsLocalNoSideIn)
{
    // Thread 1 allocates x in epoch 0. Thread 0 cannot treat x as
    // available (must-analysis: no block knows every path generated it).
    auto r = runExprs(test::traceOf({
        {Event::read(0x99)},
        {Event::alloc(0x10, 8)},
    }));
    const auto &res = r->analysis.blockResults(0, 0);
    EXPECT_FALSE(res.in.contains(0x10));
}

TEST(ReachingExprs, LsosHeadGenSurvivesUnlessEpochL2Kills)
{
    // Head (epoch 1, t0) allocates x; thread 1 freed x in epoch 0
    // (= l-2 for body epoch 2): the head's gen may have been followed by
    // the epoch-0 kill? No — the kill may land *after* the head's gen,
    // so the head gen cannot be trusted: x must NOT be in the LSOS.
    auto r = runExprs(test::traceOf({
        {Event::nop(), Event::heartbeat(), Event::alloc(0x10, 8),
         Event::heartbeat(), Event::read(0x10)},
        {Event::freeOf(0x10, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop()},
    }));
    const auto &body = r->analysis.blockResults(2, 0);
    EXPECT_FALSE(body.lsos.contains(0x10));

    // Control: without the epoch-0 free, the head gen is trusted.
    auto r2 = runExprs(test::traceOf({
        {Event::nop(), Event::heartbeat(), Event::alloc(0x10, 8),
         Event::heartbeat(), Event::read(0x10)},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop()},
    }));
    EXPECT_TRUE(r2->analysis.blockResults(2, 0).lsos.contains(0x10));
}

TEST(ReachingExprs, EpochGenRequiresOtherThreadsQuiet)
{
    // Thread 0 allocates x in epoch 0; thread 1 frees x in epoch 0:
    // there is an ordering where the free lands last, so x must not be
    // in GEN_0 nor in SOS_2.
    auto r = runExprs(test::traceOf({
        {Event::alloc(0x10, 8)},
        {Event::freeOf(0x10, 8)},
    }));
    EXPECT_FALSE(r->analysis.genEpoch(0).contains(0x10));
    EXPECT_FALSE(r->analysis.sos(2).contains(0x10));
}

// --------------------------------------------------------------------
// Property tests against exhaustive valid-ordering enumeration.
// --------------------------------------------------------------------

class ReachingExprsProperty
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ReachingExprsProperty, DualLemma51)
{
    Rng rng(GetParam() * 31 + 5);
    const Trace trace = test::randomAllocTrace(rng, 2, 3, 2, 3);
    auto r = runExprs(trace);
    const std::size_t L = r->layout.numEpochs();

    for (EpochId l = 0; l < L; ++l) {
        const ValidOrderings vo(r->layout, l);
        if (vo.size() == 0)
            continue;
        std::vector<ExprSet> all_avail;
        vo.forEach([&](const std::vector<OrderedInstr> &order) {
            all_avail.push_back(
                test::availOfOrdering(order, test::allocEffects));
            return true;
        });

        // GEN_l: available at the end of *every* valid ordering.
        for (ExprId e : r->analysis.genEpoch(l)) {
            for (const ExprSet &avail : all_avail) {
                EXPECT_TRUE(avail.contains(e))
                    << "GEN_" << l << " expr " << e
                    << " unavailable in some ordering (seed "
                    << GetParam() << ")";
            }
        }
        // KILL_l: killed at the end of *some* valid ordering.
        for (ExprId e : r->analysis.killEpoch(l)) {
            bool witnessed = false;
            for (const ExprSet &avail : all_avail)
                witnessed = witnessed || !avail.contains(e);
            EXPECT_TRUE(witnessed)
                << "KILL_" << l << " expr " << e
                << " available in every ordering (seed " << GetParam()
                << ")";
        }
    }
}

TEST_P(ReachingExprsProperty, SosIsSoundForMustAnalysis)
{
    Rng rng(GetParam() * 1013 + 3);
    const Trace trace = test::randomAllocTrace(rng, 2, 3, 2, 3);
    auto r = runExprs(trace);
    const std::size_t L = r->layout.numEpochs();

    // Soundness: e in SOS_l implies e is available at the end of every
    // valid ordering of epochs [0, l-2] (no false "available" facts; the
    // must-analysis may only under-approximate).
    for (EpochId l = 2; l < L + 2; ++l) {
        const EpochId last = l - 2;
        if (last >= L)
            break;
        const ValidOrderings vo(r->layout, last);
        for (ExprId e : r->analysis.sos(l)) {
            vo.forEach([&](const std::vector<OrderedInstr> &order) {
                const ExprSet avail =
                    test::availOfOrdering(order, test::allocEffects);
                EXPECT_TRUE(avail.contains(e))
                    << "SOS_" << l << " expr " << e
                    << " not available in some ordering (seed "
                    << GetParam() << ")";
                return true;
            });
        }
    }
}

TEST_P(ReachingExprsProperty, InIsSubsetOfEveryPathAvailability)
{
    Rng rng(GetParam() * 65537 + 11);
    const Trace trace = test::randomAllocTrace(rng, 2, 3, 2, 2);
    auto r = runExprs(trace);
    const std::size_t L = r->layout.numEpochs();

    for (EpochId l = 0; l < L; ++l) {
        const EpochId hi = std::min<EpochId>(l + 1, L - 1);
        const ValidOrderings vo(r->layout, hi);
        for (ThreadId t = 0; t < 2; ++t) {
            if (r->layout.block(l, t).empty())
                continue;
            const auto &in = r->analysis.blockResults(l, t).in;
            vo.forEach([&](const std::vector<OrderedInstr> &order) {
                std::vector<OrderedInstr> prefix;
                for (const OrderedInstr &oi : order) {
                    if (oi.l == l && oi.t == t && oi.i == 0)
                        break;
                    prefix.push_back(oi);
                }
                const ExprSet avail =
                    test::availOfOrdering(prefix, test::allocEffects);
                for (ExprId e : in) {
                    EXPECT_TRUE(avail.contains(e))
                        << "IN_{" << l << "," << t
                        << "} claims unavailable expr " << e << " (seed "
                        << GetParam() << ")";
                }
                return true;
            });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachingExprsProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

} // namespace
} // namespace bfly
