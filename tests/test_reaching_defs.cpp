/**
 * @file
 * Tests for butterfly reaching definitions (paper Section 5.1), including
 * exhaustive verification of Lemma 5.1 (GEN_l / KILL_l correctness) and
 * Lemma 5.2 (the SOS invariant) against every valid ordering of
 * randomized small traces.
 */

#include <gtest/gtest.h>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "tests/helpers.hpp"

namespace bfly {
namespace {

struct RunResult
{
    Trace trace;
    EpochLayout layout;
    ReachingDefinitions analysis;
};

/** Run the full butterfly schedule over an embedded-heartbeat trace. */
std::unique_ptr<RunResult>
runDefs(Trace trace)
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    auto result = std::make_unique<RunResult>(RunResult{
        std::move(trace), std::move(layout), ReachingDefinitions(0)});
    result->analysis =
        ReachingDefinitions(result->layout.numThreads());
    WindowSchedule().run(result->layout, result->analysis);
    return result;
}

TEST(ReachingDefs, SingleThreadSequentialSemantics)
{
    // One thread, two epochs: the SOS two epochs later holds exactly the
    // last definition of each location.
    auto r = runDefs(test::traceOf({{
        Event::write(0x10, 8), // def (0,0,0)
        Event::write(0x10, 8), // def (0,0,1) kills (0,0,0)
        Event::write(0x18, 8), // def (0,0,2)
        Event::heartbeat(),
        Event::write(0x18, 8), // def (1,0,0)
    }}));

    const DefSet &sos2 = r->analysis.sos(2);
    EXPECT_FALSE(sos2.contains(InstrId{0, 0, 0}.pack()));
    EXPECT_TRUE(sos2.contains(InstrId{0, 0, 1}.pack()));
    EXPECT_TRUE(sos2.contains(InstrId{0, 0, 2}.pack()));

    const DefSet &sos3 = r->analysis.sos(3);
    EXPECT_TRUE(sos3.contains(InstrId{0, 0, 1}.pack()));
    EXPECT_FALSE(sos3.contains(InstrId{0, 0, 2}.pack())); // killed by 1,0,0
    EXPECT_TRUE(sos3.contains(InstrId{1, 0, 0}.pack()));
}

TEST(ReachingDefs, GenIsGlobalAcrossWings)
{
    // Thread 1 defines x in epoch 0; thread 0's block in epoch 0 sees the
    // definition through GEN-SIDE-IN even though its own LSOS is empty.
    auto r = runDefs(test::traceOf({
        {Event::read(0x99)},       // thread 0: irrelevant event
        {Event::write(0x10, 8)},   // thread 1: defines x
    }));
    const auto &res = r->analysis.blockResults(0, 0);
    EXPECT_TRUE(res.genSideIn.contains(InstrId{0, 1, 0}.pack()));
    EXPECT_TRUE(res.in.contains(InstrId{0, 1, 0}.pack()));
}

TEST(ReachingDefs, KillIsLocalConcurrentRedefinitionBothReach)
{
    // Both threads define x concurrently in epoch 0: both definitions
    // may reach (no ordering information), so both are in OUT of both
    // blocks and both enter SOS_2 (GEN_l is a plain union).
    auto r = runDefs(test::traceOf({
        {Event::write(0x10, 8)},
        {Event::write(0x10, 8)},
    }));
    const DefId d0 = InstrId{0, 0, 0}.pack();
    const DefId d1 = InstrId{0, 1, 0}.pack();
    EXPECT_TRUE(r->analysis.sos(2).contains(d0));
    EXPECT_TRUE(r->analysis.sos(2).contains(d1));
    // Each block sees the other's def in IN (generating is global) but
    // OUT = GEN U (IN - KILL) drops it block-locally; the may-reach
    // union happens at the epoch level (GEN_l), as asserted above.
    EXPECT_TRUE(r->analysis.blockResults(0, 0).in.contains(d1));
    EXPECT_TRUE(r->analysis.blockResults(0, 1).in.contains(d0));
    EXPECT_FALSE(r->analysis.blockResults(0, 0).out.contains(d1));
    EXPECT_FALSE(r->analysis.blockResults(0, 1).out.contains(d0));
}

TEST(ReachingDefs, EpochKillRequiresAllThreadsAgree)
{
    // Def in epoch 0; thread 0 kills x in epoch 2 but thread 1
    // regenerates x in epoch 2: the old def dies (someone killed it and
    // thread 1's own new def survives instead), yet thread 1's def must
    // survive.
    auto r = runDefs(test::traceOf({
        {Event::write(0x10, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::write(0x10, 8)},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::write(0x10, 8)},
    }));
    const DefId d_old = InstrId{0, 0, 0}.pack();
    const DefId d_t0 = InstrId{2, 0, 0}.pack();
    const DefId d_t1 = InstrId{2, 1, 0}.pack();
    // SOS_4 summarizes epochs 0..2.
    const DefSet &sos4 = r->analysis.sos(4);
    EXPECT_FALSE(sos4.contains(d_old)); // killed by both threads
    EXPECT_TRUE(sos4.contains(d_t0));
    EXPECT_TRUE(sos4.contains(d_t1));
}

TEST(ReachingDefs, LsosResurrectionTerm)
{
    // SOS def killed by the head, but another thread regenerated the
    // location in epoch l-2 (which may interleave after the head): the
    // regenerated def reaches the body.
    //
    //   t0 epoch0: def x (enters SOS_2)
    //   t1 epoch1: def x (the l-2 regeneration, l=3)
    //   t0 epoch2: def x then... head kills old defs of x
    //   body = (3, 0)
    auto r = runDefs(test::traceOf({
        {Event::write(0x10, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::write(0x10, 8), Event::heartbeat(),
         Event::read(0x10)},
        {Event::nop(), Event::heartbeat(), Event::write(0x10, 8),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::nop()},
    }));
    const DefId d_t1_e1 = InstrId{1, 1, 0}.pack();
    const auto &body = r->analysis.blockResults(3, 0);
    // d_t1_e1 is in SOS_3; the head (2,0) kills x; but (1,1) generated it
    // and epoch 1... wait: the resurrection term needs GEN_{l-2,t'} =
    // GEN_{1,t1}: satisfied. So it must be in the LSOS.
    EXPECT_TRUE(r->analysis.sos(3).contains(d_t1_e1));
    EXPECT_TRUE(body.lsos.contains(d_t1_e1));
    // The head's own def reaches too.
    EXPECT_TRUE(body.lsos.contains(InstrId{2, 0, 0}.pack()));
}

TEST(ReachingDefs, InAtWalksTheBlockSequentially)
{
    auto r = runDefs(test::traceOf({{
        Event::write(0x10, 8),
        Event::write(0x10, 8),
    }}));
    const DefId d0 = InstrId{0, 0, 0}.pack();
    const DefId d1 = InstrId{0, 0, 1}.pack();
    EXPECT_FALSE(r->analysis.inAt(0, 0, 0).contains(d0));
    EXPECT_TRUE(r->analysis.inAt(0, 0, 1).contains(d0));
    const DefSet in2 = r->analysis.inAt(0, 0, 2);
    EXPECT_FALSE(in2.contains(d0)); // killed by d1
    EXPECT_TRUE(in2.contains(d1));
}

// --------------------------------------------------------------------
// Property tests: exhaustive verification against all valid orderings.
// --------------------------------------------------------------------

class ReachingDefsProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ReachingDefsProperty, Lemma51GenAndKillEpoch)
{
    Rng rng(GetParam());
    const Trace trace = test::randomSmallTrace(rng, 2, 3, 2, 3);
    auto r = runDefs(trace);
    const std::size_t L = r->layout.numEpochs();

    for (EpochId l = 0; l < L; ++l) {
        const ValidOrderings vo(r->layout, l);
        if (vo.size() == 0)
            continue;

        // Collect GEN(O_l) across every valid ordering.
        std::vector<DefSet> all_gens;
        vo.forEach([&](const std::vector<OrderedInstr> &order) {
            all_gens.push_back(test::genOfOrdering(order, defaultDefines));
            return true;
        });

        // Lemma 5.1 (GEN): every d in GEN_l is realized by some ordering.
        for (DefId d : r->analysis.genEpoch(l)) {
            bool witnessed = false;
            for (const DefSet &g : all_gens)
                witnessed = witnessed || g.contains(d);
            EXPECT_TRUE(witnessed)
                << "GEN_" << l << " def " << InstrId::unpack(d).toString()
                << " not realizable (seed " << GetParam() << ")";
        }

        // Lemma 5.1 (KILL): every def the analysis declares epoch-killed
        // is dead under *all* orderings.
        for (EpochId dl = 0; dl <= l; ++dl) {
            for (ThreadId dt = 0; dt < 2; ++dt) {
                const BlockView block = r->layout.block(dl, dt);
                for (InstrOffset i = 0; i < block.size(); ++i) {
                    const DefId d = InstrId{dl, dt, i}.pack();
                    if (!defaultDefines(block.events[i]))
                        continue;
                    if (!r->analysis.inKillEpoch(d, l))
                        continue;
                    for (const DefSet &g : all_gens) {
                        EXPECT_FALSE(g.contains(d))
                            << "KILL_" << l << " def "
                            << InstrId::unpack(d).toString()
                            << " reached under some ordering (seed "
                            << GetParam() << ")";
                    }
                }
            }
        }
    }
}

TEST_P(ReachingDefsProperty, Lemma52SosInvariant)
{
    Rng rng(GetParam() * 7919 + 13);
    const Trace trace = test::randomSmallTrace(rng, 2, 3, 2, 3);
    auto r = runDefs(trace);
    const std::size_t L = r->layout.numEpochs();

    // SOS_l holds d iff some valid ordering of epochs [0, l-2] ends with
    // d defined (checked for every epoch whose window fits the trace).
    for (EpochId l = 2; l < L + 2; ++l) {
        const EpochId last = l - 2;
        if (last >= L)
            break;
        const ValidOrderings vo(r->layout, last);

        DefSet realizable;
        vo.forEach([&](const std::vector<OrderedInstr> &order) {
            const DefSet g = test::genOfOrdering(order, defaultDefines);
            realizable.unionWith(g);
            return true;
        });

        EXPECT_EQ(r->analysis.sos(l).sorted(), realizable.sorted())
            << "SOS invariant violated at epoch " << l << " (seed "
            << GetParam() << ")";
    }
}

TEST_P(ReachingDefsProperty, InIsSoundForEveryPathToTheBlock)
{
    Rng rng(GetParam() * 104729 + 7);
    const Trace trace = test::randomSmallTrace(rng, 2, 3, 2, 2);
    auto r = runDefs(trace);
    const std::size_t L = r->layout.numEpochs();

    // For every block (l,t) and every valid ordering of epochs up to
    // l+1 (the wings), the definitions live just before the block's
    // first instruction must be contained in IN_{l,t}.
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
                const DefSet live =
                    test::genOfOrdering(prefix, defaultDefines);
                for (DefId d : live) {
                    EXPECT_TRUE(in.contains(d))
                        << "IN_{" << l << "," << t << "} missing "
                        << InstrId::unpack(d).toString() << " (seed "
                        << GetParam() << ")";
                }
                return true;
            });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachingDefsProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

} // namespace
} // namespace bfly
