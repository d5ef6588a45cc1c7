/**
 * @file
 * Tests for the adaptive epoch controller and the EpochStream re-slice
 * seam: every rung of the degradation ladder (table-driven), hysteresis
 * asymmetry and no-oscillation guarantees under steady and noisy load,
 * and the construction-time coalescing invariants — realized spans
 * partition the source epochs, streamed blocks are bit-identical to
 * EpochLayout::coalescedFromHeartbeats over the same spans (including
 * duplicate and out-of-order heartbeats straddling a re-slice
 * boundary), and a full analyzeStreaming run under a forced h-cycle
 * reproduces the coalesced reference report exactly.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/worker_pool.hpp"
#include "service/analyzer.hpp"
#include "service/epoch_controller.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly::service {
namespace {

ControllerSample
pressure(double p)
{
    ControllerSample s;
    s.queueFraction = p;
    return s;
}

// ---------------------------------------------------------- ladder rungs

TEST(EpochController, LadderClimbsOneRungPerHotStreak)
{
    // Default hysteresis: two consecutive hot samples per climb.
    EpochController ctl;
    const DegradeLevel rungs[] = {
        DegradeLevel::Grow2, DegradeLevel::Grow4, DegradeLevel::Grow8,
        DegradeLevel::Partial, DegradeLevel::Busy, DegradeLevel::Shed,
    };
    EXPECT_EQ(ctl.level(), DegradeLevel::Normal);
    for (const DegradeLevel expect : rungs) {
        ctl.observe(pressure(0.9));
        ctl.observe(pressure(0.9));
        EXPECT_EQ(ctl.level(), expect);
    }
    // Saturates at Shed.
    ctl.observe(pressure(1.0));
    ctl.observe(pressure(1.0));
    EXPECT_EQ(ctl.level(), DegradeLevel::Shed);
    EXPECT_EQ(ctl.escalations(), 6u);
}

TEST(EpochController, RecoveryDescendsOneRungPerCoolStreak)
{
    EpochController ctl;
    for (int i = 0; i < 12; ++i)
        ctl.observe(pressure(0.9)); // drive to Shed
    ASSERT_EQ(ctl.level(), DegradeLevel::Shed);

    const DegradeLevel rungs[] = {
        DegradeLevel::Busy, DegradeLevel::Partial, DegradeLevel::Grow8,
        DegradeLevel::Grow4, DegradeLevel::Grow2, DegradeLevel::Normal,
    };
    for (const DegradeLevel expect : rungs) {
        for (int i = 0; i < 4; ++i)
            ctl.observe(pressure(0.1));
        EXPECT_EQ(ctl.level(), expect);
    }
    // Floors at Normal.
    for (int i = 0; i < 8; ++i)
        ctl.observe(pressure(0.0));
    EXPECT_EQ(ctl.level(), DegradeLevel::Normal);
    EXPECT_EQ(ctl.recoveries(), 6u);
}

/** Table-driven transitions: each case replays a sample sequence from
 *  Normal and checks the rung it lands on. */
TEST(EpochController, TransitionTable)
{
    struct Case
    {
        const char *name;
        std::vector<double> samples;
        DegradeLevel expect;
    };
    const Case cases[] = {
        {"one hot sample is not a streak", {0.9}, DegradeLevel::Normal},
        {"two hot samples climb once", {0.9, 0.8}, DegradeLevel::Grow2},
        {"dead band breaks a hot streak",
         {0.9, 0.6, 0.9},
         DegradeLevel::Normal},
        {"cool sample breaks a hot streak",
         {0.9, 0.1, 0.9},
         DegradeLevel::Normal},
        {"climb then three cool samples hold the rung",
         {0.9, 0.9, 0.1, 0.1, 0.1},
         DegradeLevel::Grow2},
        {"climb then four cool samples recover",
         {0.9, 0.9, 0.1, 0.1, 0.1, 0.1},
         DegradeLevel::Normal},
        {"dead band breaks a cool streak",
         {0.9, 0.9, 0.1, 0.1, 0.6, 0.1, 0.1, 0.1},
         DegradeLevel::Grow2},
        {"threshold values are inclusive",
         {0.75, 0.75},
         DegradeLevel::Grow2},
        {"four rungs of sustained pressure",
         {0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9},
         DegradeLevel::Partial},
    };
    for (const Case &c : cases) {
        EpochController ctl;
        for (const double p : c.samples)
            ctl.observe(pressure(p));
        EXPECT_EQ(ctl.level(), c.expect) << c.name;
    }
}

TEST(EpochController, PressureIsMaxOfAllFractions)
{
    // Any one saturated input escalates, whichever field carries it.
    for (int field = 0; field < 3; ++field) {
        EpochController ctl;
        ControllerSample s;
        (field == 0   ? s.queueFraction
         : field == 1 ? s.budgetFraction
                      : s.partialRate) = 0.95;
        ctl.observe(s);
        ctl.observe(s);
        EXPECT_EQ(ctl.level(), DegradeLevel::Grow2) << field;
    }
}

// ------------------------------------------------------- no oscillation

TEST(EpochController, SteadyMidBandPressureNeverMoves)
{
    // The dead band between the thresholds must absorb steady load: no
    // escalation, no recovery, no level flapping.
    EpochController ctl;
    for (int i = 0; i < 1000; ++i) {
        ctl.observe(pressure(0.6));
        ASSERT_EQ(ctl.level(), DegradeLevel::Normal);
    }
    EXPECT_EQ(ctl.escalations(), 0u);
    EXPECT_EQ(ctl.recoveries(), 0u);
}

TEST(EpochController, AlternatingNoiseNeverEscalates)
{
    // A hot sample followed by a cool one, forever: neither streak can
    // reach its threshold, so the ladder must not move at all.
    EpochController ctl;
    for (int i = 0; i < 1000; ++i) {
        ctl.observe(pressure(i % 2 ? 0.95 : 0.05));
        ASSERT_EQ(ctl.level(), DegradeLevel::Normal);
    }
    EXPECT_EQ(ctl.escalations(), 0u);
    EXPECT_EQ(ctl.recoveries(), 0u);
}

TEST(EpochController, HysteresisIsAsymmetric)
{
    // Escalating is deliberately faster than recovering: a rung climbed
    // after two hot samples needs four cool ones to descend, so a
    // 50/50 hot/cool duty cycle in *streaks* ratchets up, not down.
    ControllerConfig cfg;
    EXPECT_LT(cfg.escalateAfter, cfg.recoverAfter);

    EpochController ctl(cfg);
    for (int cycle = 0; cycle < 3; ++cycle) {
        ctl.observe(pressure(0.9));
        ctl.observe(pressure(0.9));
        ctl.observe(pressure(0.1));
        ctl.observe(pressure(0.1));
    }
    EXPECT_EQ(ctl.level(), DegradeLevel::Grow8);
    EXPECT_EQ(ctl.recoveries(), 0u);
}

TEST(EpochController, CoalesceFactorFollowsTheLadder)
{
    EpochController ctl;
    EXPECT_EQ(ctl.coalesceFactor(), 1u); // Normal
    auto climb = [&] {
        ctl.observe(pressure(0.9));
        ctl.observe(pressure(0.9));
        return ctl.coalesceFactor();
    };
    EXPECT_EQ(climb(), 2u); // Grow2
    EXPECT_EQ(climb(), 4u); // Grow4
    EXPECT_EQ(climb(), 8u); // Grow8
    EXPECT_EQ(climb(), 8u); // Partial: saturated
    EXPECT_EQ(climb(), 8u); // Busy
    EXPECT_EQ(climb(), 8u); // Shed
}

TEST(EpochController, DegradeLevelNamesAreStable)
{
    EXPECT_STREQ(degradeLevelName(DegradeLevel::Normal), "normal");
    EXPECT_STREQ(degradeLevelName(DegradeLevel::Shed), "shed");
}

// ------------------------------------------------ EpochStream re-slice

/** Marked trace whose threads carry *different* marker counts —
 *  duplicate (adjacent) heartbeats in one thread, a leading heartbeat
 *  in another — the skewed-delivery shapes a re-slice must survive.
 *  Thread t's block in source epoch l holds writes to distinct
 *  addresses, so any mis-sliced boundary changes some block's content. */
Trace
makeSkewedMarkedTrace(unsigned source_epochs)
{
    Trace trace;
    trace.threads.resize(3);
    for (unsigned t = 0; t < 3; ++t)
        trace.threads[t].tid = t;

    const Addr heap = 0x1000000;
    for (unsigned t = 0; t < 3; ++t) {
        std::vector<Event> &ev = trace.threads[t].events;
        ev.push_back(Event::alloc(heap + t * 0x1000, 0x1000));
        if (t == 2)
            ev.push_back(Event::heartbeat()); // empty first block
        for (unsigned l = 0; l < source_epochs; ++l) {
            if (l > 0) {
                ev.push_back(Event::heartbeat());
                if (t == 1 && l % 3 == 0)
                    ev.push_back(Event::heartbeat()); // duplicate: empty
            }
            for (unsigned i = 0; i < 2 + (l % 3); ++i)
                ev.push_back(
                    Event::write(heap + t * 0x1000 + 8 * (l * 8 + i), 8));
        }
    }
    return trace;
}

TEST(EpochStreamReslice, SpansPartitionTheSourceEpochs)
{
    const Trace trace = makeSkewedMarkedTrace(17);
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    cfg.windowEpochs = 64;
    cfg.reslice = [](EpochId, std::span<const std::size_t>) {
        return std::size_t{3};
    };
    EpochStream stream(trace, cfg);

    // Threads disagree on marker counts; the slicer pads to the max.
    // 17 nominal epochs + thread 1's duplicates + thread 2's leading
    // marker land somewhere >= 17; whatever the count, the spans must
    // cover it exactly once and numEpochs() must be the group count.
    EXPECT_GE(stream.sourceEpochs(), 17u);
    const std::vector<std::uint32_t> &spans = stream.realizedSpans();
    EXPECT_EQ(stream.numEpochs(), spans.size());
    std::size_t covered = 0;
    for (const std::uint32_t k : spans) {
        EXPECT_GE(k, 1u);
        covered += k;
    }
    EXPECT_EQ(covered, stream.sourceEpochs());
}

TEST(EpochStreamReslice, PolicyReturnIsClampedToValidRange)
{
    const Trace trace = makeSkewedMarkedTrace(9);
    for (const std::size_t raw : {std::size_t{0}, std::size_t{1000}}) {
        EpochStream::Config cfg;
        cfg.fromHeartbeats = true;
        cfg.windowEpochs = 64;
        cfg.reslice = [raw](EpochId, std::span<const std::size_t>) {
            return raw;
        };
        EpochStream stream(trace, cfg);
        const auto &spans = stream.realizedSpans();
        ASSERT_FALSE(spans.empty());
        std::size_t covered = 0;
        for (const std::uint32_t k : spans) {
            EXPECT_GE(k, 1u);
            covered += k;
        }
        EXPECT_EQ(covered, stream.sourceEpochs());
        if (raw == 1000) {
            EXPECT_EQ(spans.size(), 1u); // clamped to all-remaining
        }
    }
}

/** Streamed blocks across a re-slice must be bit-identical to the
 *  coalesced reference layout — same events, same stable first-index —
 *  including the groups whose interior boundaries carry duplicate and
 *  skewed heartbeats. */
TEST(EpochStreamReslice, BlocksMatchCoalescedLayoutUnderSkew)
{
    const Trace trace = makeSkewedMarkedTrace(17);
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    cfg.windowEpochs = 64;
    std::size_t call = 0;
    cfg.reslice = [&call](EpochId, std::span<const std::size_t>) {
        static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
        return kCycle[call++ % 4];
    };
    EpochStream stream(trace, cfg);

    const EpochLayout layout = EpochLayout::coalescedFromHeartbeats(
        trace, stream.realizedSpans());
    ASSERT_EQ(layout.numEpochs(), stream.numEpochs());
    ASSERT_EQ(layout.numThreads(), stream.numThreads());

    for (EpochId l = 0; l < stream.numEpochs(); ++l)
        stream.acquire(l);
    for (EpochId l = 0; l < stream.numEpochs(); ++l) {
        for (ThreadId t = 0; t < stream.numThreads(); ++t) {
            const BlockView a = stream.block(l, t);
            const BlockView b = layout.block(l, t);
            ASSERT_EQ(a.size(), b.size()) << "epoch " << l << " tid " << t;
            ASSERT_EQ(a.first, b.first) << "epoch " << l << " tid " << t;
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a.events[i].kind, b.events[i].kind);
                EXPECT_EQ(a.events[i].addr, b.events[i].addr);
            }
        }
    }
    for (EpochId l = 0; l < stream.numEpochs(); ++l)
        stream.retire(l);
}

TEST(EpochStreamReslice, NullPolicyLeavesTheSourceSlicingUntouched)
{
    const Trace trace = makeSkewedMarkedTrace(11);
    EpochStream::Config plain;
    plain.fromHeartbeats = true;
    EpochStream stream(trace, plain);
    EXPECT_EQ(stream.numEpochs(), stream.sourceEpochs());
    EXPECT_TRUE(stream.realizedSpans().empty());
}

// ------------------------------------- end-to-end analyzer bit-identity

/** A forced width cycle through a full streamed analysis must produce
 *  the exact report of an in-process reference run over the coalesced
 *  layout — the service's conformance invariant, without the wire. */
TEST(EpochStreamReslice, AnalyzeStreamingMatchesCoalescedReference)
{
    const Trace trace = makeSkewedMarkedTrace(21);
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = 8;
    spec.heapBase = 0x1000000;
    spec.heapLimit = 0x1000000 + 0x100000;
    spec.windowEpochs = 4;

    WorkerPool pool(2);
    auto group = std::make_shared<std::size_t>(0);
    EpochStream::ReslicePolicy cycle =
        [group](EpochId, std::span<const std::size_t>) {
            static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
            return kCycle[(*group)++ % 4];
        };
    std::vector<std::uint32_t> spans;
    const RemoteReport remote =
        analyzeStreaming(spec, trace, pool, cycle, &spans);

    ASSERT_FALSE(spans.empty());
    std::uint64_t changes = 0;
    for (std::size_t i = 1; i < spans.size(); ++i)
        if (spans[i] != spans[i - 1])
            ++changes;
    EXPECT_GE(changes, 3u) << "cycle policy must force h-changes";

    const RemoteReport reference = analyzeReference(
        spec, trace, EpochLayout::coalescedFromHeartbeats(trace, spans));
    EXPECT_TRUE(remote.identical(reference));
    EXPECT_EQ(remote.epochs, spans.size());
}

} // namespace
} // namespace bfly::service
