/**
 * @file
 * Unit tests for the static elision subsystem (src/staticpass/): the
 * SiteTable, deterministic pseudo-site stamping, the flow-insensitive
 * site classifier (lattice rungs, candidacy, demotion fixpoint) and
 * plan application (run flushing, exact accounting, fingerprints).
 */

#include <gtest/gtest.h>

#include "staticpass/classify.hpp"
#include "staticpass/elision_plan.hpp"
#include "staticpass/site_table.hpp"
#include "tests/helpers.hpp"

using namespace bfly;
using namespace bfly::staticpass;

namespace {

/** Stamp a site id onto a factory-built event. */
Event
at(Event e, SiteId site)
{
    e.site = site;
    return e;
}

} // namespace

// ---------------------------------------------------------------------
// SiteTable

TEST(SiteTable, InternsDenseStableIdsFromOne)
{
    SiteTable t;
    EXPECT_EQ(t.size(), 0u);
    const SiteId a = t.intern("ocean/relax");
    const SiteId b = t.intern("ocean/border");
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(t.intern("ocean/relax"), a); // idempotent
    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.name(a), "ocean/relax");
    EXPECT_EQ(t.name(b), "ocean/border");
}

TEST(SiteTable, LookupMissesReturnNoSite)
{
    SiteTable t;
    t.intern("x");
    EXPECT_EQ(t.lookup("x"), 1u);
    EXPECT_EQ(t.lookup("never-interned"), kNoSite);
}

TEST(SiteTable, NameOfUnknownIdsIsQuestionMark)
{
    SiteTable t;
    t.intern("only");
    EXPECT_EQ(t.name(kNoSite), "?");
    EXPECT_EQ(t.name(2), "?"); // out of range
    EXPECT_EQ(t.name(0xFFFFFFFFu), "?");
}

// ---------------------------------------------------------------------
// Pseudo-site stamping

TEST(PseudoSites, StampingIsDeterministicInTraceContent)
{
    auto build = [] {
        return test::traceOf({
            {Event::read(0x1000, 8), Event::write(0x1040, 8),
             Event::nop(), Event::heartbeat(), Event::barrier()},
            {Event::read(0x1000, 8)},
        });
    };
    Trace a = build(), b = build();
    SiteTable ta, tb;
    const std::size_t na = assignPseudoSites(a, ta);
    const std::size_t nb = assignPseudoSites(b, tb);
    EXPECT_EQ(na, nb);
    EXPECT_EQ(ta.size(), tb.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t)
        for (std::size_t i = 0; i < a.threads[t].events.size(); ++i)
            EXPECT_EQ(a.threads[t].events[i].site,
                      b.threads[t].events[i].site);
}

TEST(PseudoSites, KeysOnThreadKindAndRegion)
{
    // 0x1000 and 0x1008 share a 64-byte region; 0x1040 does not.
    Trace trace = test::traceOf({
        {Event::read(0x1000, 8), Event::read(0x1008, 8),
         Event::read(0x1040, 8), Event::write(0x1000, 8)},
        {Event::read(0x1000, 8)},
    });
    SiteTable table;
    EXPECT_EQ(assignPseudoSites(trace, table), 5u);
    const auto &t0 = trace.threads[0].events;
    EXPECT_EQ(t0[0].site, t0[1].site);  // same (tid, kind, region)
    EXPECT_NE(t0[0].site, t0[2].site);  // different region
    EXPECT_NE(t0[0].site, t0[3].site);  // different kind
    EXPECT_NE(t0[0].site, trace.threads[1].events[0].site); // tid
    EXPECT_EQ(table.name(t0[0].site), "t0/read/0x40");
}

TEST(PseudoSites, NopsGetPerThreadSitesMarkersStayUnattributed)
{
    Trace trace = test::traceOf({
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::barrier()},
    });
    SiteTable table;
    EXPECT_EQ(assignPseudoSites(trace, table), 2u);
    const auto &ev = trace.threads[0].events;
    EXPECT_NE(ev[0].site, kNoSite);
    EXPECT_EQ(ev[0].site, ev[2].site); // one nop site per thread
    EXPECT_EQ(ev[1].site, kNoSite);    // heartbeat
    EXPECT_EQ(ev[3].site, kNoSite);    // barrier
    EXPECT_EQ(table.name(ev[0].site), "t0/nop/0x0");
}

TEST(PseudoSites, AlreadyStampedEventsAreLeftAlone)
{
    Trace trace = test::traceOf({{at(Event::read(0x1000, 8), 77)}});
    SiteTable table;
    EXPECT_EQ(assignPseudoSites(trace, table), 0u);
    EXPECT_EQ(trace.threads[0].events[0].site, 77u);
    EXPECT_EQ(table.size(), 0u);
}

// ---------------------------------------------------------------------
// Classification lattice

TEST(Classify, PrivateAllocCoveredSiteIsAlwaysPrivate)
{
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        at(Event::alloc(0x1000, 64), s),
        at(Event::write(0x1000, 8), s),
        at(Event::read(0x1000, 8), s),
        at(Event::freeOf(0x1000, 64), s),
    }};
    ClassifyStats stats;
    const ElisionPlan plan = classifySites(programs, table, {}, &stats);
    EXPECT_EQ(plan.classOf(s), SiteClass::AlwaysPrivate);
    EXPECT_TRUE(plan.elides(s));
    EXPECT_EQ(stats.byClass[3], 1u);
    EXPECT_EQ(stats.candidateEvents, 2u); // the R/W pair, not alloc/free
}

TEST(Classify, ReadOfUndefinedMemoryIsNotPrivate)
{
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        at(Event::alloc(0x1000, 64), s),
        at(Event::read(0x1000, 8), s), // fresh memory: no def cover
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_FALSE(plan.elides(s));
    // Nothing is freed or tainted, so the middle rung still holds.
    EXPECT_EQ(plan.classOf(s), SiteClass::ProvablyUntainted);
}

TEST(Classify, ReadOfUnallocatedMemoryIsNotPrivate)
{
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        at(Event::write(0x1000, 8), s), // no alloc cover
        at(Event::read(0x1000, 8), s),
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_FALSE(plan.elides(s));
}

TEST(Classify, CrossThreadSharingDemotesBothSites)
{
    SiteTable table;
    const SiteId a = table.intern("a"), b = table.intern("b");
    const std::vector<std::vector<Event>> programs = {
        {at(Event::alloc(0x1000, 8), a), at(Event::write(0x1000, 8), a),
         at(Event::read(0x1000, 8), a)},
        {at(Event::read(0x1000, 8), b)},
    };
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_FALSE(plan.elides(a));
    EXPECT_FALSE(plan.elides(b));
}

TEST(Classify, FreeElsewhereInProgramOrderStillPrivate)
{
    // The same-thread Free after the accesses is benign for candidacy:
    // program order separates it from every covered access.
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        at(Event::alloc(0x2000, 32), s),
        at(Event::write(0x2000, 8), s),
        at(Event::read(0x2000, 8), s),
        at(Event::freeOf(0x2000, 32), s),
        // Reuse after free: a *new* alloc re-covers the bytes.
        at(Event::alloc(0x2000, 32), s),
        at(Event::write(0x2000, 8), s),
        at(Event::read(0x2000, 8), s),
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_TRUE(plan.elides(s));
}

TEST(Classify, UseAfterFreeWindowIsNotPrivate)
{
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        at(Event::alloc(0x2000, 32), s),
        at(Event::write(0x2000, 8), s),
        at(Event::freeOf(0x2000, 32), s),
        at(Event::read(0x2000, 8), s), // dangling: alloc mask cleared
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_FALSE(plan.elides(s));
}

TEST(Classify, TaintTouchedCellsLandOnTheNeverFreedRung)
{
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        at(Event::alloc(0x2000, 8), s),
        at(Event::write(0x2000, 8), s),
        at(Event::read(0x2000, 8), s),
        Event::taintSrc(0x2000, 8), // unattributed; dirties the cell
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_FALSE(plan.elides(s));
    EXPECT_EQ(plan.classOf(s), SiteClass::NeverFreed);
}

TEST(Classify, TaintFlowsThroughAssignsToDemoteDestinations)
{
    SiteTable table;
    const SiteId s = table.intern("k");
    const std::vector<std::vector<Event>> programs = {{
        Event::taintSrc(0x9000, 8),
        Event::assign(0x2000, 0x9000), // 0x2000 now in the closure
        at(Event::alloc(0x2000, 8), s),
        at(Event::write(0x2000, 8), s),
    }};
    const ElisionPlan plan = classifySites(programs, table);
    // The assign dirties the cell, so candidacy fails; the closure
    // additionally denies the ProvablyUntainted rung.
    EXPECT_EQ(plan.classOf(s), SiteClass::NeverFreed);
}

TEST(Classify, UnattributedSiteIsAlwaysMustMonitor)
{
    SiteTable table;
    const std::vector<std::vector<Event>> programs = {{
        Event::alloc(0x1000, 8),
        Event::write(0x1000, 8),
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_EQ(plan.classOf(kNoSite), SiteClass::MustMonitor);
    EXPECT_FALSE(plan.elides(kNoSite));
}

// ---------------------------------------------------------------------
// Demotion fixpoint

TEST(Classify, RetainedReadDemotesTheWritingSite)
{
    SiteTable table;
    const SiteId s = table.intern("writer");
    const std::vector<std::vector<Event>> programs = {{
        Event::alloc(0x1000, 16),
        at(Event::write(0x1000, 8), s),
        Event::read(0x1000, 8), // unattributed, therefore retained
    }};
    ClassifyStats stats;
    const ElisionPlan plan = classifySites(programs, table, {}, &stats);
    // Eliding the write would make the retained read look undefined.
    EXPECT_FALSE(plan.elides(s));
    EXPECT_GE(stats.fixpointRounds, 2u);
}

TEST(Classify, DemotionCascadesThroughSiteChains)
{
    SiteTable table;
    const SiteId a = table.intern("a"), b = table.intern("b");
    const std::vector<std::vector<Event>> programs = {{
        Event::alloc(0x1000, 64),
        at(Event::write(0x1000, 8), a),
        at(Event::write(0x1008, 8), b),
        at(Event::read(0x1008, 8), a),
        Event::read(0x1000, 8), // retained: demotes a, then a's read
                                // retains 0x1008, demoting b
    }};
    ClassifyStats stats;
    const ElisionPlan plan = classifySites(programs, table, {}, &stats);
    EXPECT_FALSE(plan.elides(a));
    EXPECT_FALSE(plan.elides(b));
    EXPECT_GE(stats.fixpointRounds, 3u);
}

TEST(Classify, IndependentPrivateSiteSurvivesTheFixpoint)
{
    SiteTable table;
    const SiteId hot = table.intern("hot"), cold = table.intern("cold");
    const std::vector<std::vector<Event>> programs = {{
        Event::alloc(0x1000, 16),
        Event::alloc(0x8000, 16),
        at(Event::write(0x1000, 8), hot),
        Event::read(0x1000, 8), // demotes hot only
        at(Event::write(0x8000, 8), cold),
        at(Event::read(0x8000, 8), cold),
    }};
    const ElisionPlan plan = classifySites(programs, table);
    EXPECT_FALSE(plan.elides(hot));
    EXPECT_TRUE(plan.elides(cold));
}

// ---------------------------------------------------------------------
// Plan application

TEST(ElisionPlanApply, RunsFlushAtRetainedEventsAndMarkers)
{
    ElisionPlan plan;
    plan.classes = {SiteClass::MustMonitor, SiteClass::AlwaysPrivate,
                    SiteClass::MustMonitor};
    std::vector<Event> events = {
        at(Event::read(0x10, 8), 1),  at(Event::write(0x18, 8), 1),
        at(Event::nop(), 1),          Event::heartbeat(),
        at(Event::read(0x10, 8), 1),  at(Event::read(0x20, 8), 2),
        at(Event::write(0x18, 8), 1),
    };
    for (std::size_t i = 0; i < events.size(); ++i)
        events[i].gseq = 100 + i;

    ElisionStats stats;
    const std::vector<Event> out =
        applyElisionPlan(events, plan, &stats);

    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0].kind, EventKind::SiteSummary);
    EXPECT_EQ(out[0].site, 1u);
    EXPECT_EQ(out[0].summaryCount(), 3u);
    EXPECT_EQ(out[0].gseq, 102u); // max gseq of the covered run
    EXPECT_EQ(out[1].kind, EventKind::Heartbeat);
    EXPECT_EQ(out[2].kind, EventKind::SiteSummary);
    EXPECT_EQ(out[2].summaryCount(), 1u);
    EXPECT_EQ(out[3].kind, EventKind::Read); // the retained site-2 read
    EXPECT_EQ(out[3].site, 2u);
    EXPECT_EQ(out[4].kind, EventKind::SiteSummary); // trailing flush
    EXPECT_EQ(out[4].summaryCount(), 1u);

    EXPECT_EQ(stats.inputEvents, 6u); // heartbeat not counted
    EXPECT_EQ(stats.elidedEvents, 5u);
    EXPECT_EQ(stats.retainedEvents, 1u);
    EXPECT_EQ(stats.summaryEvents, 3u);
}

TEST(ElisionPlanApply, OneSummaryPerDistinctSitePerRun)
{
    ElisionPlan plan;
    plan.classes = {SiteClass::MustMonitor, SiteClass::AlwaysPrivate,
                    SiteClass::AlwaysPrivate};
    const std::vector<Event> events = {
        at(Event::read(0x10, 8), 1), at(Event::read(0x40, 8), 2),
        at(Event::read(0x18, 8), 1), at(Event::read(0x48, 8), 2),
    };
    ElisionStats stats;
    const std::vector<Event> out =
        applyElisionPlan(events, plan, &stats);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].site, 1u); // first-seen order
    EXPECT_EQ(out[0].summaryCount(), 2u);
    EXPECT_EQ(out[1].site, 2u);
    EXPECT_EQ(out[1].summaryCount(), 2u);
    EXPECT_EQ(stats.summaryEvents, 2u);
}

TEST(ElisionPlanApply, SummaryCountsAccountForEveryElidedEvent)
{
    // Property over the whole trace: sum(summary counts) == elided.
    ElisionPlan plan;
    plan.classes = {SiteClass::MustMonitor, SiteClass::AlwaysPrivate};
    std::vector<Event> events;
    for (int i = 0; i < 100; ++i) {
        events.push_back(at(Event::write(0x1000 + 8 * i, 8), 1));
        if (i % 7 == 0)
            events.push_back(Event::read(0x9000, 8)); // retained
        if (i % 13 == 0)
            events.push_back(Event::heartbeat());
    }
    ElisionStats stats;
    const std::vector<Event> out =
        applyElisionPlan(events, plan, &stats);
    std::uint64_t summed = 0, summaries = 0;
    for (const Event &e : out)
        if (e.kind == EventKind::SiteSummary) {
            summed += e.summaryCount();
            ++summaries;
        }
    EXPECT_EQ(summed, stats.elidedEvents);
    EXPECT_EQ(summaries, stats.summaryEvents);
    EXPECT_EQ(stats.inputEvents,
              stats.elidedEvents + stats.retainedEvents);
    EXPECT_EQ(stats.elidedEvents, 100u);
}

TEST(ElisionPlanApply, OnlyReadWriteNopKindsAreEverElided)
{
    // Even at an AlwaysPrivate site, allocs/frees/locks are retained.
    ElisionPlan plan;
    plan.classes = {SiteClass::MustMonitor, SiteClass::AlwaysPrivate};
    const std::vector<Event> events = {
        at(Event::alloc(0x1000, 16), 1), at(Event::write(0x1000, 8), 1),
        at(Event::freeOf(0x1000, 16), 1), at(Event::lock(0x50), 1),
    };
    ElisionStats stats;
    const std::vector<Event> out =
        applyElisionPlan(events, plan, &stats);
    ASSERT_EQ(out.size(), 4u); // alloc, summary(write), free, lock
    EXPECT_EQ(out[0].kind, EventKind::Alloc);
    EXPECT_EQ(out[1].kind, EventKind::SiteSummary);
    EXPECT_EQ(out[2].kind, EventKind::Free);
    EXPECT_EQ(out[3].kind, EventKind::Lock);
    EXPECT_EQ(stats.elidedEvents, 1u);
}

TEST(ElisionPlanApply, EmptyPlanIsIdentity)
{
    const std::vector<Event> events = {
        at(Event::read(0x10, 8), 1), Event::heartbeat(),
        at(Event::write(0x18, 8), 2),
    };
    ElisionStats stats;
    const std::vector<Event> out =
        applyElisionPlan(events, ElisionPlan{}, &stats);
    ASSERT_EQ(out.size(), events.size());
    EXPECT_EQ(stats.elidedEvents, 0u);
    EXPECT_EQ(stats.summaryEvents, 0u);
    EXPECT_EQ(stats.retainedEvents, 2u);
}

// ---------------------------------------------------------------------
// Fingerprints

TEST(ElisionPlanFingerprint, EmptyPlanIsZero)
{
    EXPECT_EQ(ElisionPlan{}.fingerprint(), 0u);
    ElisionPlan only_nosite;
    only_nosite.classes = {SiteClass::MustMonitor};
    EXPECT_EQ(only_nosite.fingerprint(), 0u);
}

TEST(ElisionPlanFingerprint, StableAndSensitiveToEveryClass)
{
    ElisionPlan a;
    a.classes = {SiteClass::MustMonitor, SiteClass::AlwaysPrivate,
                 SiteClass::NeverFreed};
    ElisionPlan b = a;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_NE(a.fingerprint(), 0u);
    b.classes[2] = SiteClass::ProvablyUntainted;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ElisionPlanFingerprint, MatchesAcrossIndependentDerivations)
{
    // The property the wire handshake relies on: both ends derive the
    // plan independently from the same trace and must agree.
    auto derive = [] {
        Trace trace = test::traceOf({
            {Event::alloc(0x1000, 64), Event::write(0x1000, 8),
             Event::read(0x1000, 8), Event::nop()},
            {Event::read(0x7000, 8)},
        });
        SiteTable table;
        return buildElisionPlan(trace, table).fingerprint();
    };
    EXPECT_EQ(derive(), derive());
}

// ---------------------------------------------------------------------
// End to end: elision on a stamped trace never hides an oracle error

TEST(ElisionEndToEnd, SummariesLandInTheSameEpochAsTheirRun)
{
    Trace trace = test::traceOf({
        {Event::alloc(0x1000, 64), Event::write(0x1000, 8),
         Event::read(0x1000, 8), Event::heartbeat(),
         Event::write(0x1008, 8)},
    });
    std::uint64_t g = 0;
    for (auto &e : trace.threads[0].events)
        e.gseq = ++g;
    SiteTable table;
    const ElisionPlan plan = buildElisionPlan(trace, table);
    ElisionStats stats;
    const Trace elided = applyElisionPlan(trace, plan, &stats);
    ASSERT_GT(stats.elidedEvents, 0u);
    // Every summary's gseq must not exceed the marker that follows it,
    // so EpochLayout::byGlobalSeq buckets it with the run's epoch.
    const auto &ev = elided.threads[0].events;
    for (std::size_t i = 0; i + 1 < ev.size(); ++i) {
        if (ev[i].kind == EventKind::SiteSummary) {
            EXPECT_LE(ev[i].gseq, ev[i + 1].gseq != 0
                                      ? ev[i + 1].gseq
                                      : ev[i].gseq);
        }
    }
}

