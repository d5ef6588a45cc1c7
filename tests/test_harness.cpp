/**
 * @file
 * Tests for the monitoring harness: the performance model's structural
 * properties (who gets faster with what), end-to-end sessions, and the
 * session stage graph against the same session run one stage after
 * another.
 */

#include <gtest/gtest.h>

#include "common/worker_pool.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "staticpass/elision_plan.hpp"
#include "trace/log_codec.hpp"
#include "workloads/bugs.hpp"

namespace bfly {
namespace {

SessionConfig
baseConfig(WorkloadFactory factory, unsigned threads,
           std::size_t epoch = 512)
{
    SessionConfig cfg;
    cfg.factory = factory;
    cfg.workload.numThreads = threads;
    cfg.workload.instrPerThread = 20000;
    cfg.workload.phaseEvents = 2000;
    cfg.workload.warmupNops = 2000;
    cfg.epochSize = epoch;
    return cfg;
}

TEST(Session, RunsEndToEndWithSaneOutputs)
{
    const SessionResult r = runSession(baseConfig(makeFft, 4));
    EXPECT_EQ(r.workloadName, "fft");
    EXPECT_EQ(r.threads, 4u);
    EXPECT_GT(r.instructions, 40000u);
    EXPECT_GT(r.memoryAccesses, 0u);
    EXPECT_GT(r.epochs, 4u);
    EXPECT_EQ(r.accuracy.falseNegatives, 0u);
    EXPECT_GT(r.perf.sequentialBaseline, 0u);
    EXPECT_GT(r.perf.timesliced.normalized, 0.0);
    EXPECT_GT(r.perf.butterfly.normalized, 0.0);
    EXPECT_GT(r.perf.parallelNoMonitor.normalized, 0.0);
}

TEST(Session, ParallelNoMonitorBeatsSequential)
{
    const SessionResult r = runSession(baseConfig(makeFft, 4));
    EXPECT_LT(r.perf.parallelNoMonitor.normalized, 1.0);
}

TEST(Session, ButterflyScalesWithThreads)
{
    const SessionResult r2 = runSession(baseConfig(makeFft, 2));
    const SessionResult r8 = runSession(baseConfig(makeFft, 8));
    EXPECT_LT(r8.perf.butterfly.normalized,
              r2.perf.butterfly.normalized);
}

TEST(Session, TimeslicedDoesNotScaleWithThreads)
{
    const SessionResult r2 = runSession(baseConfig(makeFft, 2));
    const SessionResult r8 = runSession(baseConfig(makeFft, 8));
    // Timesliced monitoring serializes everything: within a generous
    // tolerance its normalized time must not improve with threads.
    EXPECT_GT(r8.perf.timesliced.normalized,
              0.8 * r2.perf.timesliced.normalized);
}

TEST(Session, LargerEpochsAmortizeButterflyOverheadForCleanWorkloads)
{
    const SessionResult small =
        runSession(baseConfig(makeFft, 4, 256));
    const SessionResult large =
        runSession(baseConfig(makeFft, 4, 2048));
    EXPECT_LT(large.perf.butterfly.normalized,
              small.perf.butterfly.normalized);
}

TEST(Session, ElideModeKeepsZeroFalseNegativesAndShrinksTheLog)
{
    SessionConfig cfg = baseConfig(makeOcean, 4);
    cfg.elide = true;
    const SessionResult r = runSession(cfg);
    // Zero-FN is the elision soundness contract; the oracle runs on
    // the *full* trace, so any event elision mistake shows up here.
    EXPECT_EQ(r.accuracy.falseNegatives, 0u);
    EXPECT_NE(r.planFingerprint, 0u);
    // OCEAN is the ADDRCHECK stress workload the paper reproduction
    // gates on: the bulk of its accesses are provably private.
    EXPECT_GE(r.elision.elidedFraction(), 0.30);
    EXPECT_EQ(r.elision.inputEvents,
              r.elision.retainedEvents + r.elision.elidedEvents);
    EXPECT_GT(r.elision.summaryEvents, 0u);
    EXPECT_LT(r.encodedBytesMonitored, r.encodedBytesFull);
}

TEST(Session, ElideModeOffLeavesElisionFieldsZero)
{
    const SessionResult r = runSession(baseConfig(makeFft, 2));
    EXPECT_EQ(r.planFingerprint, 0u);
    EXPECT_EQ(r.elision.elidedEvents, 0u);
    EXPECT_EQ(r.encodedBytesFull, 0u);
    EXPECT_EQ(r.encodedBytesMonitored, 0u);
}

TEST(Session, TsoExecutionAlsoHasZeroFalseNegatives)
{
    SessionConfig cfg = baseConfig(makeOcean, 4);
    cfg.model = MemModel::TSO;
    const SessionResult r = runSession(cfg);
    EXPECT_EQ(r.accuracy.falseNegatives, 0u);
}

TEST(Session, FalsePositiveRateMatchesCounts)
{
    SessionConfig cfg = baseConfig(makeOcean, 4, 4096);
    const SessionResult r = runSession(cfg);
    EXPECT_NEAR(r.falsePositiveRate,
                static_cast<double>(r.accuracy.falsePositives) /
                    r.memoryAccesses,
                1e-12);
}

TEST(Session, AppStallsAppearWhenLifeguardIsBottleneck)
{
    // Butterfly monitoring with its per-event costs is slower than the
    // app; the bounded log buffer must back-pressure the app.
    const SessionResult r = runSession(baseConfig(makeFft, 2));
    EXPECT_GT(r.perf.butterfly.timing.appStallCycles, 0u);
}

TEST(PerfModel, FpCostSlowsButterflyDown)
{
    SessionConfig cfg = baseConfig(makeOcean, 4, 4096);
    cfg.costs.fpCost = 0;
    const SessionResult cheap = runSession(cfg);
    cfg.costs.fpCost = 50000;
    const SessionResult costly = runSession(cfg);
    ASSERT_GT(costly.accuracy.falsePositives, 0u);
    EXPECT_GT(costly.perf.butterfly.timing.totalCycles,
              cheap.perf.butterfly.timing.totalCycles);
}

TEST(PerfModel, BarrierCostPenalizesSmallEpochs)
{
    SessionConfig cfg = baseConfig(makeFft, 4, 256);
    cfg.costs.barrierCost = 0;
    const SessionResult free_barriers = runSession(cfg);
    cfg.costs.barrierCost = 5000;
    const SessionResult costly = runSession(cfg);
    EXPECT_GT(costly.perf.butterfly.timing.totalCycles,
              free_barriers.perf.butterfly.timing.totalCycles);
}

TEST(PerfModel, TinyLogBufferStallsTheApp)
{
    SessionConfig cfg = baseConfig(makeFft, 2);
    cfg.logBufferBytes = 64;
    const SessionResult tiny = runSession(cfg);
    cfg.logBufferBytes = 64 * 1024;
    const SessionResult big = runSession(cfg);
    EXPECT_GE(tiny.perf.butterfly.timing.appStallCycles,
              big.perf.butterfly.timing.appStallCycles);
}

// ---------------------------------------------------------------------
// Session stage graph: runSession overlaps the oracle and the perf
// model's application half with the butterfly run. None of that may
// change a result.
// ---------------------------------------------------------------------

void
expectSameMode(const ModeTiming &a, const ModeTiming &b, const char *mode)
{
    SCOPED_TRACE(mode);
    EXPECT_EQ(a.timing.totalCycles, b.timing.totalCycles);
    EXPECT_EQ(a.timing.appCycles, b.timing.appCycles);
    EXPECT_EQ(a.timing.appStallCycles, b.timing.appStallCycles);
    EXPECT_EQ(a.timing.barrierWaitCycles, b.timing.barrierWaitCycles);
    EXPECT_EQ(a.timing.barrierStallPerBlock, b.timing.barrierStallPerBlock);
    EXPECT_EQ(a.timing.taskWaitCycles, b.timing.taskWaitCycles);
    EXPECT_EQ(a.normalized, b.normalized);
}

void
expectSamePerf(const PerfReport &a, const PerfReport &b)
{
    EXPECT_EQ(a.sequentialBaseline, b.sequentialBaseline);
    expectSameMode(a.parallelNoMonitor, b.parallelNoMonitor,
                   "parallel no-monitor");
    expectSameMode(a.timesliced, b.timesliced, "timesliced");
    expectSameMode(a.butterfly, b.butterfly, "butterfly");
    expectSameMode(a.butterflyPipelined, b.butterflyPipelined,
                   "butterfly pipelined");
    expectSameMode(a.dbiSoftware, b.dbiSoftware, "dbi");
    EXPECT_EQ(a.cacheStats, b.cacheStats);
}

/** Every SessionResult field. */
void
expectSameResult(const SessionResult &a, const SessionResult &b)
{
    EXPECT_EQ(a.workloadName, b.workloadName);
    EXPECT_EQ(a.threads, b.threads);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.memoryAccesses, b.memoryAccesses);
    EXPECT_EQ(a.epochs, b.epochs);

    EXPECT_EQ(a.siteClasses.sites, b.siteClasses.sites);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(a.siteClasses.byClass[c], b.siteClasses.byClass[c]);
    EXPECT_EQ(a.siteClasses.candidateEvents, b.siteClasses.candidateEvents);
    EXPECT_EQ(a.siteClasses.analyzedEvents, b.siteClasses.analyzedEvents);
    EXPECT_EQ(a.siteClasses.fixpointRounds, b.siteClasses.fixpointRounds);
    EXPECT_EQ(a.elision.inputEvents, b.elision.inputEvents);
    EXPECT_EQ(a.elision.retainedEvents, b.elision.retainedEvents);
    EXPECT_EQ(a.elision.elidedEvents, b.elision.elidedEvents);
    EXPECT_EQ(a.elision.summaryEvents, b.elision.summaryEvents);
    EXPECT_EQ(a.planFingerprint, b.planFingerprint);
    EXPECT_EQ(a.encodedBytesFull, b.encodedBytesFull);
    EXPECT_EQ(a.encodedBytesMonitored, b.encodedBytesMonitored);

    EXPECT_EQ(a.butterflyErrorCount, b.butterflyErrorCount);
    EXPECT_EQ(a.oracleErrorCount, b.oracleErrorCount);
    EXPECT_EQ(a.accuracy.truePositives, b.accuracy.truePositives);
    EXPECT_EQ(a.accuracy.falsePositives, b.accuracy.falsePositives);
    EXPECT_EQ(a.accuracy.falseNegatives, b.accuracy.falseNegatives);
    EXPECT_EQ(a.falsePositiveRate, b.falsePositiveRate);

    expectSamePerf(a.perf, b.perf);
}

/**
 * runSession composed from its public calls, one stage after another
 * on this thread: interleave (copying the programs, without an emitted
 * order), EpochLayout::byGlobalSeq, WindowSchedule::run,
 * AddrCheckOracle::runOnTrace, computePerformance, and the counts read
 * off the trace. Also checks that the perf model's stages without a
 * pool (the application-half tasks in order, then the block pricing)
 * compose to computePerformance.
 */
SessionResult
sequentialSession(const SessionConfig &cfg)
{
    SessionResult r;
    Workload workload = cfg.factory(cfg.workload);
    staticpass::ElisionPlan plan;
    if (cfg.elide) {
        staticpass::assignPseudoSites(workload.programs, workload.sites);
        staticpass::ClassifyOptions copt;
        copt.granularity = cfg.granularity;
        plan = staticpass::classifySites(workload.programs, workload.sites,
                                         copt, &r.siteClasses);
        r.planFingerprint = plan.fingerprint();
    }
    Rng rng(cfg.interleaveSeed);
    InterleaveConfig icfg;
    icfg.model = cfg.model;
    const Trace trace = interleave(workload.programs, icfg, rng);
    Trace elided;
    if (cfg.elide)
        elided = staticpass::applyElisionPlan(trace, plan, &r.elision);
    const Trace &monitored = cfg.elide ? elided : trace;

    const EpochLayout layout = EpochLayout::byGlobalSeq(
        monitored, cfg.epochSize * monitored.numThreads());
    AddrCheckConfig acfg;
    acfg.granularity = cfg.granularity;
    acfg.heapBase = workload.heapBase;
    acfg.heapLimit = workload.heapLimit;
    ButterflyAddrCheck butterfly(layout, acfg);
    WindowSchedule().run(layout, butterfly);
    AddrCheckOracle oracle(acfg);
    oracle.runOnTrace(trace);

    PerfInputs pin;
    pin.trace = &monitored;
    pin.layout = &layout;
    pin.butterfly = &butterfly;
    pin.addrcheck = acfg;
    pin.costs = cfg.costs;
    pin.logBufferBytes = cfg.logBufferBytes;
    r.perf = computePerformance(pin);

    const std::vector<GseqRef> order = monitored.gseqOrder();
    AppPerformance app(pin, order);
    app.run();
    BlockPricing blocks(app, pin);
    blocks.run();
    expectSamePerf(priceButterfly(app, blocks, pin), r.perf);

    if (cfg.elide) {
        for (const ThreadTrace &tt : trace.threads)
            r.encodedBytesFull += encodeEvents(tt.events).size();
        for (const ThreadTrace &tt : monitored.threads)
            r.encodedBytesMonitored += encodeEvents(tt.events).size();
    }
    r.workloadName = workload.name;
    r.threads = trace.numThreads();
    r.instructions = trace.instructionCount();
    r.memoryAccesses = trace.memoryAccessCount();
    r.epochs = layout.numEpochs();
    r.butterflyErrorCount = butterfly.errors().size();
    r.oracleErrorCount = oracle.errors().size();
    r.accuracy = compareToOracle(butterfly.errors(), oracle.errors(),
                                 acfg.granularity);
    r.falsePositiveRate = r.accuracy.falsePositiveRate(r.memoryAccesses);
    return r;
}

TEST(SessionStageGraph, MatchesTheSessionRunStageByStage)
{
    struct Case
    {
        const char *name;
        WorkloadFactory factory;
        MemModel model;
        bool elide = false;
    };
    const Case cases[] = {
        {"ocean SC", makeOcean, MemModel::SequentiallyConsistent},
        {"ocean TSO", makeOcean, MemModel::TSO},
        {"fft elided", makeFft, MemModel::SequentiallyConsistent, true},
    };
    std::size_t false_positives = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        SessionConfig cfg = baseConfig(c.factory, 4, 4096);
        cfg.model = c.model;
        cfg.elide = c.elide;
        const SessionResult staged = runSession(cfg);
        expectSameResult(staged, sequentialSession(cfg));
        EXPECT_EQ(staged.accuracy.falseNegatives, 0u);
        false_positives += staged.accuracy.falsePositives;
    }
    // The comparison covers flagged events, not only clean sessions.
    EXPECT_GT(false_positives, 0u);
}

TEST(SessionStageGraph, MatchesTheSequentialSessionAcrossSeeds)
{
    // Buggy random-mix workloads at small epochs: many records, many
    // epochs, and a different stage timing on every seed.
    std::size_t flagged = 0;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(seed);
        SessionConfig cfg;
        cfg.factory = makeRandomMix;
        cfg.workload.numThreads = 4;
        cfg.workload.instrPerThread = 3000;
        cfg.workload.seed = seed;
        cfg.epochSize = 256;
        const SessionResult staged = runSession(cfg);
        expectSameResult(staged, sequentialSession(cfg));
        EXPECT_EQ(staged.accuracy.falseNegatives, 0u);
        flagged += staged.butterflyErrorCount;
    }
    EXPECT_GT(flagged, 0u);
}

TEST(SessionStageGraph, KeepsTheSequentialSessionsFftNumbers)
{
    // Computed by the sequential runSession this stage graph replaced.
    struct Pinned
    {
        bool elide;
        Cycles sequential, parallelNoMonitor, timesliced, butterfly,
            butterflyPipelined, dbi;
    };
    const Pinned pinned[] = {
        {false, 528368, 121952, 894215, 1099386, 1041629, 3757022},
        {true, 480210, 109614, 788032, 949627, 896845, 2984050},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(p.elide ? "elided" : "full log");
        SessionConfig cfg = baseConfig(makeFft, 4);
        cfg.elide = p.elide;
        const SessionResult r = runSession(cfg);
        EXPECT_EQ(r.perf.sequentialBaseline, p.sequential);
        EXPECT_EQ(r.perf.parallelNoMonitor.timing.totalCycles,
                  p.parallelNoMonitor);
        EXPECT_EQ(r.perf.timesliced.timing.totalCycles, p.timesliced);
        EXPECT_EQ(r.perf.butterfly.timing.totalCycles, p.butterfly);
        EXPECT_EQ(r.perf.butterflyPipelined.timing.totalCycles,
                  p.butterflyPipelined);
        EXPECT_EQ(r.perf.dbiSoftware.timing.totalCycles, p.dbi);
        EXPECT_EQ(r.oracleErrorCount, 0u);
        EXPECT_EQ(r.butterflyErrorCount, 0u);
        EXPECT_EQ(r.accuracy.truePositives, 0u);
        EXPECT_EQ(r.accuracy.falsePositives, 0u);
        EXPECT_EQ(r.accuracy.falseNegatives, 0u);
    }
}

/** OCEAN with use-after-free and double-free bugs planted at fixed
 *  positions, so the oracle flags errors. */
Workload
makeBuggyOcean(const WorkloadConfig &config)
{
    Workload w = makeOcean(config);
    Rng bug_rng(7);
    injectBugs(w, BugKind::UseAfterFree, 3, bug_rng);
    injectBugs(w, BugKind::DoubleFree, 2, bug_rng);
    return w;
}

TEST(SessionStageGraph, KeepsTheOceanTsoAndInjectedBugNumbers)
{
    // Every simulated statistic of two more sessions: OCEAN under TSO on
    // a thread count that is not a power of two (the cache and bank
    // indexing, the store buffers and the interleaver's draws), and an
    // OCEAN with planted bugs (flagged records in the block costs).
    // Computed before the simulator's per-event loops were rewritten.
    struct Pinned
    {
        const char *name;
        WorkloadFactory factory;
        unsigned threads;
        MemModel model;
        Cycles sequential, parallelNoMonitor, timesliced, butterfly,
            butterflyPipelined, dbi;
        CacheStats cache;
        std::size_t oracleErrors, butterflyErrors, truePositives,
            falsePositives;
    };
    const Pinned pinned[] = {
        {"ocean TSO, 3 threads", makeOcean, 3, MemModel::TSO, 160314,
         54878, 213987, 551760, 501091, 1918464,
         {468, 27852, 1350, 720, 630}, 0, 0, 0, 0},
        {"ocean with bugs", makeBuggyOcean, 4,
         MemModel::SequentiallyConsistent, 214670, 55754, 409863, 601697,
         544751, 2559848, {624, 37149, 1805, 960, 845}, 5, 5, 5, 0},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(p.name);
        SessionConfig cfg = baseConfig(p.factory, p.threads);
        cfg.model = p.model;
        const SessionResult r = runSession(cfg);
        EXPECT_EQ(r.perf.sequentialBaseline, p.sequential);
        EXPECT_EQ(r.perf.parallelNoMonitor.timing.totalCycles,
                  p.parallelNoMonitor);
        EXPECT_EQ(r.perf.timesliced.timing.totalCycles, p.timesliced);
        EXPECT_EQ(r.perf.butterfly.timing.totalCycles, p.butterfly);
        EXPECT_EQ(r.perf.butterflyPipelined.timing.totalCycles,
                  p.butterflyPipelined);
        EXPECT_EQ(r.perf.dbiSoftware.timing.totalCycles, p.dbi);
        EXPECT_EQ(r.perf.cacheStats.coherenceInvalidations,
                  p.cache.coherenceInvalidations);
        EXPECT_EQ(r.perf.cacheStats.l1Hits, p.cache.l1Hits);
        EXPECT_EQ(r.perf.cacheStats.l1Misses, p.cache.l1Misses);
        EXPECT_EQ(r.perf.cacheStats.l2Hits, p.cache.l2Hits);
        EXPECT_EQ(r.perf.cacheStats.l2Misses, p.cache.l2Misses);
        EXPECT_EQ(r.oracleErrorCount, p.oracleErrors);
        EXPECT_EQ(r.butterflyErrorCount, p.butterflyErrors);
        EXPECT_EQ(r.accuracy.truePositives, p.truePositives);
        EXPECT_EQ(r.accuracy.falsePositives, p.falsePositives);
        EXPECT_EQ(r.accuracy.falseNegatives, 0u);
    }
}

TEST(SessionStageGraph, TwentyRunsInARowAgree)
{
    const SessionConfig cfg = baseConfig(makeOcean, 4, 4096);
    const SessionResult first = runSession(cfg);
    for (int run = 1; run < 20; ++run) {
        SCOPED_TRACE(run);
        const SessionResult again = runSession(cfg);
        expectSameResult(again, first);
    }
}

TEST(SessionStageGraph, PerfHalvesRunInsideAPoolTask)
{
    // runSession queues the application half's tasks and the block
    // pricing on its pool, and whichever timesliced stream finishes
    // last chains simulateSpsc inside its task. Here one task of a
    // one-thread pool queues them all and waits: the nested wait must
    // not deadlock, and the stages must compose to computePerformance.
    const SessionConfig cfg = baseConfig(makeOcean, 2);
    Workload workload = cfg.factory(cfg.workload);
    Rng rng(cfg.interleaveSeed);
    const Trace trace = interleave(workload.programs, {}, rng);
    const EpochLayout layout = EpochLayout::byGlobalSeq(
        trace, cfg.epochSize * trace.numThreads());
    AddrCheckConfig acfg;
    acfg.heapBase = workload.heapBase;
    acfg.heapLimit = workload.heapLimit;
    ButterflyAddrCheck butterfly(layout, acfg);
    WindowSchedule().run(layout, butterfly);
    PerfInputs pin;
    pin.trace = &trace;
    pin.layout = &layout;
    pin.butterfly = &butterfly;
    pin.addrcheck = acfg;

    const std::vector<GseqRef> order = trace.gseqOrder();
    AppPerformance app(pin, order);
    BlockPricing blocks(app, pin);
    struct Stage
    {
        AppPerformance &app;
        BlockPricing &blocks;
        WorkerPool pool{1};
    } stage{app, blocks};
    TaskGroup group;
    stage.pool.submitTask(
        group,
        [](void *ctx, std::size_t) {
            Stage &s = *static_cast<Stage *>(ctx);
            TaskGroup tasks;
            s.app.submit(s.pool, tasks);
            s.blocks.submit(s.pool, tasks);
            s.pool.waitGroup(tasks);
        },
        &stage, 0);
    stage.pool.waitGroup(group);
    const PerfReport staged = priceButterfly(app, blocks, pin);
    EXPECT_GT(staged.timesliced.timing.totalCycles, 0u);
    EXPECT_GT(staged.dbiSoftware.timing.totalCycles, 0u);
    expectSamePerf(staged, computePerformance(pin));
}

} // namespace
} // namespace bfly
