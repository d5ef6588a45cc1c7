/**
 * @file
 * The window walk over an EpochStream and the cycle models' pipelined
 * accounting: stream walk == layout walk for every lifeguard, whatever
 * the ring width or coalescing, and for walks that share one pool; the
 * stream's equivalence with the materialized layout, the bounded
 * residency guarantee, back-pressure accounting; and, for every
 * lifeguard that declares a relaxed finalize, the same report when
 * epochs finalize as early as the cycle model prices them.
 */

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/registry.hpp"
#include "lifeguards/taintcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "sim/lba.hpp"
#include "trace/log_buffer.hpp"
#include "trace/log_codec.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

// --------------------------------------------------------------------
// Helpers.
// --------------------------------------------------------------------

std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int, std::uint16_t>>
sortedRecords(const ErrorLog &log)
{
    std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int,
                           std::uint16_t>>
        out;
    out.reserve(log.size());
    for (const ErrorRecord &r : log.records())
        out.emplace_back(r.tid, r.index, r.addr, static_cast<int>(r.kind),
                         r.size);
    std::sort(out.begin(), out.end());
    return out;
}

Trace
mixTrace(std::uint64_t seed, Workload &w_out)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 2000;
    wcfg.seed = seed;
    w_out = makeRandomMix(wcfg);
    Rng rng(seed * 977 + 5);
    return interleave(w_out.programs, InterleaveConfig{}, rng);
}

/** A 3-thread taint mix with three tainted jumps injected. */
Trace
taintTrace(std::uint64_t seed)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 600;
    wcfg.seed = seed;
    Workload w = makeTaintMix(wcfg);
    Rng bug_rng(seed ^ 0xf00d);
    injectBugs(w, BugKind::TaintedJump, 3, bug_rng);
    Rng rng(seed * 131 + 17);
    return interleave(w.programs, InterleaveConfig{}, rng);
}

/** Run @p driver by the window walk over an EpochStream cut at the same
 *  global H as EpochLayout::byGlobalSeq(trace, h); returns the stream's
 *  epoch count. Every epoch must be retired when the walk returns. */
std::size_t
runStreamed(const Trace &trace, std::size_t h, AnalysisDriver &driver)
{
    EpochStream::Config cfg;
    cfg.globalH = h;
    EpochStream stream(trace, cfg);
    WindowSchedule().run(stream, driver);
    EXPECT_LE(stream.peakResidentEpochs(), 2u);
    EXPECT_EQ(stream.residentEpochs(), 0u);
    return stream.numEpochs();
}

// --------------------------------------------------------------------
// Stream walk == layout walk, per lifeguard, over generated workloads:
// the stream admits and retires epochs as the walk goes, and neither
// the reports nor the lifeguards' own counters may change.
// --------------------------------------------------------------------

TEST(PipelineDeterminism, AddrCheckMatchesSequentialAcrossSeeds)
{
    for (std::uint64_t seed : {11u, 22u, 33u}) {
        Workload w;
        const Trace trace = mixTrace(seed, w);
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 512);

        AddrCheckConfig cfg;
        cfg.heapBase = w.heapBase;
        cfg.heapLimit = w.heapLimit;

        ButterflyAddrCheck seq(layout, cfg);
        WindowSchedule().run(layout, seq);

        ButterflyAddrCheck streamed(layout, cfg);
        EXPECT_EQ(runStreamed(trace, 512, streamed), layout.numEpochs());

        EXPECT_EQ(sortedRecords(seq.errors()),
                  sortedRecords(streamed.errors()))
            << "seed " << seed;
        EXPECT_EQ(seq.eventsChecked(), streamed.eventsChecked());
        EXPECT_EQ(seq.sosNow().sorted(), streamed.sosNow().sorted());
    }
}

TEST(PipelineDeterminism, TaintCheckMatchesSequentialAcrossSeeds)
{
    for (std::uint64_t seed : {5u, 6u, 7u}) {
        const Trace trace = taintTrace(seed);
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 240);

        TaintCheckConfig cfg;
        ButterflyTaintCheck seq(layout, cfg);
        WindowSchedule().run(layout, seq);

        ButterflyTaintCheck streamed(layout, cfg);
        EXPECT_EQ(runStreamed(trace, 240, streamed), layout.numEpochs());

        EXPECT_EQ(sortedRecords(seq.errors()),
                  sortedRecords(streamed.errors()))
            << "seed " << seed;
        EXPECT_EQ(seq.checksResolved(), streamed.checksResolved());
        EXPECT_EQ(seq.sosNow().sorted(), streamed.sosNow().sorted());
    }
}

TEST(PipelineDeterminism, DefCheckMatchesSequentialAcrossSeeds)
{
    for (std::uint64_t seed : {101u, 102u, 103u}) {
        Workload w;
        const Trace trace = mixTrace(seed, w);
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 512);

        DefCheckConfig cfg;
        cfg.heapBase = w.heapBase;
        cfg.heapLimit = w.heapLimit;

        ButterflyDefCheck seq(layout, cfg);
        WindowSchedule().run(layout, seq);

        ButterflyDefCheck streamed(layout, cfg);
        EXPECT_EQ(runStreamed(trace, 512, streamed), layout.numEpochs());

        EXPECT_EQ(sortedRecords(seq.errors()),
                  sortedRecords(streamed.errors()))
            << "seed " << seed;
    }
}

TEST(PipelineDeterminism, ReachingDefsMatchesSequentialAcrossSeeds)
{
    for (std::uint64_t seed : {41u, 42u}) {
        Workload w;
        const Trace trace = mixTrace(seed, w);
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 512);
        const std::size_t L = layout.numEpochs();

        ReachingDefinitions seq(layout.numThreads());
        WindowSchedule().run(layout, seq);

        ReachingDefinitions streamed(layout.numThreads());
        EXPECT_EQ(runStreamed(trace, 512, streamed), L);

        for (EpochId l = 0; l < L; ++l) {
            EXPECT_EQ(seq.sos(l).sorted(), streamed.sos(l).sorted())
                << "seed " << seed << " epoch " << l;
            EXPECT_EQ(seq.genEpoch(l).sorted(),
                      streamed.genEpoch(l).sorted())
                << "seed " << seed << " epoch " << l;
            for (ThreadId t = 0; t < layout.numThreads(); ++t) {
                EXPECT_EQ(seq.blockResults(l, t).in.sorted(),
                          streamed.blockResults(l, t).in.sorted());
                EXPECT_EQ(seq.blockResults(l, t).out.sorted(),
                          streamed.blockResults(l, t).out.sorted());
            }
        }
    }
}

TEST(PipelineDeterminism, EmptyTraceIsANoOp)
{
    const Trace trace; // no threads at all
    EpochStream::Config cfg;
    cfg.globalH = 64;
    EpochStream stream(trace, cfg);
    AddrCheckConfig acfg;
    ButterflyAddrCheck walked(trace.numThreads(), acfg);
    WindowSchedule().run(stream, walked);
    EXPECT_EQ(stream.numEpochs(), 0u);
    EXPECT_EQ(stream.peakResidentEpochs(), 0u);
    EXPECT_TRUE(walked.errors().records().empty());
}

// --------------------------------------------------------------------
// Fuzzed cases from every scenario, for every registered lifeguard.
// --------------------------------------------------------------------

/** One fuzzed case, materialized, with its sequential-walk layout. */
struct WalkedCase
{
    fuzz::FuzzCase c;
    Trace trace;
    EpochLayout layout;
};

std::vector<WalkedCase>
fuzzedCases(std::uint64_t seed, int count)
{
    fuzz::FuzzerConfig cfg;
    cfg.seed = seed;
    fuzz::TraceFuzzer fuzzer(cfg);
    std::vector<WalkedCase> cases;
    for (int i = 0; i < count; ++i) {
        fuzz::FuzzCase c = fuzzer.next();
        Trace trace = c.materialize();
        EpochLayout layout = EpochLayout::byGlobalSeq(trace, c.globalH);
        cases.push_back({std::move(c), std::move(trace), std::move(layout)});
    }
    return cases;
}

/** @p entry's canonical report over @p wc by the sequential walk. */
LifeguardReport
walkReport(const LifeguardEntry &entry, const WalkedCase &wc)
{
    const auto driver = entry.makeDriver(
        wc.c.lifeguardParams(entry.id, wc.layout.numThreads()));
    WindowSchedule().run(wc.layout, *driver);
    return entry.report(*driver, wc.layout.numEpochs());
}

// --------------------------------------------------------------------
// The stream walk, the service's schedule: the layout walk's results
// for every lifeguard, whatever the ring width or coalescing, with
// in-order admission and retirement and at most two resident epochs.
// --------------------------------------------------------------------

/** A @p window-epoch stream cut at heartbeat markers and coalesced by
 *  a 1-2-4-8 width cycle, as the adaptive service cuts one. */
EpochStream::Config
coalescingConfig(std::size_t window)
{
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    cfg.windowEpochs = window;
    auto group = std::make_shared<std::size_t>(0);
    cfg.reslice = [group](EpochId, std::span<const std::size_t>) {
        static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
        return kCycle[(*group)++ % 4];
    };
    return cfg;
}

/** @p entry's report by the sequential walk over @p stream. */
LifeguardReport
streamWalkReport(const LifeguardEntry &entry, const WalkedCase &wc,
                 EpochStream &stream)
{
    const auto driver = entry.makeDriver(
        wc.c.lifeguardParams(entry.id, wc.layout.numThreads()));
    WindowSchedule().run(stream, *driver);
    EXPECT_LE(stream.peakResidentEpochs(), 2u);
    EXPECT_EQ(stream.residentEpochs(), 0u);
    return entry.report(*driver, stream.numEpochs());
}

class StreamWalk : public ::testing::TestWithParam<Lifeguard>
{
};

TEST_P(StreamWalk, MatchesLayoutWalkForAnyWindowAndCoalescing)
{
    const LifeguardEntry &entry = lifeguardEntry(GetParam());
    const std::uint64_t seed = 0x5a1 + static_cast<std::uint64_t>(entry.id);
    std::vector<std::uint64_t> digests;
    for (const WalkedCase &wc : fuzzedCases(seed, 10)) {
        const LifeguardReport want = walkReport(entry, wc);
        digests.push_back(want.digest());
        const Trace marked = withHeartbeatMarkers(wc.trace, wc.layout);
        for (const std::size_t window : {4u, 7u}) {
            EpochStream::Config cfg;
            cfg.globalH = wc.c.globalH;
            cfg.windowEpochs = window;
            EpochStream stream(wc.trace, cfg);
            EXPECT_TRUE(streamWalkReport(entry, wc, stream) == want)
                << wc.c.scenario << " case " << wc.c.caseId << ", window "
                << window;

            // A coalescing stream over the marked copy, as the adaptive
            // service cuts it, against the layout it realized.
            EpochStream coalescing(marked, coalescingConfig(window));
            const LifeguardReport got =
                streamWalkReport(entry, wc, coalescing);
            const EpochLayout layout = EpochLayout::coalescedFromHeartbeats(
                marked, coalescing.realizedSpans());
            const auto driver = entry.makeDriver(
                wc.c.lifeguardParams(entry.id, layout.numThreads()));
            WindowSchedule().run(layout, *driver);
            EXPECT_TRUE(got == entry.report(*driver, layout.numEpochs()))
                << wc.c.scenario << " case " << wc.c.caseId
                << ", coalescing window " << window;
        }
    }
    std::sort(digests.begin(), digests.end());
    EXPECT_GT(std::unique(digests.begin(), digests.end()) - digests.begin(),
              1);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, StreamWalk, ::testing::ValuesIn(kAllLifeguards),
    [](const ::testing::TestParamInfo<Lifeguard> &info) {
        std::string name = lifeguardName(info.param);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

/** One stream walk of the SharedPool test, run as a pool task. */
struct PooledWalk
{
    const WalkedCase *wc = nullptr;
    Lifeguard lifeguard{};
    LifeguardReport got;
};

TEST(SharedPool, ConcurrentWalksMatchTheirLayoutWalks)
{
    // Three submitters put stream walks of every lifeguard onto one
    // two-worker pool at once, each into its own task group, as the
    // service's concurrent sessions put their analysis tasks; each walk
    // must still reproduce its own layout walk.
    const std::vector<WalkedCase> cases = fuzzedCases(0x5ea, 12);
    std::vector<PooledWalk> walks(cases.size());
    std::vector<LifeguardReport> want;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        walks[i].wc = &cases[i];
        walks[i].lifeguard = kAllLifeguards[i % std::size(kAllLifeguards)];
        want.push_back(
            walkReport(lifeguardEntry(walks[i].lifeguard), cases[i]));
    }

    WorkerPool pool(2);
    std::vector<std::thread> submitters;
    constexpr std::size_t kSubmitters = 3;
    for (std::size_t d = 0; d < kSubmitters; ++d)
        submitters.emplace_back([&, d] {
            TaskGroup group;
            for (std::size_t i = d; i < walks.size(); i += kSubmitters)
                pool.submitTask(
                    group,
                    [](void *ctx, std::size_t) {
                        PooledWalk &walk = *static_cast<PooledWalk *>(ctx);
                        EpochStream::Config cfg;
                        cfg.globalH = walk.wc->c.globalH;
                        EpochStream stream(walk.wc->trace, cfg);
                        walk.got = streamWalkReport(
                            lifeguardEntry(walk.lifeguard), *walk.wc,
                            stream);
                    },
                    &walks[i], 0);
            pool.waitGroup(group);
        });
    for (std::thread &t : submitters)
        t.join();
    for (std::size_t i = 0; i < walks.size(); ++i)
        EXPECT_TRUE(walks[i].got == want[i])
            << cases[i].c.scenario << " case " << cases[i].c.caseId << " "
            << lifeguardName(walks[i].lifeguard);
}

/**
 * Forwards to a real driver and checks, at every hook, what the stream
 * walk promises: pass 1 of epoch l runs with l-1 and l resident, pass 2
 * of l with l and l+1 resident, and l is retired before its SOS update;
 * every block handed over is the stream's resident copy (block() aborts
 * on a retired epoch). Records the hook order.
 */
class ResidencyProbe : public AnalysisDriver
{
  public:
    struct Call
    {
        char hook; ///< '1' pass 1, '2' pass 2, 'F' finalize
        EpochId epoch;
        ThreadId thread;
        bool operator==(const Call &) const = default;
    };

    ResidencyProbe(AnalysisDriver &inner, const EpochStream &stream)
        : inner_(inner), stream_(stream)
    {}

    void
    pass1(const BlockView &block) override
    {
        expectResident(block, block.epoch >= 1 ? 2 : 1);
        calls.push_back({'1', block.epoch, block.thread});
        inner_.pass1(block);
    }

    void
    pass2(const BlockView &block) override
    {
        expectResident(block,
                       block.epoch + 1 < stream_.numEpochs() ? 2 : 1);
        calls.push_back({'2', block.epoch, block.thread});
        inner_.pass2(block);
    }

    void
    finalizeEpoch(EpochId l) override
    {
        EXPECT_EQ(stream_.residentEpochs(),
                  l + 1 < stream_.numEpochs() ? 1u : 0u)
            << "epoch " << l << " not retired after its pass 2";
        calls.push_back({'F', l, 0});
        inner_.finalizeEpoch(l);
    }

    void
    beginPass(EpochId l, bool second) override
    {
        inner_.beginPass(l, second);
    }
    bool finalizeAfterPass2() const override
    {
        return inner_.finalizeAfterPass2();
    }

    std::vector<Call> calls;

  private:
    void
    expectResident(const BlockView &block, std::size_t resident)
    {
        EXPECT_EQ(stream_.residentEpochs(), resident)
            << "epoch " << block.epoch;
        EXPECT_EQ(block.events.data(),
                  stream_.block(block.epoch, block.thread).events.data());
    }

    AnalysisDriver &inner_;
    const EpochStream &stream_;
};

TEST(StreamWalkResidency, AcquiresBeforePass1AndRetiresAfterPass2)
{
    for (const WalkedCase &wc : fuzzedCases(0x7e7, 4)) {
        for (Lifeguard lg : kAllLifeguards) {
            const LifeguardEntry &entry = lifeguardEntry(lg);
            const auto driver = entry.makeDriver(
                wc.c.lifeguardParams(lg, wc.layout.numThreads()));
            EpochStream::Config cfg;
            cfg.globalH = wc.c.globalH;
            EpochStream stream(wc.trace, cfg);
            ResidencyProbe probe(*driver, stream);
            WindowSchedule().run(stream, probe);

            // The paper's step order: pass 1 of l, then pass 2 and the
            // SOS update of l-1; the last epoch settles at the end.
            const std::size_t L = stream.numEpochs();
            const std::size_t T = stream.numThreads();
            std::vector<ResidencyProbe::Call> want;
            auto settle = [&](EpochId l) {
                for (ThreadId t = 0; t < T; ++t)
                    want.push_back({'2', l, t});
                want.push_back({'F', l, 0});
            };
            for (EpochId l = 0; l < L; ++l) {
                for (ThreadId t = 0; t < T; ++t)
                    want.push_back({'1', l, t});
                if (l >= 1)
                    settle(l - 1);
            }
            if (L >= 1)
                settle(L - 1);
            EXPECT_TRUE(probe.calls == want)
                << lifeguardName(lg) << " " << wc.c.scenario;
            EXPECT_EQ(stream.peakResidentEpochs(),
                      std::min<std::size_t>(L, 2));
            EXPECT_EQ(stream.residentEpochs(), 0u);
        }
    }
}

// --------------------------------------------------------------------
// EpochStream: same blocks as the materialized layout, bounded
// residency, back-pressure accounting.
// --------------------------------------------------------------------

TEST(EpochStream, BlocksMatchMaterializedLayout)
{
    Workload w;
    const Trace trace = mixTrace(22, w);
    const std::size_t H = 512;
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, H);

    EpochStream::Config cfg;
    cfg.globalH = H;
    EpochStream stream(trace, cfg);
    ASSERT_EQ(stream.numEpochs(), layout.numEpochs());
    ASSERT_EQ(stream.numThreads(), layout.numThreads());

    const std::size_t L = layout.numEpochs();
    for (EpochId l = 0; l < L; ++l) {
        stream.acquire(l);
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            const BlockView a = layout.block(l, t);
            const BlockView b = stream.block(l, t);
            ASSERT_EQ(a.size(), b.size()) << "l=" << l << " t=" << t;
            EXPECT_EQ(a.first, b.first) << "l=" << l << " t=" << t;
            EXPECT_EQ(a.epoch, b.epoch);
            EXPECT_EQ(a.thread, b.thread);
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a.events[i].kind, b.events[i].kind);
                EXPECT_EQ(a.events[i].addr, b.events[i].addr);
                EXPECT_EQ(a.events[i].gseq, b.events[i].gseq);
            }
        }
        if (l >= 3)
            stream.retire(l - 3);
    }
    while (stream.residentEpochs() > 0)
        stream.retire(L - stream.residentEpochs());
    EXPECT_LE(stream.peakResidentEpochs(), stream.windowEpochs());
}

TEST(EpochStream, BackPressureRecordsProducerStalls)
{
    Workload w;
    const Trace trace = mixTrace(33, w);
    // A buffer far smaller than one epoch: every admission overflows it,
    // so the model must record stalls the application core would take.
    LogBuffer buffer(/*capacity_bytes=*/64 * 16, /*record_bytes=*/16);
    EpochStream::Config cfg;
    cfg.globalH = 512;
    cfg.backPressure = &buffer;
    EpochStream stream(trace, cfg);

    AddrCheckConfig acfg;
    acfg.heapBase = w.heapBase;
    acfg.heapLimit = w.heapLimit;
    ButterflyAddrCheck walked(stream.numThreads(), acfg);
    WindowSchedule().run(stream, walked);

    EXPECT_GT(stream.producerStalls(), 0u);
    EXPECT_EQ(stream.producerStalls(), buffer.producerStalls());
}

TEST(EpochStream, StrictDriverStreamsToo)
{
    // TAINTCHECK keeps the strict finalize order. A stream whose
    // producer stalls on a log buffer smaller than one epoch must still
    // retire everything and agree with the layout walk: back-pressure is
    // accounting, never a change in what the walk sees.
    const Trace trace = taintTrace(5);
    const std::size_t H = 240;
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, H);
    TaintCheckConfig cfg;
    ButterflyTaintCheck seq(layout, cfg);
    ASSERT_TRUE(seq.finalizeAfterPass2());
    WindowSchedule().run(layout, seq);
    ASSERT_FALSE(seq.errors().records().empty());

    LogBuffer buffer(/*capacity_bytes=*/64 * 16, /*record_bytes=*/16);
    EpochStream::Config scfg;
    scfg.globalH = H;
    scfg.backPressure = &buffer;
    EpochStream stream(trace, scfg);
    ButterflyTaintCheck streamed(layout, cfg);
    WindowSchedule().run(stream, streamed);

    EXPECT_GT(stream.producerStalls(), 0u);
    EXPECT_EQ(sortedRecords(seq.errors()), sortedRecords(streamed.errors()));
    EXPECT_EQ(seq.checksResolved(), streamed.checksResolved());
    EXPECT_LE(stream.peakResidentEpochs(), 2u);
    EXPECT_EQ(stream.residentEpochs(), 0u);
}

// --------------------------------------------------------------------
// Relaxed finalize. priceButterfly prices a driver that declares
// finalizeAfterPass2() == false with the cycle model's relaxed edges,
// where finalizeEpoch(l) waits only for pass 1 of epoch l+1. The
// declaration holds only if the report is the same when epochs really
// finalize that early.
// --------------------------------------------------------------------

/**
 * Walk @p layout finalizing each epoch as early as the relaxed edges
 * allow: epoch l right after pass 1 of epoch l+1 and before its own
 * pass 2; the last epoch before its own pass 2.
 */
void
walkFinalizingEarly(const EpochLayout &layout, AnalysisDriver &driver)
{
    auto pass = [&](EpochId l, bool second) {
        driver.beginPass(l, second);
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            if (second)
                driver.pass2(layout.block(l, t));
            else
                driver.pass1(layout.block(l, t));
        }
    };
    const std::size_t L = layout.numEpochs();
    for (EpochId l = 0; l < L; ++l) {
        pass(l, false);
        if (l >= 1) {
            driver.finalizeEpoch(l - 1);
            pass(l - 1, true);
        }
    }
    if (L >= 1) {
        driver.finalizeEpoch(L - 1);
        pass(L - 1, true);
    }
}

TEST(RelaxedFinalize, EarliestFinalizeMatchesTheWalk)
{
    const std::vector<WalkedCase> cases = fuzzedCases(0xf1a, 400);
    std::size_t relaxed = 0;
    for (Lifeguard lg : kAllLifeguards) {
        const LifeguardEntry &entry = lifeguardEntry(lg);
        auto driverFor = [&](const WalkedCase &wc) {
            return entry.makeDriver(
                wc.c.lifeguardParams(lg, wc.layout.numThreads()));
        };
        if (driverFor(cases.front())->finalizeAfterPass2())
            continue;
        ++relaxed;
        for (const WalkedCase &wc : cases) {
            const auto driver = driverFor(wc);
            walkFinalizingEarly(wc.layout, *driver);
            EXPECT_TRUE(entry.report(*driver, wc.layout.numEpochs()) ==
                        walkReport(entry, wc))
                << lifeguardName(lg) << " " << wc.c.scenario << " case "
                << wc.c.caseId;
        }
    }
    // Non-vacuous: some registered lifeguard declares itself relaxed.
    EXPECT_GE(relaxed, 1u);
}

// --------------------------------------------------------------------
// The timing models' pipelined accounting.
// --------------------------------------------------------------------

/** Rotating-straggler timing input (thread l % T heavy in epoch l). */
ButterflyTimingInput
skewedTiming(std::size_t T, std::size_t L)
{
    // Every record costs 1 application cycle; appCost views this.
    static const std::vector<Cycles> app(512, 1);
    ButterflyTimingInput in;
    in.costs.assign(T, std::vector<EpochCosts>(L));
    in.sosUpdateCost.assign(L, 50);
    in.barrierCost = 200;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t l = 0; l < L; ++l) {
            const std::size_t n = (t == l % T) ? 512 : 64;
            in.costs[t][l].appCost = std::span(app).first(n);
            in.costs[t][l].pass1Cost.assign(n, 10);
            in.costs[t][l].pass2Cost = static_cast<Cycles>(n) * 8;
        }
    }
    return in;
}

TEST(TimingModel, BarrierStallBreakdownSumsToBarrierWait)
{
    const ButterflyTimingInput in = skewedTiming(4, 12);
    const TimingResult r = simulateButterfly(in);
    ASSERT_EQ(r.barrierStallPerBlock.size(), 4u);
    Cycles sum = 0;
    for (const auto &per_thread : r.barrierStallPerBlock) {
        ASSERT_EQ(per_thread.size(), 12u);
        for (Cycles c : per_thread)
            sum += c;
    }
    EXPECT_EQ(sum, r.barrierWaitCycles);
    EXPECT_GT(sum, 0u); // skewed input must show barrier stalls
}

TEST(TimingModel, PipelinedBeatsBarrierOnSkewedInput)
{
    for (std::size_t T : {2u, 4u, 8u}) {
        const ButterflyTimingInput in = skewedTiming(T, 16);
        const TimingResult barrier = simulateButterfly(in);
        const TimingResult relaxed =
            simulateButterflyPipelined(in, T, /*strict_finalize=*/false);
        const TimingResult strict =
            simulateButterflyPipelined(in, T, /*strict_finalize=*/true);

        // No barriers to cross: dependency scheduling can only remove
        // wait time, never add work.
        EXPECT_LT(relaxed.totalCycles, barrier.totalCycles) << "T=" << T;
        EXPECT_LE(relaxed.totalCycles, strict.totalCycles) << "T=" << T;
        // The acceptance bar: >= 1.2x at 8 threads on skewed epochs.
        if (T == 8) {
            EXPECT_GE(static_cast<double>(barrier.totalCycles),
                      1.2 * static_cast<double>(relaxed.totalCycles));
        }
    }
}

TEST(TimingModel, SessionPerfReportIncludesPipelinedMode)
{
    SessionConfig cfg;
    cfg.factory = makeRandomMix;
    cfg.workload.numThreads = 4;
    cfg.workload.instrPerThread = 2000;
    cfg.epochSize = 128;
    const SessionResult r = runSession(cfg);

    EXPECT_GT(r.perf.butterflyPipelined.timing.totalCycles, 0u);
    EXPECT_GT(r.perf.butterflyPipelined.normalized, 0.0);
    // The pipelined schedule of the same costs can never be slower than
    // the barrier schedule.
    EXPECT_LE(r.perf.butterflyPipelined.timing.totalCycles,
              r.perf.butterfly.timing.totalCycles);
    // Per-block stall attribution reproduces the aggregate exactly.
    Cycles sum = 0;
    for (const auto &per_thread :
         r.perf.butterfly.timing.barrierStallPerBlock)
        for (Cycles c : per_thread)
            sum += c;
    EXPECT_EQ(sum, r.perf.butterfly.timing.barrierWaitCycles);
}

} // namespace
} // namespace bfly
