/**
 * @file
 * Tests for butterfly ADDRCHECK (paper Section 6.1): the Figure 9
 * scenarios, LSOS/isolation behaviour, and the Theorem 6.1 zero-false-
 * negative property against SC and TSO executions of randomized workloads
 * with injected bugs. Also checks the paper's accuracy trade-off: false
 * positives are monotone-ish in epoch size and vanish for isolated
 * activity. Pass 2's per-epoch wing tables are checked record for record
 * against a brute-force per-block union meet of the wings.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "butterfly/window.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "memmodel/interleaver.hpp"
#include "tests/helpers.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

AddrCheckConfig
wideConfig()
{
    AddrCheckConfig cfg;
    cfg.granularity = 8;
    cfg.heapBase = 0;
    cfg.heapLimit = kNoAddr;
    return cfg;
}

struct Run
{
    Trace trace;
    EpochLayout layout;
    std::unique_ptr<ButterflyAddrCheck> check;
};

Run
runAddrCheck(Trace trace, const AddrCheckConfig &cfg)
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    Run run{std::move(trace), std::move(layout), {}};
    run.check = std::make_unique<ButterflyAddrCheck>(run.layout, cfg);
    WindowSchedule().run(run.layout, *run.check);
    return run;
}

TEST(AddrCheck, CleanSequentialLifecycleNoErrors)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::alloc(0x100, 32),
        Event::write(0x100, 8),
        Event::read(0x118, 8),
        Event::freeOf(0x100, 32),
    }}),
    wideConfig());
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrCheck, AccessBeforeAllocationFlagged)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::read(0x100, 8),
        Event::alloc(0x100, 32),
    }}),
    wideConfig());
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::UnallocatedAccess);
}

TEST(AddrCheck, UseAfterFreeFlagged)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::alloc(0x100, 32),
        Event::freeOf(0x100, 32),
        Event::read(0x100, 8),
    }}),
    wideConfig());
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::UnallocatedAccess);
}

TEST(AddrCheck, DoubleAllocAndDoubleFreeFlagged)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::alloc(0x100, 32),
        Event::alloc(0x100, 32),
        Event::freeOf(0x100, 32),
        Event::freeOf(0x100, 32),
    }}),
    wideConfig());
    ASSERT_EQ(run.check->errors().size(), 2u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::DoubleAlloc);
    EXPECT_EQ(run.check->errors().records()[1].kind,
              ErrorKind::UnallocatedFree);
}

TEST(AddrCheck, Figure9ConcurrentAllocAndAccessFlagged)
{
    // Thread 1 allocates a in epoch j while thread 2 accesses a in the
    // adjacent epoch j+1: potentially concurrent, must be flagged even
    // though the actual order may have been safe.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::read(0x100, 8)},
    }),
    wideConfig());
    EXPECT_FALSE(run.check->errors().empty());
    bool thread2_flagged = false;
    for (const auto &rec : run.check->errors().records())
        thread2_flagged = thread2_flagged || rec.tid == 1;
    EXPECT_TRUE(thread2_flagged);
}

TEST(AddrCheck, Figure9IsolatedAllocationSafe)
{
    // Thread 3 allocates b with no other thread touching it, and
    // accesses it itself in the next epoch: safe, no error (the paper's
    // "isolated" case).
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x200, 8), Event::heartbeat(),
         Event::read(0x200, 8)},
        {Event::nop(), Event::heartbeat(), Event::nop()},
        {Event::read(0x500, 8), Event::heartbeat(), Event::nop()},
    }),
    [] {
        AddrCheckConfig cfg = wideConfig();
        cfg.heapBase = 0x200;
        cfg.heapLimit = 0x300; // 0x500 access is unmonitored
        return cfg;
    }());
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrCheck, AllocationVisibleInSosTwoEpochsLater)
{
    // Alloc in epoch 0 by t0; access by t1 in epoch 2: epoch separation
    // guarantees the order, no flag.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(0x100, 8)},
    }),
    wideConfig());
    EXPECT_TRUE(run.check->errors().empty());
    EXPECT_TRUE(run.check->sosNow().contains(0x100 / 8));
}

TEST(AddrCheck, AdjacentEpochAccessIsFalsePositive)
{
    // Same as above but the access is in epoch 1: flagged (the paper's
    // fundamental FP trade-off), and the oracle confirms it is an FP.
    Trace trace = test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::read(0x100, 8)},
    });
    trace.threads[0].events[0].gseq = 1; // alloc actually first
    trace.threads[1].events[2].gseq = 5;
    auto run = runAddrCheck(trace, wideConfig());
    AddrCheckOracle oracle(wideConfig());
    oracle.runOnTrace(run.trace);
    EXPECT_TRUE(oracle.errors().empty());
    const auto acc =
        compareToOracle(run.check->errors(), oracle.errors(), 8);
    EXPECT_GT(acc.falsePositives, 0u);
    EXPECT_EQ(acc.falseNegatives, 0u);
}

TEST(AddrCheckOracle, ReplaysActualInterleavingOrder)
{
    // Thread 0 allocates (gseq 1) before thread 1 reads (gseq 2): clean.
    Trace trace = test::traceOf({
        {Event::alloc(0x100, 8)},
        {Event::read(0x100, 8)},
    });
    trace.threads[0].events[0].gseq = 1;
    trace.threads[1].events[0].gseq = 2;
    AddrCheckOracle clean(wideConfig());
    clean.runOnTrace(trace);
    EXPECT_TRUE(clean.errors().empty());

    // Reverse the actual order: the read becomes a real error.
    trace.threads[0].events[0].gseq = 2;
    trace.threads[1].events[0].gseq = 1;
    AddrCheckOracle dirty(wideConfig());
    dirty.runOnTrace(trace);
    EXPECT_EQ(dirty.errors().size(), 1u);
}

/** ADDRCHECK's observable output on one trace, as pinned below. */
struct PinnedAddrCheck
{
    std::uint64_t recordsFnv; ///< test::recordsFnv, in log order
    std::size_t records;
    std::uint64_t eventsChecked;
    std::uint64_t isolationViolations;
    std::uint64_t sosFnv; ///< test::keysFnv of the sorted final SOS
    std::size_t sosSize;
};

TEST(AddrCheck, ReportsMatchPinnedOutputs)
{
    // The log keeps the first record per event, so the order in which
    // pass 1 and pass 2 commit records is observable. Pinned here, over
    // buggy random-mix traces under both memory models: the record
    // sequence (FNV in log order), the counters and the final SOS. The
    // table was produced by running this exact setup when this kernel
    // still had a columnar twin (the two agreed on every row), so any
    // divergence from it is a behaviour change.
    static constexpr PinnedAddrCheck kPinned[4][2] = {
        {{0xb1546980249f96c0ull, 2717, 13151, 2077, 0x913aae20ea2aa92eull,
          618},
         {0xaf18b0f624c451f4ull, 2694, 13151, 2044, 0x913aae20ea2aa92eull,
          618}},
        {{0x677e643a19d4e475ull, 2540, 13714, 1847, 0xb792b5c35a658b72ull,
          1146},
         {0xba80224789483941ull, 2483, 13714, 1848, 0xab6aec63bf188f8dull,
          1176}},
        {{0xdc63f9f6fdbe4bb3ull, 2582, 12985, 1915, 0xbbe3dd3f480dd7bdull,
          968},
         {0x1ee0760848a4a474ull, 2595, 12985, 1956, 0x75a226642ba2ad3eull,
          970}},
        {{0x5c63dd2b71ecd41dull, 2744, 12881, 2377, 0x6bb680161281b145ull,
          360},
         {0xbce30cdf1ea6d26cull, 2763, 12881, 2383, 0x6bb680161281b145ull,
          360}},
    };
    const BugKind kinds[] = {BugKind::UseAfterFree,
                             BugKind::UnallocatedAccess,
                             BugKind::DoubleFree};
    const MemModel models[] = {MemModel::SequentiallyConsistent,
                               MemModel::TSO};
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        for (std::size_t m = 0; m < 2; ++m) {
            WorkloadConfig wcfg;
            wcfg.numThreads = 3;
            wcfg.instrPerThread = 1500;
            wcfg.seed = seed;
            Workload w = makeRandomMix(wcfg);
            Rng bug_rng(seed ^ 0xbeef);
            injectBugs(w, kinds[seed % 3], 4, bug_rng);

            Rng rng(seed * 31 + 7);
            InterleaveConfig icfg;
            icfg.model = models[m];
            Trace trace = interleave(w.programs, icfg, rng);
            EpochLayout layout =
                EpochLayout::byGlobalSeq(trace, 100 * wcfg.numThreads);

            AddrCheckConfig cfg;
            cfg.heapBase = w.heapBase;
            cfg.heapLimit = w.heapLimit + 0x100000;

            ButterflyAddrCheck check(layout, cfg);
            WindowSchedule().run(layout, check);

            const PinnedAddrCheck &want = kPinned[seed][m];
            const auto &records = check.errors().records();
            const std::vector<Addr> sos = check.sosNow().sorted();
            const std::string where =
                "seed " + std::to_string(seed) + " model " +
                std::to_string(m);
            EXPECT_EQ(records.size(), want.records) << where;
            EXPECT_EQ(test::recordsFnv(records), want.recordsFnv) << where;
            EXPECT_EQ(check.eventsChecked(), want.eventsChecked) << where;
            EXPECT_EQ(check.isolationViolations(), want.isolationViolations)
                << where;
            EXPECT_EQ(sos.size(), want.sosSize) << where;
            EXPECT_EQ(test::keysFnv(sos), want.sosFnv) << where;
        }
    }
}

TEST(AddrCheck, EveryBlockOfA300ThreadLayoutKeepsItsOwnCounts)
{
    // Past 256 threads, an (l << 8) | t block key would make block
    // (0, 256) and block (1, 0) share their per-block counts. Give every
    // block its own number of private allocations and unallocated reads.
    constexpr ThreadId kThreads = 300;
    auto allocs = [](EpochId l, ThreadId t) { return 1 + (t + 2 * l) % 4; };
    auto bad_reads = [](EpochId l, ThreadId t) { return (t + 2 * l) % 3; };
    std::vector<std::vector<Event>> programs(kThreads);
    for (ThreadId t = 0; t < kThreads; ++t) {
        for (EpochId l = 0; l < 2; ++l) {
            const Addr base = 0x1000000 + (l * kThreads + t) * 0x1000;
            for (unsigned k = 0; k < allocs(l, t); ++k)
                programs[t].push_back(Event::alloc(base + 8 * k, 8));
            for (unsigned k = 0; k < bad_reads(l, t); ++k)
                programs[t].push_back(Event::read(base + 0x800 + 8 * k, 8));
            if (l == 0)
                programs[t].push_back(Event::heartbeat());
        }
    }
    auto run = runAddrCheck(test::traceOf(std::move(programs)),
                            wideConfig());
    ASSERT_EQ(run.layout.numEpochs(), 2u);
    for (EpochId l = 0; l < 2; ++l) {
        for (ThreadId t = 0; t < kThreads; ++t) {
            EXPECT_EQ(run.check->summarySize(l, t),
                      allocs(l, t) + bad_reads(l, t))
                << "block (" << l << ", " << t << ")";
            EXPECT_EQ(run.check->errorsInBlock(l, t), bad_reads(l, t))
                << "block (" << l << ", " << t << ")";
        }
    }
}

// --------------------------------------------------------------------
// Pass 2's wing tables against a per-block union meet of the wings,
// the reference kept here.
// --------------------------------------------------------------------

std::vector<Addr>
refKeys(const AddrCheckConfig &cfg, Addr base, std::uint16_t size)
{
    std::vector<Addr> keys;
    if (base == kNoAddr || !cfg.monitored(base))
        return keys;
    for (Addr k = cfg.keyOf(base);
         k <= cfg.keyOf(base + (size > 0 ? size - 1 : 0)); ++k)
        keys.push_back(k);
    return keys;
}

/** The key sets of block (l, t) that pass 2 meets, from its events. */
struct RefSummary
{
    AddrSet allocAny;
    AddrSet freeAny;
    AddrSet access;
};

RefSummary
refSummary(const BlockView &block, const AddrCheckConfig &cfg)
{
    RefSummary s;
    auto add = [&](AddrSet &set, Addr base, std::uint16_t size) {
        for (Addr k : refKeys(cfg, base, size))
            set.insert(k);
    };
    for (const Event &e : block.events) {
        switch (e.kind) {
          case EventKind::Alloc:
            add(s.allocAny, e.addr, e.size);
            break;
          case EventKind::Free:
            add(s.freeAny, e.addr, e.size);
            break;
          case EventKind::Read:
          case EventKind::Write:
          case EventKind::Use:
            add(s.access, e.addr, e.size);
            break;
          case EventKind::Assign:
            add(s.access, e.addr, e.size);
            if (e.nsrc >= 1)
                add(s.access, e.src0, e.size);
            if (e.nsrc >= 2)
                add(s.access, e.src1, e.size);
            break;
          default:
            break;
        }
    }
    return s;
}

/**
 * Reference pass 2 of block (l, t): union the summaries of its wings
 * (epochs l-1..l+1, threads != t) into two sets, then flag every
 * alloc/free with a key in either and every access with a key in the
 * alloc/free union, once per operation.
 */
std::vector<ErrorRecord>
unionMeetRecords(const EpochLayout &layout,
                 const std::vector<std::vector<RefSummary>> &summaries,
                 EpochId l, ThreadId t, const AddrCheckConfig &cfg)
{
    AddrSet wing_genkill;
    AddrSet wing_access;
    for (EpochId w = l >= 1 ? l - 1 : 0;
         w <= l + 1 && w < layout.numEpochs(); ++w) {
        for (ThreadId u = 0; u < layout.numThreads(); ++u) {
            if (u == t)
                continue;
            wing_genkill.unionWith(summaries[w][u].allocAny);
            wing_genkill.unionWith(summaries[w][u].freeAny);
            wing_access.unionWith(summaries[w][u].access);
        }
    }

    const BlockView block = layout.block(l, t);
    std::vector<ErrorRecord> out;
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        auto check = [&](Addr base, bool state_change) {
            for (Addr k : refKeys(cfg, base, e.size)) {
                if (wing_genkill.contains(k) ||
                    (state_change && wing_access.contains(k))) {
                    out.push_back(ErrorRecord{t, block.first + i, base,
                                              ErrorKind::NonIsolatedOp,
                                              e.size});
                    return;
                }
            }
        };
        switch (e.kind) {
          case EventKind::Alloc:
          case EventKind::Free:
            check(e.addr, true);
            break;
          case EventKind::Read:
          case EventKind::Write:
          case EventKind::Use:
            check(e.addr, false);
            break;
          case EventKind::Assign:
            check(e.addr, false);
            if (e.nsrc >= 1)
                check(e.src0, false);
            if (e.nsrc >= 2)
                check(e.src1, false);
            break;
          default:
            break;
        }
    }
    return out;
}

/** Forwards to ADDRCHECK, keeping the records each pass 2 commits. */
class Pass2Recorder final : public AnalysisDriver
{
  public:
    explicit Pass2Recorder(ButterflyAddrCheck &inner) : inner_(inner) {}

    void pass1(const BlockView &block) override { inner_.pass1(block); }

    void
    pass2(const BlockView &block) override
    {
        byBlock[{block.epoch, block.thread}] =
            inner_.isolationRecords(block);
        inner_.pass2(block);
    }

    void finalizeEpoch(EpochId l) override { inner_.finalizeEpoch(l); }

    std::map<std::pair<EpochId, ThreadId>, std::vector<ErrorRecord>>
        byBlock;

  private:
    ButterflyAddrCheck &inner_;
};

enum class Schedule { Barrier, Streamed };

/** Epochs of @p global_h events (EpochLayout::byGlobalSeq). */
EpochStream::Config
globalSlicing(std::size_t global_h)
{
    EpochStream::Config slicing;
    slicing.globalH = global_h;
    return slicing;
}

/**
 * Slice @p trace as @p slicing says, run ADDRCHECK over it under every
 * schedule, and compare each block's pass-2 records, one for one and in
 * order, with the union meet; the isolation counters must sum to the
 * same total. Returns that total.
 */
std::uint64_t
expectTablesMatchUnionMeet(const Trace &trace,
                           const EpochStream::Config &slicing,
                           const AddrCheckConfig &cfg,
                           const std::string &what)
{
    const EpochLayout layout =
        slicing.fromHeartbeats
            ? EpochLayout::fromHeartbeats(trace)
            : EpochLayout::byGlobalSeq(trace, slicing.globalH);
    const std::size_t L = layout.numEpochs();
    const std::size_t T = layout.numThreads();
    std::vector<std::vector<RefSummary>> summaries(L);
    for (EpochId l = 0; l < L; ++l)
        for (ThreadId t = 0; t < T; ++t)
            summaries[l].push_back(refSummary(layout.block(l, t), cfg));
    std::uint64_t want_total = 0;
    std::map<std::pair<EpochId, ThreadId>, std::vector<ErrorRecord>> want;
    for (EpochId l = 0; l < L; ++l) {
        for (ThreadId t = 0; t < T; ++t) {
            want[{l, t}] = unionMeetRecords(layout, summaries, l, t, cfg);
            want_total += want[{l, t}].size();
        }
    }

    for (Schedule schedule : {Schedule::Barrier, Schedule::Streamed}) {
        ButterflyAddrCheck check(T, cfg);
        Pass2Recorder recorder(check);
        switch (schedule) {
          case Schedule::Barrier:
            WindowSchedule().run(layout, recorder);
            break;
          case Schedule::Streamed: {
            EpochStream stream(trace, slicing);
            WindowSchedule().run(stream, recorder);
            break;
          }
        }
        const std::string where =
            what + ", schedule " + std::to_string(int(schedule));
        EXPECT_EQ(recorder.byBlock.size(), L * T) << where;
        for (const auto &[block, records] : want) {
            const auto &got = recorder.byBlock[block];
            EXPECT_EQ(got.size(), records.size())
                << where << ", block (" << block.first << ", "
                << block.second << ")";
            for (std::size_t i = 0; i < got.size() && i < records.size();
                 ++i)
                EXPECT_EQ(got[i], records[i])
                    << where << ": " << got[i].toString() << " vs "
                    << records[i].toString();
        }
        EXPECT_EQ(check.isolationViolations(), want_total) << where;
    }
    return want_total;
}

TEST(AddrCheckWingTable, MatchesUnionMeetOnBuggyScAndTsoTraces)
{
    const BugKind kinds[] = {BugKind::UseAfterFree,
                             BugKind::UnallocatedAccess,
                             BugKind::DoubleFree};
    std::uint64_t records = 0;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        for (MemModel model :
             {MemModel::SequentiallyConsistent, MemModel::TSO}) {
            WorkloadConfig wcfg;
            wcfg.numThreads = 2 + seed % 3;
            wcfg.instrPerThread = 1500;
            wcfg.seed = seed;
            Workload w = makeRandomMix(wcfg);
            Rng bug_rng(seed ^ 0xbeef);
            injectBugs(w, kinds[seed % 3], 4, bug_rng);
            InterleaveConfig icfg;
            icfg.model = model;
            Rng rng(seed * 31 + 7);
            const Trace trace = interleave(w.programs, icfg, rng);

            AddrCheckConfig cfg;
            cfg.heapBase = w.heapBase;
            cfg.heapLimit = w.heapLimit + 0x100000;
            records += expectTablesMatchUnionMeet(
                trace, globalSlicing(100 * wcfg.numThreads), cfg,
                "seed " + std::to_string(seed));
        }
    }
    EXPECT_GT(records, 0u) << "no wing conflicts exercised";
}

TEST(AddrCheckWingTable, MatchesUnionMeetOnFuzzCases)
{
    fuzz::FuzzerConfig fcfg;
    fcfg.seed = 14;
    const fuzz::TraceFuzzer fuzzer(fcfg);
    std::uint64_t records = 0;
    for (std::uint64_t id = 0; id < 60; ++id) {
        const fuzz::FuzzCase c = fuzzer.generate(id);
        AddrCheckConfig cfg;
        cfg.heapBase = c.heapBase;
        cfg.heapLimit = c.heapLimit;
        records += expectTablesMatchUnionMeet(
            c.materialize(), globalSlicing(c.globalH), cfg,
            c.scenario + " case " + std::to_string(id));
    }
    EXPECT_GT(records, 0u) << "no wing conflicts exercised";
}

TEST(AddrCheckWingTable, MatchesUnionMeetOnSeventyThreads)
{
    // More threads than any 64-bit thread mask could name.
    WorkloadConfig wcfg;
    wcfg.numThreads = 70;
    wcfg.instrPerThread = 240;
    wcfg.seed = 70;
    const Workload w = makeRandomMix(wcfg);
    Rng rng(17);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;
    EXPECT_GT(expectTablesMatchUnionMeet(
                  trace, globalSlicing(40 * wcfg.numThreads), cfg,
                  "70 threads"),
              0u);
}

TEST(AddrCheckWingTable, MatchesUnionMeetOnOneThread)
{
    // No wings at all: the only thread owns every key it touches.
    WorkloadConfig wcfg;
    wcfg.numThreads = 1;
    wcfg.instrPerThread = 2000;
    wcfg.seed = 1;
    const Workload w = makeRandomMix(wcfg);
    Rng rng(3);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;
    EXPECT_EQ(
        expectTablesMatchUnionMeet(trace, globalSlicing(128), cfg, "1 thread"),
        0u);
}

TEST(AddrCheckWingTable, LastEpochIgnoresTheStaleRingSlot)
{
    // Five epochs. The last has no epoch l+1, and the ring slot epoch 5
    // would use still holds epoch 1's table, in which thread 1 frees a.
    // Thread 0's last-epoch read of a must stay clean; its free of b
    // races with thread 1's epoch-3 read of b.
    const Addr a = 0x100;
    const Addr b = 0x200;
    const Trace trace = test::traceOf({
        {Event::alloc(a, 8), Event::alloc(b, 8), Event::heartbeat(),
         Event::heartbeat(), Event::heartbeat(), Event::heartbeat(),
         Event::read(a, 8), Event::freeOf(b, 8)},
        {Event::heartbeat(), Event::read(b, 8), Event::freeOf(a, 8),
         Event::heartbeat(), Event::heartbeat(), Event::read(b, 8),
         Event::heartbeat()},
    });
    EpochStream::Config slicing;
    slicing.fromHeartbeats = true;
    expectTablesMatchUnionMeet(trace, slicing, wideConfig(), "stale slot");

    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    ASSERT_EQ(layout.numEpochs(), 5u);
    ButterflyAddrCheck check(layout, wideConfig());
    Pass2Recorder recorder(check);
    WindowSchedule().run(layout, recorder);
    const auto &last = recorder.byBlock[{4, 0}];
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0].addr, b);
}

// --------------------------------------------------------------------
// Theorem 6.1: zero false negatives, SC and TSO, with injected bugs.
// --------------------------------------------------------------------

struct FnCase
{
    std::uint64_t seed;
    MemModel model;
    BugKind bug;
};

class AddrCheckZeroFn : public ::testing::TestWithParam<FnCase>
{};

TEST_P(AddrCheckZeroFn, OracleErrorsAreAlwaysCovered)
{
    const FnCase param = GetParam();

    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 1500;
    wcfg.seed = param.seed;
    Workload w = makeRandomMix(wcfg);

    Rng bug_rng(param.seed ^ 0xbeef);
    const auto bugs = injectBugs(w, param.bug, 4, bug_rng);
    ASSERT_EQ(bugs.size(), 4u);

    Rng rng(param.seed * 31 + 7);
    InterleaveConfig icfg;
    icfg.model = param.model;
    Trace trace = interleave(w.programs, icfg, rng);
    EpochLayout layout =
        EpochLayout::byGlobalSeq(trace, 100 * wcfg.numThreads);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit + 0x100000;

    ButterflyAddrCheck butterfly(layout, cfg);
    WindowSchedule().run(layout, butterfly);

    AddrCheckOracle oracle(cfg);
    oracle.runOnTrace(trace);

    // The injected bugs are intra-thread, so the oracle must see them.
    EXPECT_GE(oracle.errors().size(), 4u);

    const auto acc =
        compareToOracle(butterfly.errors(), oracle.errors(),
                        cfg.granularity);
    EXPECT_EQ(acc.falseNegatives, 0u)
        << "butterfly missed an oracle error (seed " << param.seed
        << ")";
}

std::vector<FnCase>
fnCases()
{
    std::vector<FnCase> cases;
    const BugKind kinds[] = {BugKind::UseAfterFree,
                             BugKind::UnallocatedAccess,
                             BugKind::DoubleFree};
    const MemModel models[] = {MemModel::SequentiallyConsistent,
                               MemModel::TSO};
    for (std::uint64_t seed = 0; seed < 6; ++seed)
        for (MemModel m : models)
            for (BugKind k : kinds)
                cases.push_back({seed, m, k});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddrCheckZeroFn,
                         ::testing::ValuesIn(fnCases()));

// Zero FN must also hold for *clean* workloads (no spurious "misses").
class AddrCheckCleanZeroFn
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AddrCheckCleanZeroFn, EveryPaperWorkloadUnderBothModels)
{
    for (const auto &[name, factory] : paperWorkloads()) {
        WorkloadConfig wcfg;
        wcfg.numThreads = 3;
        wcfg.instrPerThread = 1200;
        wcfg.seed = GetParam();
        Workload w = factory(wcfg);

        InterleaveConfig icfg;
        icfg.model = GetParam() % 2 ? MemModel::TSO
                                    : MemModel::SequentiallyConsistent;
        Rng rng(GetParam() * 17 + 3);
        Trace trace = interleave(w.programs, icfg, rng);
        EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, 150 * wcfg.numThreads);

        AddrCheckConfig cfg;
        cfg.heapBase = w.heapBase;
        cfg.heapLimit = w.heapLimit;

        ButterflyAddrCheck butterfly(layout, cfg);
        WindowSchedule().run(layout, butterfly);
        AddrCheckOracle oracle(cfg);
        oracle.runOnTrace(trace);

        // Barrier-synchronized workloads are race-free: oracle is clean.
        EXPECT_EQ(oracle.errors().size(), 0u)
            << name << " oracle flagged a clean workload";
        const auto acc = compareToOracle(butterfly.errors(),
                                         oracle.errors(),
                                         cfg.granularity);
        EXPECT_EQ(acc.falseNegatives, 0u) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddrCheckCleanZeroFn,
                         ::testing::Range<std::uint64_t>(0, 4));

TEST(AddrCheck, LargerEpochsNeverReduceToZeroWhatSmallFlags)
{
    // Accuracy knob (Fig. 13 direction): tiny epochs produce fewer or
    // equal false positives than huge epochs on an allocation-heavy
    // workload.
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 4000;
    wcfg.seed = 5;
    Workload w = makeOcean(wcfg);
    Rng rng(11);
    Trace trace = interleave(w.programs, InterleaveConfig{}, rng);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;

    auto fp_at = [&](std::size_t h) {
        EpochLayout layout = EpochLayout::byGlobalSeq(trace, h * 4);
        ButterflyAddrCheck butterfly(layout, cfg);
        WindowSchedule().run(layout, butterfly);
        AddrCheckOracle oracle(cfg);
        oracle.runOnTrace(trace);
        return compareToOracle(butterfly.errors(), oracle.errors(),
                               cfg.granularity)
            .falsePositives;
    };

    const auto fp_small = fp_at(64);
    const auto fp_large = fp_at(2048);
    EXPECT_LE(fp_small, fp_large);
}

} // namespace
} // namespace bfly
