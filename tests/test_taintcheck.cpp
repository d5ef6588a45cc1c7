/**
 * @file
 * Tests for butterfly TAINTCHECK (paper Section 6.2): transfer-function
 * construction, the Check algorithm under both termination conditions,
 * the two-phase resolution of Lemma 6.3, the Figure 10 SOS-update
 * subtlety, and Theorem 6.2's zero-false-negative property against SC
 * and TSO executions with injected tainted-jump bugs.
 */

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "butterfly/window.hpp"
#include "memmodel/valid_orderings.hpp"
#include "lifeguards/taintcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "tests/helpers.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

TaintCheckConfig
cfg8()
{
    TaintCheckConfig cfg;
    cfg.granularity = 8;
    return cfg;
}

struct Run
{
    Trace trace;
    EpochLayout layout;
    std::unique_ptr<ButterflyTaintCheck> check;
};

Run
runTaint(Trace trace,
         TaintTermination term = TaintTermination::SequentialConsistency)
{
    // The layout views the trace's events, which the move keeps.
    EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    Run run{std::move(trace), std::move(layout), {}};
    run.check =
        std::make_unique<ButterflyTaintCheck>(run.layout, cfg8(), term);
    WindowSchedule().run(run.layout, *run.check);
    return run;
}

Event
assign8(Addr dst, Addr src)
{
    Event e = Event::assign(dst, src);
    e.size = 8;
    return e;
}

TEST(TaintCheck, SequentialPropagationAndUse)
{
    auto run = runTaint(test::traceOf({{
        Event::taintSrc(0x100, 8),
        assign8(0x108, 0x100), // 0x108 inherits taint
        Event::use(0x108),     // error
        Event::untaint(0x108, 8),
        Event::use(0x108),     // clean
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::TaintedUse);
    EXPECT_EQ(run.check->errors().records()[0].index, 2u);
}

TEST(TaintCheck, PlainWriteStoresTrustedData)
{
    auto run = runTaint(test::traceOf({{
        Event::taintSrc(0x100, 8),
        Event::write(0x100, 8), // trusted overwrite
        Event::use(0x100),
    }}));
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(TaintCheck, BinopTaintsIfEitherSourceTainted)
{
    auto run = runTaint(test::traceOf({{
        Event::taintSrc(0x100, 8),
        Event::untaint(0x108, 8),
        Event::assign2(0x110, 0x108, 0x100),
        Event::use(0x110),
    }}));
    ASSERT_EQ(run.check->errors().size(), 1u);
}

TEST(TaintCheck, WingTaintIsConservativelyInherited)
{
    // Thread 1 taints x in the same epoch as thread 0's read of x into
    // y: the ordering is unknown, so y must be considered tainted.
    auto run = runTaint(test::traceOf({
        {assign8(0x200, 0x100), Event::use(0x200)},
        {Event::taintSrc(0x100, 8)},
    }));
    EXPECT_EQ(run.check->errors().size(), 1u);
}

TEST(TaintCheck, DistantPastTaintArrivesViaSos)
{
    // Taint in epoch 0 by t1; use in epoch 3 by t0: flows through the
    // SOS (no wing overlap).
    auto run = runTaint(test::traceOf({
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         assign8(0x200, 0x100), Event::use(0x200)},
        {Event::taintSrc(0x100, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::nop()},
    }));
    EXPECT_EQ(run.check->errors().size(), 1u);
    EXPECT_TRUE(run.check->sosNow().contains(0x100 / 8));
}

TEST(TaintCheck, UntaintTwoEpochsAheadClearsSos)
{
    // Taint then untaint in sequence on one thread, nothing else
    // concurrent: far-future use is clean.
    auto run = runTaint(test::traceOf({
        {Event::taintSrc(0x100, 8), Event::heartbeat(),
         Event::untaint(0x100, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::use(0x100)},
    }));
    EXPECT_TRUE(run.check->errors().empty());
    EXPECT_FALSE(run.check->sosNow().contains(0x100 / 8));
}

TEST(TaintCheck, Figure10SosCommitIsNotLate)
{
    // Figure 10: a is tainted in epoch j+1 via an interleaving with
    // epoch j (t1 taints b in j+1; t0's "a := b" is in epoch j... here
    // modelled directly): d := a in epoch j+2 must see a tainted.
    //   t0: epoch0: a := b          (b tainted by t1's epoch-0 source)
    //   t1: epoch0: taint b
    //   t0: epoch2: d := a; use d
    auto run = runTaint(test::traceOf({
        {assign8(0x108, 0x100), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), assign8(0x118, 0x108), Event::use(0x118)},
        {Event::taintSrc(0x100, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop()},
    }));
    EXPECT_EQ(run.check->errors().size(), 1u);
}

TEST(TaintCheck, SequentialConsistencyRejectsImpossiblePath)
{
    // Figure 2's impossible zig-zag, compressed: thread 1 executes
    //   (1) b := a   then   (2) taint c
    // thread 0 executes (i) a := c in the same epoch. Under SC, b can
    // only be tainted if (2) -> (i) -> (1), which contradicts thread 1's
    // own program order. The SC termination condition must keep b clean,
    // the relaxed condition must flag it.
    const auto make_trace = [] {
        return test::traceOf({
            {assign8(0x100, 0x110)},                       // (i) a := c
            {assign8(0x108, 0x100), Event::taintSrc(0x110, 8),
             Event::use(0x108)},                           // (1);(2);use b
        });
    };
    auto sc = runTaint(make_trace(),
                       TaintTermination::SequentialConsistency);
    EXPECT_TRUE(sc.check->errors().empty());

    auto relaxed = runTaint(make_trace(), TaintTermination::Relaxed);
    EXPECT_EQ(relaxed.check->errors().size(), 1u);
}

TEST(TaintCheck, RelaxedTerminationHandlesCopyCycles)
{
    // x := y and y := x in the wings of a block that reads x: the cycle
    // must not hang the checker, and with no taint source anywhere the
    // result is clean.
    auto run = runTaint(test::traceOf({
        {assign8(0x300, 0x100), Event::use(0x300)},
        {assign8(0x100, 0x108), assign8(0x108, 0x100)},
    }),
    TaintTermination::Relaxed);
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(TaintCheck, TwoPhaseResolutionTaintsAcrossThreeEpochs)
{
    // Lemma 6.3 case (3): y is tainted via epochs l-1..l, and x inherits
    // from y via a transfer function in epoch l+1 visible to the body.
    //   t1 epoch0: taint s
    //   t0 epoch1: y := s        (phase-one taint for body epoch 1)
    //   t1 epoch2: x := y
    //   t0 epoch2: use x   -- wait: use x needs x's taint via wings
    auto run = runTaint(test::traceOf({
        {Event::nop(), Event::heartbeat(), assign8(0x108, 0x100),
         Event::heartbeat(), Event::nop()},
        {Event::taintSrc(0x100, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), assign8(0x110, 0x108), Event::use(0x110)},
    }));
    EXPECT_EQ(run.check->errors().size(), 1u);
}

TEST(TaintCheckOracle, ExactReplayFlagsOnlyRealTaint)
{
    Trace trace = test::traceOf({
        {Event::taintSrc(0x100, 8), Event::use(0x100),
         Event::untaint(0x100, 8), Event::use(0x100)},
    });
    std::uint64_t g = 1;
    for (Event &e : trace.threads[0].events)
        e.gseq = g++;
    TaintCheckOracle oracle(cfg8());
    oracle.runOnTrace(trace);
    ASSERT_EQ(oracle.errors().size(), 1u);
    EXPECT_EQ(oracle.errors().records()[0].index, 1u);
}

// --------------------------------------------------------------------
// Theorem 6.2: zero false negatives on randomized taint workloads.
// --------------------------------------------------------------------

struct TaintFnCase
{
    std::uint64_t seed;
    MemModel model;
    TaintTermination termination;
};

class TaintZeroFn : public ::testing::TestWithParam<TaintFnCase>
{};

TEST_P(TaintZeroFn, OracleTaintedUsesAreAlwaysFlagged)
{
    const TaintFnCase param = GetParam();

    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 600;
    wcfg.seed = param.seed;
    Workload w = makeTaintMix(wcfg);

    Rng bug_rng(param.seed ^ 0xf00d);
    injectBugs(w, BugKind::TaintedJump, 3, bug_rng);

    Rng rng(param.seed * 131 + 17);
    InterleaveConfig icfg;
    icfg.model = param.model;
    Trace trace = interleave(w.programs, icfg, rng);
    EpochLayout layout =
        EpochLayout::byGlobalSeq(trace, 80 * wcfg.numThreads);

    ButterflyTaintCheck butterfly(layout, cfg8(), param.termination);
    WindowSchedule().run(layout, butterfly);

    TaintCheckOracle oracle(cfg8());
    oracle.runOnTrace(trace);
    EXPECT_GE(oracle.errors().size(), 3u); // injected bugs always fire

    // TaintedUse errors attach to the Use event itself on both sides:
    // exact event containment must hold (Theorem 6.2).
    for (const auto &rec : oracle.errors().records()) {
        EXPECT_TRUE(butterfly.errors().flagged(rec.tid, rec.index))
            << "missed tainted use at thread " << rec.tid << " instr "
            << rec.index << " (seed " << param.seed << ")";
    }
}

std::vector<TaintFnCase>
taintCases()
{
    std::vector<TaintFnCase> cases;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        cases.push_back({seed, MemModel::SequentiallyConsistent,
                         TaintTermination::SequentialConsistency});
        cases.push_back({seed, MemModel::TSO,
                         TaintTermination::Relaxed});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TaintZeroFn,
                         ::testing::ValuesIn(taintCases()));

/** TAINTCHECK's observable output on one trace, as pinned below. */
struct PinnedTaintCheck
{
    std::uint64_t recordsFnv; ///< test::recordsFnv, in log order
    std::size_t records;
    std::uint64_t checksResolved;
    std::uint64_t sosFnv; ///< test::keysFnv of the sorted final SOS
    std::size_t sosSize;
};

TEST(TaintCheck, ReportsMatchPinnedOutputs)
{
    // Pass 1 keeps each key's rules in program order, which pass 2's
    // resolution budget makes observable. Pinned here, over buggy
    // taint-mix traces under both termination conditions: the record
    // sequence (FNV in log order), checksResolved and the final SOS. The
    // table was produced by running this exact setup when this kernel
    // still had a columnar twin (the two agreed on every row), so any
    // divergence is a behaviour change.
    static constexpr PinnedTaintCheck kPinned[4][2] = {
        {{0xba2d5adf7387c290ull, 198, 3503, 0x7fcd3a06169babefull, 36},
         {0xa981dc717c61c012ull, 198, 4633, 0x7fcd3a06169babefull, 36}},
        {{0x2dbf68711767ffdeull, 133, 3368, 0xd6b0556c09ed5144ull, 31},
         {0xf1e29a1f2c7ac35cull, 133, 3631, 0xd6b0556c09ed5144ull, 31}},
        {{0x17d5e189f0881897ull, 178, 3247, 0x359ac8d47ffaddc3ull, 35},
         {0xffae1de535df7d3full, 178, 3261, 0x359ac8d47ffaddc3ull, 35}},
        {{0x71fe79143986eccbull, 174, 3465, 0xdfb3b0577fe0f5f1ull, 22},
         {0xb75fe5afe7eb8461ull, 174, 4178, 0xdfb3b0577fe0f5f1ull, 22}},
    };
    const TaintTermination terms[] = {
        TaintTermination::SequentialConsistency, TaintTermination::Relaxed};
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        for (std::size_t m = 0; m < 2; ++m) {
            const TaintTermination term = terms[m];
            WorkloadConfig wcfg;
            wcfg.numThreads = 3;
            wcfg.instrPerThread = 600;
            wcfg.seed = seed;
            Workload w = makeTaintMix(wcfg);
            Rng bug_rng(seed ^ 0xf00d);
            injectBugs(w, BugKind::TaintedJump, 3, bug_rng);

            Rng rng(seed * 131 + 17);
            InterleaveConfig icfg;
            icfg.model = term == TaintTermination::Relaxed
                             ? MemModel::TSO
                             : MemModel::SequentiallyConsistent;
            Trace trace = interleave(w.programs, icfg, rng);
            EpochLayout layout =
                EpochLayout::byGlobalSeq(trace, 80 * wcfg.numThreads);

            ButterflyTaintCheck check(layout, cfg8(), term);
            WindowSchedule().run(layout, check);

            const PinnedTaintCheck &want = kPinned[seed][m];
            const auto &records = check.errors().records();
            const std::vector<Addr> sos = check.sosNow().sorted();
            const std::string where =
                "seed " + std::to_string(seed) + " term " +
                std::to_string(m);
            EXPECT_EQ(records.size(), want.records) << where;
            EXPECT_EQ(test::recordsFnv(records), want.recordsFnv) << where;
            EXPECT_EQ(check.checksResolved(), want.checksResolved) << where;
            EXPECT_EQ(sos.size(), want.sosSize) << where;
            EXPECT_EQ(test::keysFnv(sos), want.sosFnv) << where;
        }
    }
}

// --------------------------------------------------------------------
// Regressions: wing-visibility subtleties found by exhaustive search.
// Each encodes an interleaving where taint is only observable to a
// concurrent reader, never in any block's final state.
// --------------------------------------------------------------------

TEST(TaintCheck, WingReadsPreHeadValueTheHeadUntainted)
{
    // t1's head (epoch 3) untaints b, but t0's epoch-4 rule a := b is
    // unordered against that head and may read the older tainted b (in
    // the SOS); t1's epoch-4 use of a must be flagged.
    auto run = runTaint(test::traceOf({
        {Event::nop(), Event::heartbeat(), assign8(0x108, 0x100),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::nop(), Event::heartbeat(), assign8(0x100, 0x108)},
        {Event::taintSrc(0x108, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::untaint(0x108, 8), Event::heartbeat(),
         Event::use(0x100)},
    }));
    bool flagged = false;
    for (const auto &rec : run.check->errors().records())
        flagged |= rec.kind == ErrorKind::TaintedUse && rec.tid == 1 &&
                   rec.addr == 0x100;
    EXPECT_TRUE(flagged);
}

TEST(TaintCheck, WingReadsMidBlockTaintTheBlockItselfCleaned)
{
    // t0 taints then untaints b within one block; t1's adjacent-epoch
    // copy a := b can read the in-between tainted value, and t0's later
    // use of b (fed by b := a) must be flagged.
    auto run = runTaint(test::traceOf({
        {Event::taintSrc(0x108, 8), Event::untaint(0x108, 8),
         Event::heartbeat(), assign8(0x108, 0x100), Event::heartbeat(),
         Event::use(0x108)},
        {Event::nop(), Event::heartbeat(), assign8(0x100, 0x108),
         Event::heartbeat(), Event::nop()},
    }));
    bool flagged = false;
    for (const auto &rec : run.check->errors().records())
        flagged |= rec.kind == ErrorKind::TaintedUse && rec.tid == 0;
    EXPECT_TRUE(flagged);
}

TEST(TaintCheck, CompletedWingConclusionsReachTheBody)
{
    // The taint of b is only derivable with epoch 0's transfer
    // functions, which body (2, t0) can no longer see — but wing block
    // (1, t1) derived it during its own pass 2 and its conclusion must
    // flow to the body (else the b := a copy looks clean).
    //   t0 ep0: taint a; untaint a       (mid-block taint of a)
    //   t1 ep1: b := a                   (may read the mid-block taint)
    //   t0 ep2: use b
    auto run = runTaint(test::traceOf({
        {Event::taintSrc(0x100, 8), Event::untaint(0x100, 8),
         Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::use(0x108)},
        {Event::nop(), Event::heartbeat(), assign8(0x108, 0x100),
         Event::heartbeat(), Event::nop()},
    }));
    bool flagged = false;
    for (const auto &rec : run.check->errors().records())
        flagged |= rec.kind == ErrorKind::TaintedUse && rec.tid == 0;
    EXPECT_TRUE(flagged);
}

// --------------------------------------------------------------------
// Exhaustive soundness: Theorem 6.2 checked against *every* valid
// ordering of tiny windows, not just one sampled execution.
// --------------------------------------------------------------------

class TaintExhaustive : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(TaintExhaustive, AnyOrderingThatTaintsAUseIsFlagged)
{
    Rng rng(GetParam() * 2654435761ull + 11);
    const Addr vars[3] = {0x100, 0x108, 0x110};
    const unsigned epochs = 3 + GetParam() % 3; // 3..5 epochs
    const TaintTermination term =
        GetParam() % 2 ? TaintTermination::Relaxed
                       : TaintTermination::SequentialConsistency;

    // Tiny random taint program: 2 threads, 0-2 events per block.
    std::vector<std::vector<Event>> programs(2);
    for (unsigned t = 0; t < 2; ++t) {
        for (unsigned l = 0; l < epochs; ++l) {
            const unsigned n = static_cast<unsigned>(rng.below(3));
            for (unsigned i = 0; i < n; ++i) {
                const Addr x = vars[rng.below(3)];
                const double dice = rng.uniform();
                if (dice < 0.25) {
                    programs[t].push_back(Event::taintSrc(x, 8));
                } else if (dice < 0.45) {
                    programs[t].push_back(Event::untaint(x, 8));
                } else if (dice < 0.8) {
                    Event e = Event::assign(x, vars[rng.below(3)]);
                    e.size = 8;
                    programs[t].push_back(e);
                } else {
                    programs[t].push_back(Event::use(x));
                }
            }
            if (l + 1 < epochs)
                programs[t].push_back(Event::heartbeat());
        }
    }
    const Trace trace = test::traceOf(std::move(programs));
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    ButterflyTaintCheck butterfly(layout, cfg8(), term);
    WindowSchedule().run(layout, butterfly);

    // Replay every valid ordering; for each Use, record whether some
    // ordering taints it.
    const ValidOrderings vo(layout, layout.numEpochs() - 1);
    std::map<std::pair<ThreadId, std::uint64_t>, bool> ever_tainted;
    vo.forEach([&](const std::vector<OrderedInstr> &order) {
        std::map<Addr, bool> taint;
        for (const OrderedInstr &oi : order) {
            const Event &e = oi.e;
            switch (e.kind) {
              case EventKind::TaintSrc:
                taint[e.addr / 8] = true;
                break;
              case EventKind::Untaint:
              case EventKind::Write:
                taint[e.addr / 8] = false;
                break;
              case EventKind::Assign: {
                bool tainted = false;
                const Addr srcs[2] = {e.src0, e.src1};
                for (unsigned n = 0; n < e.nsrc; ++n)
                    tainted = tainted || taint[srcs[n] / 8];
                taint[e.addr / 8] = tainted;
                break;
              }
              case EventKind::Use: {
                const auto key = std::make_pair(
                    oi.t, static_cast<std::uint64_t>(
                              layout.globalIndex(oi.l, oi.t, oi.i)));
                ever_tainted[key] =
                    ever_tainted[key] || taint[e.addr / 8];
                break;
              }
              default:
                break;
            }
        }
        return true;
    });

    for (const auto &[key, tainted] : ever_tainted) {
        if (tainted) {
            EXPECT_TRUE(butterfly.errors().flagged(key.first,
                                                   key.second))
                << "use at thread " << key.first << " instr "
                << key.second << " taintable under some valid ordering "
                << "but not flagged (seed " << GetParam() << ")";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaintExhaustive,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(TaintCheck, RelaxedFlagsSupersetOfSequentiallyConsistent)
{
    // The relaxed termination condition explores more interleavings, so
    // it can only flag more uses, never fewer.
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 600;
    wcfg.seed = 77;
    Workload w = makeTaintMix(wcfg);
    Rng rng(123);
    Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    EpochLayout layout = EpochLayout::byGlobalSeq(trace, 240);

    ButterflyTaintCheck sc(layout, cfg8(),
                           TaintTermination::SequentialConsistency);
    WindowSchedule().run(layout, sc);
    ButterflyTaintCheck relaxed(layout, cfg8(),
                                TaintTermination::Relaxed);
    WindowSchedule().run(layout, relaxed);

    for (const auto &rec : sc.errors().records()) {
        EXPECT_TRUE(relaxed.errors().flagged(rec.tid, rec.index))
            << "relaxed termination missed an SC-flagged use";
    }
    EXPECT_GE(relaxed.errors().size(), sc.errors().size());
}

} // namespace
} // namespace bfly
