/**
 * @file
 * Differential fuzzing subsystem tests: generator determinism and
 * hygiene, clean conformance runs, mutation-tested fault detection,
 * delta-debugging minimization, repro serialization, and replay of the
 * checked-in tests/corpus/ regression set.
 */

#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "src/fuzz/corpus.hpp"
#include "src/fuzz/differential_runner.hpp"
#include "src/fuzz/minimizer.hpp"
#include "src/fuzz/trace_fuzzer.hpp"
#include "src/service/analyzer.hpp"

using namespace bfly;
using namespace bfly::fuzz;

namespace {

/** A hand-built case whose rogue accesses are guaranteed oracle errors:
 *  thread 1 reads/frees memory that is never allocated, while thread 0
 *  does @p padding benign allocated-slot reads (minimizer chaff). */
FuzzCase
rogueCase(std::size_t padding)
{
    constexpr Addr kBase = 0x10000;
    FuzzCase c;
    c.caseId = 424242;
    c.scenario = "hand-rogue";
    c.heapBase = kBase;
    c.heapLimit = kBase + 0x8000;
    c.interleaveSeed = 99;
    c.globalH = 32;
    c.programs.resize(2);

    c.programs[0].push_back(Event::alloc(kBase, 64));
    for (std::size_t i = 0; i < padding; ++i)
        c.programs[0].push_back(Event::read(kBase + 8 * (i % 8), 4));

    c.programs[1].push_back(Event::read(kBase + 0x4000, 4));
    c.programs[1].push_back(Event::write(kBase + 0x4100, 4));
    c.programs[1].push_back(Event::freeOf(kBase + 0x4200));
    return c;
}

} // namespace

TEST(TraceFuzzer, StreamIsDeterministic)
{
    FuzzerConfig cfg;
    cfg.seed = 77;
    TraceFuzzer a(cfg), b(cfg);
    for (int i = 0; i < 25; ++i) {
        const FuzzCase ca = a.next();
        const FuzzCase cb = b.next();
        EXPECT_EQ(encodeCase(ca), encodeCase(cb)) << "case " << i;
    }
}

TEST(TraceFuzzer, GenerateIsPureFunctionOfSeed)
{
    TraceFuzzer f(FuzzerConfig{});
    for (std::uint64_t s : {1ull, 17ull, 0xdeadbeefull}) {
        EXPECT_EQ(encodeCase(f.generate(s)), encodeCase(f.generate(s)));
    }
    EXPECT_NE(encodeCase(f.generate(1)), encodeCase(f.generate(2)));
}

TEST(TraceFuzzer, CasesAreWellFormed)
{
    FuzzerConfig cfg;
    cfg.seed = 5;
    TraceFuzzer fuzzer(cfg);
    for (int i = 0; i < 60; ++i) {
        const FuzzCase c = fuzzer.next();
        ASSERT_GE(c.programs.size(), 1u);
        ASSERT_GT(c.totalEvents(), 0u);
        ASSERT_GE(c.globalH, 1u);
        for (const auto &program : c.programs)
            for (const Event &e : program) {
                // Heartbeats/barriers would fight the fuzzer's explicit
                // epoching (byGlobalSeq) and the interleaver.
                EXPECT_NE(e.kind, EventKind::Heartbeat);
                EXPECT_NE(e.kind, EventKind::Barrier);
            }
        const Trace t = c.materialize();
        ASSERT_EQ(t.numThreads(), c.programs.size());
        for (std::size_t th = 0; th < c.programs.size(); ++th)
            EXPECT_EQ(t.threads[th].events.size(),
                      c.programs[th].size());
        // Deterministic replay: same case, same trace.
        const Trace t2 = c.materialize();
        for (std::size_t th = 0; th < t.numThreads(); ++th)
            for (std::size_t e = 0; e < t.threads[th].events.size(); ++e)
                EXPECT_EQ(t.threads[th].events[e].gseq,
                          t2.threads[th].events[e].gseq);
    }
}

TEST(TraceFuzzer, MutationPreservesWellFormedness)
{
    FuzzerConfig cfg;
    cfg.seed = 11;
    cfg.mutateProbability = 1.0; // force the mutation path
    TraceFuzzer fuzzer(cfg);
    for (int i = 0; i < 40; ++i) {
        const FuzzCase c = fuzzer.next();
        EXPECT_GT(c.totalEvents(), 0u);
        const Trace t = c.materialize();
        EXPECT_EQ(t.numThreads(), c.programs.size());
    }
}

TEST(DifferentialRunner, CleanOnFuzzedCases)
{
    FuzzerConfig cfg;
    cfg.seed = 1234;
    TraceFuzzer fuzzer(cfg);
    const DifferentialRunner runner;
    std::size_t oracle_errors = 0;
    for (int i = 0; i < 30; ++i) {
        const FuzzCase c = fuzzer.next();
        const CaseOutcome outcome = runner.run(c);
        oracle_errors += outcome.oracleErrors;
        ASSERT_TRUE(outcome.clean())
            << c.scenario << " case " << c.caseId << ": "
            << outcome.violations.front().toString();
    }
    // The adversarial generators must actually exercise the error paths.
    EXPECT_GT(oracle_errors, 0u);
}

TEST(DifferentialRunner, RogueCaseFlagsErrorsButStaysClean)
{
    const DifferentialRunner runner;
    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_TRUE(outcome.clean());
    EXPECT_GE(outcome.oracleErrors, 3u); // read + write + free, at least
    EXPECT_GE(outcome.butterflyErrors, 3u);
}

TEST(DifferentialRunner, InjectedModeDependentBugBreaksEquivalence)
{
    RunnerConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.target = Lifeguard::AddrCheck;
    cfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    cfg.fault.modeMask =
        1u << static_cast<unsigned>(RunMode::Parallel);
    const DifferentialRunner runner(cfg);

    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_FALSE(outcome.clean());
    bool saw = false;
    for (const Violation &v : outcome.violations)
        saw = saw || (v.invariant == Invariant::ModeEquivalence &&
                      v.lifeguard == Lifeguard::AddrCheck &&
                      v.mode == RunMode::Parallel);
    EXPECT_TRUE(saw) << outcome.violations.front().toString();
}

TEST(DifferentialRunner, InjectedAllModesBugBecomesFalseNegative)
{
    RunnerConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.target = Lifeguard::AddrCheck;
    cfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    cfg.fault.modeMask = kAllModesMask; // every mode: a true lifeguard bug
    const DifferentialRunner runner(cfg);

    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_FALSE(outcome.clean());
    bool saw = false;
    for (const Violation &v : outcome.violations)
        saw = saw || (v.invariant == Invariant::OracleSubsumption &&
                      v.lifeguard == Lifeguard::AddrCheck);
    EXPECT_TRUE(saw);
}

TEST(DifferentialRunner, ElisionAxisIsCleanOnFuzzedCases)
{
    // The opt-in elision axis re-runs the sequential lifeguards on an
    // elided copy of every trace and requires the full-trace oracle to
    // stay subsumed. On the adversarial generators almost nothing is
    // provably private (shared slots, taint ops), so the proof here is
    // zero violations, not a high elision rate.
    FuzzerConfig cfg;
    cfg.seed = 777;
    TraceFuzzer fuzzer(cfg);
    RunnerConfig rcfg;
    rcfg.checkElision = true;
    const DifferentialRunner runner(rcfg);
    for (int i = 0; i < 30; ++i) {
        const FuzzCase c = fuzzer.next();
        const CaseOutcome outcome = runner.run(c);
        ASSERT_TRUE(outcome.clean())
            << c.scenario << " case " << c.caseId << ": "
            << outcome.violations.front().toString();
        EXPECT_LE(outcome.summaryEvents, outcome.elidedEvents);
    }
}

TEST(DifferentialRunner, ElisionAxisStaysCleanOnErrorHeavyCase)
{
    // A case with real oracle errors: eliding must not hide any of
    // them (the rogue accesses are shared/unallocated, so they are
    // never candidates).
    RunnerConfig rcfg;
    rcfg.checkElision = true;
    const DifferentialRunner runner(rcfg);
    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_TRUE(outcome.clean());
    EXPECT_GE(outcome.oracleErrors, 3u);
}

TEST(DifferentialRunner, InjectedSequentialDropSurfacesElisionViolation)
{
    // Drop UnallocatedAccess records from the sequential ADDRCHECK run
    // in every mode: the elided re-run then misses oracle errors and
    // the ElisionSoundness invariant must fire.
    RunnerConfig rcfg;
    rcfg.checkElision = true;
    rcfg.fault.enabled = true;
    rcfg.fault.target = Lifeguard::AddrCheck;
    rcfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    rcfg.fault.modeMask = kAllModesMask;
    const DifferentialRunner runner(rcfg);

    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_FALSE(outcome.clean());
    bool saw = false;
    for (const Violation &v : outcome.violations)
        saw = saw || (v.invariant == Invariant::ElisionSoundness &&
                      v.lifeguard == Lifeguard::AddrCheck &&
                      v.mode == RunMode::Sequential);
    EXPECT_TRUE(saw) << outcome.violations.front().toString();
}

TEST(TraceMinimizer, ShrinksInjectedBugToSmallRepro)
{
    RunnerConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.target = Lifeguard::AddrCheck;
    cfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    cfg.fault.modeMask = kAllModesMask;
    const DifferentialRunner runner(cfg);

    const FuzzCase failing = rogueCase(120); // ~123 events of chaff
    ASSERT_FALSE(runner.run(failing).clean());

    TraceMinimizer minimizer(runner);
    const TraceMinimizer::Result result = minimizer.minimize(failing);
    ASSERT_TRUE(result.reproduced);
    EXPECT_EQ(result.signature.invariant, Invariant::OracleSubsumption);
    EXPECT_EQ(result.signature.lifeguard, Lifeguard::AddrCheck);
    EXPECT_GT(result.fromEvents, 100u);
    EXPECT_LE(result.toEvents, 25u); // acceptance bar for the issue
    // The minimized case must fail for the same reason.
    const CaseOutcome after = runner.run(result.minimized);
    EXPECT_TRUE(result.signature.matches(after));
}

TEST(TraceMinimizer, CleanCaseIsReportedAsNotReproduced)
{
    const DifferentialRunner runner;
    TraceMinimizer minimizer(runner);
    const TraceMinimizer::Result result =
        minimizer.minimize(rogueCase(4));
    EXPECT_FALSE(result.reproduced);
    EXPECT_EQ(result.toEvents, result.fromEvents);
}

TEST(Corpus, EncodeDecodeRoundTripsBitExactly)
{
    FuzzerConfig cfg;
    cfg.seed = 31337;
    TraceFuzzer fuzzer(cfg);
    for (int i = 0; i < 50; ++i) {
        const FuzzCase c = fuzzer.next();
        const std::vector<std::uint8_t> bytes = encodeCase(c);
        const FuzzCase back = decodeCase(bytes);
        EXPECT_EQ(encodeCase(back), bytes);
        EXPECT_EQ(back.caseId, c.caseId);
        EXPECT_EQ(back.scenario, c.scenario);
        EXPECT_EQ(back.interleaveSeed, c.interleaveSeed);
        EXPECT_EQ(back.globalH, c.globalH);
        EXPECT_EQ(back.speedWeights, c.speedWeights);
        ASSERT_EQ(back.programs.size(), c.programs.size());
    }
}

TEST(Corpus, DecodeRejectsGarbage)
{
    EXPECT_THROW(decodeCase({}), std::runtime_error);
    EXPECT_THROW(decodeCase({'B', 'A', 'D', '!', 1}),
                 std::runtime_error);
    std::vector<std::uint8_t> truncated = encodeCase(rogueCase(2));
    truncated.resize(truncated.size() / 2);
    EXPECT_THROW(decodeCase(truncated), std::runtime_error);
    std::vector<std::uint8_t> trailing = encodeCase(rogueCase(2));
    trailing.push_back(0);
    EXPECT_THROW(decodeCase(trailing), std::runtime_error);
}

TEST(Corpus, SaveLoadRoundTripsThroughDisk)
{
    const FuzzCase c = rogueCase(8);
    const std::string path =
        (std::filesystem::temp_directory_path() / "bfly_repro_test.bfz")
            .string();
    ASSERT_TRUE(saveRepro(c, path));
    const FuzzCase back = loadRepro(path);
    EXPECT_EQ(encodeCase(back), encodeCase(c));
    std::filesystem::remove(path);
}

TEST(CorpusReplay, ModeMatrixIncludesBatched)
{
    // The checked-in corpus is only a Batched regression gate if the
    // runner's mode matrix actually executes Batched: a fault injected
    // into Batched alone must surface as a mode-equivalence violation
    // attributed to that mode.
    RunnerConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.target = Lifeguard::AddrCheck;
    cfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    cfg.fault.modeMask = 1u << static_cast<unsigned>(RunMode::Batched);
    const DifferentialRunner runner(cfg);
    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_FALSE(outcome.clean());
    bool saw = false;
    for (const Violation &v : outcome.violations)
        saw = saw || (v.invariant == Invariant::ModeEquivalence &&
                      v.mode == RunMode::Batched);
    EXPECT_TRUE(saw) << outcome.violations.front().toString();
}

#ifdef BFLY_CORPUS_DIR
TEST(CorpusReplay, CheckedInReprosStayClean)
{
    const std::vector<std::string> files = listCorpus(BFLY_CORPUS_DIR);
    ASSERT_FALSE(files.empty())
        << "no .bfz repros under " << BFLY_CORPUS_DIR;
    const DifferentialRunner runner;
    for (const std::string &path : files) {
        const FuzzCase c = loadRepro(path);
        const CaseOutcome outcome = runner.run(c);
        EXPECT_TRUE(outcome.clean())
            << path << ": " << outcome.violations.front().toString();
        EXPECT_GT(outcome.events, 0u) << path;
    }
}

TEST(CorpusReplay, BatchedKernelsMatchScalarOnEveryRepro)
{
    // Second Batched gate, independent of the runner's internals: every
    // checked-in repro, run through the service's reference analyzer,
    // must produce a bit-identical report with the columnar (batch)
    // pass-1 kernels and the scalar ones, for all six lifeguards. This
    // is the exact agreement MuxConfig::batchMode relies on.
    const std::vector<std::string> files = listCorpus(BFLY_CORPUS_DIR);
    ASSERT_FALSE(files.empty());
    for (const std::string &path : files) {
        const FuzzCase c = loadRepro(path);
        const Trace trace = c.materialize();
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, c.globalH);
        for (const Lifeguard lg : kAllLifeguards) {
            service::SessionSpec spec;
            spec.lifeguard = static_cast<std::uint8_t>(lg);
            spec.memModel = c.model == MemModel::TSO ? 1 : 0;
            spec.numThreads =
                static_cast<std::uint32_t>(trace.numThreads());
            spec.granularity = lifeguardEntry(lg).defaultGranularity;
            spec.heapBase = c.heapBase;
            spec.heapLimit = c.heapLimit;
            const service::RemoteReport scalar =
                service::analyzeReference(spec, trace, layout, false);
            const service::RemoteReport batched =
                service::analyzeReference(spec, trace, layout, true);
            EXPECT_TRUE(batched.identical(scalar))
                << path << " " << lifeguardName(lg)
                << ": columnar kernels diverged from scalar";
        }
    }
}
#endif
