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
#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/taintcheck.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

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
    cfg.fault.modeMask = modeBit(RunMode::PipelinedStream);
    const DifferentialRunner runner(cfg);

    const CaseOutcome outcome = runner.run(rogueCase(16));
    ASSERT_FALSE(outcome.clean());
    bool saw = false;
    for (const Violation &v : outcome.violations)
        saw = saw || (v.invariant == Invariant::ModeEquivalence &&
                      v.lifeguard == Lifeguard::AddrCheck &&
                      v.mode == RunMode::PipelinedStream);
    EXPECT_TRUE(saw) << outcome.violations.front().toString();
}

TEST(RunModes, NamesAndMaskBitsArePinned)
{
    // fuzz_cli --inject-fault builds its mask with modeBit(), its
    // reports name modes with runModeName(), and the CI self-test greps
    // for "(pipelined-stream)": all three rest on these values.
    ASSERT_EQ(std::size(kAllModes), 2u);
    EXPECT_EQ(kAllModes[0], RunMode::Sequential);
    EXPECT_EQ(kAllModes[1], RunMode::PipelinedStream);
    EXPECT_STREQ(runModeName(RunMode::Sequential), "sequential");
    EXPECT_STREQ(runModeName(RunMode::PipelinedStream), "pipelined-stream");
    EXPECT_EQ(modeBit(RunMode::Sequential), 0x1);
    EXPECT_EQ(modeBit(RunMode::PipelinedStream), 0x2);
    EXPECT_EQ(kAllModesMask, modeBit(RunMode::Sequential) |
                                 modeBit(RunMode::PipelinedStream));
}

TEST(FaultPlan, CorruptsOnlyTheTargetInMaskedModes)
{
    FaultPlan plan;
    plan.target = Lifeguard::AddrCheck;
    plan.modeMask = modeBit(RunMode::PipelinedStream);
    EXPECT_FALSE(plan.corrupts(Lifeguard::AddrCheck,
                               RunMode::PipelinedStream))
        << "a disabled plan corrupts nothing";

    plan.enabled = true;
    EXPECT_TRUE(plan.corrupts(Lifeguard::AddrCheck,
                              RunMode::PipelinedStream));
    EXPECT_FALSE(plan.corrupts(Lifeguard::AddrCheck, RunMode::Sequential));
    for (Lifeguard lg : kAllLifeguards) {
        if (lg == Lifeguard::AddrCheck)
            continue;
        for (RunMode mode : kAllModes)
            EXPECT_FALSE(plan.corrupts(lg, mode)) << lifeguardName(lg);
    }

    plan.modeMask = 0;
    for (RunMode mode : kAllModes)
        EXPECT_FALSE(plan.corrupts(Lifeguard::AddrCheck, mode));
    plan.modeMask = kAllModesMask;
    for (RunMode mode : kAllModes)
        EXPECT_TRUE(plan.corrupts(Lifeguard::AddrCheck, mode));
}

TEST(Violation, ToStringLeadsWithInvariantLifeguardAndMode)
{
    const Violation diverged{Invariant::ModeEquivalence,
                             Lifeguard::AddrCheck, RunMode::PipelinedStream,
                             "2 vs 3 records"};
    EXPECT_EQ(diverged.toString(),
              "mode-equivalence [ADDRCHECK] (pipelined-stream): "
              "2 vs 3 records");
    // Only mode equivalence names a mode.
    const Violation missed{Invariant::OracleSubsumption,
                           Lifeguard::TaintCheck, RunMode::Sequential, ""};
    EXPECT_EQ(missed.toString(), "oracle-subsumption [TAINTCHECK]");

    // The line fuzz_cli --inject-fault reports as its first violation.
    RunnerConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.target = Lifeguard::AddrCheck;
    cfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    cfg.fault.modeMask = modeBit(RunMode::PipelinedStream);
    const CaseOutcome outcome = DifferentialRunner(cfg).run(rogueCase(16));
    ASSERT_FALSE(outcome.clean());
    EXPECT_EQ(outcome.violations.front().toString().rfind(
                  "mode-equivalence [ADDRCHECK] (pipelined-stream)", 0),
              0u)
        << outcome.violations.front().toString();
}

TEST(DifferentialRunner, InjectedReferenceDropBreaksEquivalenceAndSubsumption)
{
    // Corrupting only the sequential reference: the stream run now
    // disagrees with it (attributed to the stream, the mode compared),
    // and the reference misses oracle errors.
    RunnerConfig cfg;
    cfg.fault.enabled = true;
    cfg.fault.target = Lifeguard::AddrCheck;
    cfg.fault.dropKind = ErrorKind::UnallocatedAccess;
    cfg.fault.modeMask = modeBit(RunMode::Sequential);
    const CaseOutcome outcome = DifferentialRunner(cfg).run(rogueCase(16));
    bool diverged = false;
    bool missed = false;
    for (const Violation &v : outcome.violations) {
        EXPECT_EQ(v.lifeguard, Lifeguard::AddrCheck) << v.toString();
        diverged = diverged || (v.invariant == Invariant::ModeEquivalence &&
                                v.mode == RunMode::PipelinedStream);
        missed = missed || v.invariant == Invariant::OracleSubsumption;
    }
    EXPECT_TRUE(diverged);
    EXPECT_TRUE(missed);
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

TEST(CorpusReplay, ReferenceReportsMatchPinnedFingerprints)
{
    // Every checked-in repro, run through the service's reference
    // analyzer (sequential walk over the byGlobalSeq layout) for all six
    // lifeguards, must reproduce its pinned report fingerprint
    // (LifeguardReport::digest: records, SOS and dataflow sets). The
    // table was produced by this exact loop when ADDRCHECK and
    // TAINTCHECK still had columnar pass-1 kernels beside their
    // per-event ones; both agreed on every entry. A new repro needs a row:
    // print service::analyzeReference(...).fingerprint for it here.
    struct Row
    {
        const char *file;
        std::uint64_t fingerprints[std::size(kAllLifeguards)];
    };
    static constexpr Row kPinned[] = {
        {"batch-dense-page-1.bfz",
         {0xce9f56154a1426b0ull, 0x192268089ccf3cbdull,
          0x33ed6d528cd068acull, 0x266fb3b90f0676deull,
          0x192268089ccf3cbdull, 0x192268089ccf3cbdull}},
        {"batch-wide-soup-2.bfz",
         {0x1b829e7dcf78f472ull, 0x192268089ccf3cbdull,
          0x8f722a138dca8ec6ull, 0x869400f2aea9d914ull,
          0x192268089ccf3cbdull, 0x4cb45b32114e69e5ull}},
        {"degenerate-epochs+mut-13.bfz",
         {0xad0e8bba9184c2c6ull, 0x192268089ccf3cbdull,
          0xca582c6bf3268ddaull, 0x49d451bc4ecab129ull,
          0x23c53f72a950871cull, 0x5ea043a32d4ada47ull}},
        {"degenerate-epochs-11.bfz",
         {0x594227bf3b325b1eull, 0x192268089ccf3cbdull,
          0x48da4ca7f16e1714ull, 0x16194b0c456b247cull,
          0xd71ce3192c25c718ull, 0x192268089ccf3cbdull}},
        {"epoch-skew+mut-26.bfz",
         {0x4f76e15526a9927bull, 0x192268089ccf3cbdull,
          0x26dc45d568352372ull, 0x7a0aebb4f443aa2eull,
          0xcc8f6ef3076b346cull, 0x7c6389513c8e98e7ull}},
        {"epoch-skew-0.bfz",
         {0x0241957db6e892e5ull, 0x192268089ccf3cbdull,
          0xae944ab89f351233ull, 0x5d2dcb6a140170b2ull,
          0xc10a45dd861bb0ebull, 0xa602ec1de5cfcc6full}},
        {"heartbeat-straddle-4.bfz",
         {0x2391d9e045d119e3ull, 0x192268089ccf3cbdull,
          0xfffacdf7ae793f9eull, 0x83dfc32254d9bf38ull,
          0x192268089ccf3cbdull, 0xfdbaf8f8be3cef2full}},
        {"heartbeat-straddle-7.bfz",
         {0xa644555460055c32ull, 0x192268089ccf3cbdull,
          0xabfbeee7d2228553ull, 0x84b0d35ba5e491c5ull,
          0x192268089ccf3cbdull, 0x5ed6a3a32d790cd7ull}},
        {"heartbeat-straddle-9.bfz",
         {0x9ceb3a7307278da8ull, 0x192268089ccf3cbdull,
          0x968491e0f06434fdull, 0x360962969ff1cccaull,
          0x47672f11298df33dull, 0x192268089ccf3cbdull}},
        {"leak-fold-mono-333.bfz",
         {0x08d9887afe602f4bull, 0x5038576aad596ae1ull,
          0xd843e61814e29e05ull, 0x9343ed5e867f0884ull,
          0x192268089ccf3cbdull, 0x52d3bcdd58d6e10bull}},
        {"leak-launder+mut+mut+mut-329.bfz",
         {0x5fc4e19b9b112984ull, 0x192268089ccf3cbdull,
          0x2109e12425eb725full, 0x7e7ea9092b2a73c4ull,
          0x192268089ccf3cbdull, 0xac7fbea38bf9d53aull}},
        {"leak-launder+mut-327.bfz",
         {0x3e1bb1df9fc23fbfull, 0x192268089ccf3cbdull,
          0xb80c96c647c6d1fbull, 0xa48c694e1a9523a0ull,
          0x192268089ccf3cbdull, 0xef4e1226e9d010a7ull}},
        {"leak-launder-15.bfz",
         {0x983e18db54c6f9f6ull, 0xc4af4d2dbb54be15ull,
          0x7467836970987141ull, 0xbdc55372f55688b1ull,
          0x7f1277da05c77061ull, 0xd11e3fa92d151f0aull}},
        {"leak-launder-19.bfz",
         {0xcd16481455c3c6b5ull, 0x192268089ccf3cbdull,
          0x6a5e47ba3770c368ull, 0xbc4c118c6f15ee4full,
          0xba8daa6f25cf0f0bull, 0x4b20aadcead30747ull}},
        {"leak-launder-339.bfz",
         {0xd9dd5b18f92c6533ull, 0x192268089ccf3cbdull,
          0x4da61a2bdd4d808full, 0xf803f8504b5aa689ull,
          0x364b3a5dbfebf7eaull, 0x4aa07524f1cbb32dull}},
        {"lock-churn+mut-3.bfz",
         {0x6debd86b1308cf3dull, 0x192268089ccf3cbdull,
          0xb26027709871110bull, 0x7af371d0f71ece8aull,
          0x192268089ccf3cbdull, 0x192268089ccf3cbdull}},
        {"lock-churn-2.bfz",
         {0x6debd86b1308cf3dull, 0x192268089ccf3cbdull,
          0x04f9fc8b58cc3fd4ull, 0x03b4e3398077d26cull,
          0x192268089ccf3cbdull, 0x192268089ccf3cbdull}},
        {"racy-alloc-free-0.bfz",
         {0xf629e89ae08c1eccull, 0x192268089ccf3cbdull,
          0xdb864e2093831bc0ull, 0x35558f294c8f7c9aull,
          0xbe326919f2cad797ull, 0x1ef2f40e7b7aa3efull}},
        {"random-soup+mut-2.bfz",
         {0x9c8faa1f87a93675ull, 0x227e02984aaf91f4ull,
          0x89f6c1206e15342dull, 0xe8f7893fd7ff73fbull,
          0x192268089ccf3cbdull, 0x8bfe05ae294bbdcfull}},
        {"random-soup+mut-8.bfz",
         {0x5251d476afacbd75ull, 0x227e02984aaf91f4ull,
          0xccd1a14ad02270adull, 0x6071f9798e1e5f89ull,
          0x192268089ccf3cbdull, 0x8bfe05ae294bbdcfull}},
        {"random-soup-1.bfz",
         {0x44cd759f27427b35ull, 0x227e02984aaf91f4ull,
          0x49d3b16366c301edull, 0xe8f7893fd7ff73fbull,
          0x192268089ccf3cbdull, 0x8bfe05ae294bbdcfull}},
        {"random-soup-3.bfz",
         {0xb947403a1d15ea92ull, 0x1a7751ac87894b8eull,
          0xd77df2312803369eull, 0xdd544caeac9aaa0aull,
          0x192268089ccf3cbdull, 0x9c5a2ec0ea19d28dull}},
        {"taint-launder-5.bfz",
         {0xda8bbfb4159db03full, 0x838ec03ec76ff603ull,
          0x784406a7199001dcull, 0xf65c7466ebda3e7eull,
          0xde1564a2126a63a4ull, 0x192268089ccf3cbdull}},
        {"taint-launder-6.bfz",
         {0x2ff99ee13b8b37a2ull, 0x2ade7f445542b5b4ull,
          0xe47a34d70175ef2full, 0xf1b95c85e79512e9ull,
          0x40f328fd40f804cdull, 0x192268089ccf3cbdull}},
    };
    const std::vector<std::string> files = listCorpus(BFLY_CORPUS_DIR);
    ASSERT_EQ(files.size(), std::size(kPinned))
        << "every repro under " << BFLY_CORPUS_DIR << " needs a row";
    for (const std::string &path : files) {
        const std::string name =
            std::filesystem::path(path).filename().string();
        const Row *row = nullptr;
        for (const Row &r : kPinned)
            if (name == r.file)
                row = &r;
        ASSERT_NE(row, nullptr) << name << " has no pinned row";

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
            const service::RemoteReport report =
                service::analyzeReference(spec, trace, layout);
            EXPECT_EQ(report.fingerprint,
                      row->fingerprints[static_cast<std::size_t>(lg)])
                << name << " " << lifeguardName(lg);
        }
    }
}

TEST(CorpusReplay, TaintCheckCountsBudgetExhaustedChecksInBothModes)
{
    // kMaxResolvedPerCheck turns an exponential wing search into an
    // "assume tainted" answer. How often that happens must be visible —
    // through the driver, the per-block registry counter and the fuzz
    // outcome — and, like the report, independent of the schedule.
    const DifferentialRunner runner;
    const LifeguardEntry &entry = lifeguardEntry(Lifeguard::TaintCheck);
    WorkerPool pool(2);
    std::size_t exhausting = 0, within_budget = 0;
    for (const std::string &path : listCorpus(BFLY_CORPUS_DIR)) {
        const FuzzCase c = loadRepro(path);
        const Trace trace = c.materialize();
        const LifeguardParams params =
            c.lifeguardParams(Lifeguard::TaintCheck, trace.numThreads());
        auto budgetOf = [&](auto &&schedule) {
            const auto driver = entry.makeDriver(params);
            schedule(*driver);
            return dynamic_cast<const ButterflyTaintCheck &>(*driver)
                .budgetExhausted();
        };

        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, c.globalH);
        telemetry::MetricsRegistry registry;
        telemetry::setEnabled(true);
        const std::uint64_t walked = [&] {
            telemetry::ScopedRegistry scoped(&registry);
            return budgetOf(
                [&](AnalysisDriver &d) { WindowSchedule().run(layout, d); });
        }();
        telemetry::setEnabled(false);
        EXPECT_EQ(
            registry.snapshot().value("bfly.taintcheck.budget_exhausted"),
            walked)
            << path;

        const std::uint64_t graphed = budgetOf([&](AnalysisDriver &d) {
            EpochStream::Config cfg;
            cfg.globalH = c.globalH;
            EpochStream stream(trace, cfg);
            WindowSchedule(false, &pool).runPipelined(stream, d);
        });
        EXPECT_EQ(graphed, walked) << path;
        EXPECT_EQ(runner.run(c).budgetExhausted, walked) << path;
        (walked > 0 ? exhausting : within_budget) += 1;
    }
    EXPECT_GT(exhausting, 0u) << "no repro exhausts the budget";
    EXPECT_GT(within_budget, 0u);
}
#endif
