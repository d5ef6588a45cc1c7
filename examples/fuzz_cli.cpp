/**
 * @file
 * Differential fuzzing CLI: generate adversarial traces, cross-check
 * every lifeguard in both run modes against the sequential
 * oracles, and minimize + persist any invariant violation as a .bfz
 * repro.
 *
 *   fuzz_cli [--seed S|from-run-id] [--traces N] [--budget-sec T]
 *            [--threads K] [--no-tso] [--corpus DIR] [--json FILE]
 *            [--telemetry FILE] [--replay DIR] [--export-cases N]
 *            [--elision]
 *
 * --elision enables the elision-soundness axis: every case (generated
 * or replayed from the .bfz corpus) is additionally run with a static
 * ElisionPlan applied, and the elided run must still subsume the
 * sequential oracles computed on the full trace. Failures are
 * minimized and promoted into the corpus like any other violation.
 *
 * Exit status: 0 if every case satisfied every invariant, 1 on the
 * first violation (after the minimized repro has been written and its
 * path printed), 2 on usage errors.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "fuzz/corpus.hpp"
#include "fuzz/differential_runner.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/telemetry.hpp"

using namespace bfly;
using namespace bfly::fuzz;

namespace {

struct Options
{
    std::uint64_t seed = 1;
    std::size_t traces = 500;     ///< 0 = unbounded (budget-limited)
    double budgetSec = 0;         ///< 0 = unbounded (trace-limited)
    unsigned maxThreads = 4;
    bool allowTso = true;
    std::string corpusDir = "fuzz-corpus";
    std::string jsonPath;
    std::string telemetryPath;
    std::string replayDir;        ///< replay mode instead of fuzzing
    std::size_t exportCases = 0;  ///< export first N cases, no checking
    bool injectFault = false;     ///< self-test: simulate a lifeguard bug
    bool elision = false;         ///< also check elision soundness
};

void
usage()
{
    std::cerr
        << "usage: fuzz_cli [options]\n"
        << "  --seed S|from-run-id  fuzzer seed (from-run-id derives it\n"
        << "                        from $GITHUB_RUN_ID, else the clock)\n"
        << "  --traces N            stop after N cases (default 500)\n"
        << "  --budget-sec T        stop after T seconds\n"
        << "  --threads K           max threads per case (default 4)\n"
        << "  --no-tso              sequentially consistent cases only\n"
        << "  --corpus DIR          where minimized repros are written\n"
        << "  --json FILE           write a JSON summary\n"
        << "  --telemetry FILE      write a Chrome-trace span dump\n"
        << "  --replay DIR          re-check every .bfz repro in DIR\n"
        << "  --export-cases N      serialize the first N generated\n"
        << "                        cases into --corpus and exit\n"
        << "  --inject-fault        self-test: corrupt ADDRCHECK's\n"
        << "                        report so the violation, minimizer\n"
        << "                        and repro paths demonstrably fire\n"
        << "  --elision             also apply a static ElisionPlan per\n"
        << "                        case and require the elided run to\n"
        << "                        subsume the full-trace oracles\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--seed") {
            const char *v = next();
            if (!v)
                return false;
            if (std::strcmp(v, "from-run-id") == 0) {
                if (const char *run = std::getenv("GITHUB_RUN_ID"))
                    opt.seed = std::strtoull(run, nullptr, 10);
                else
                    opt.seed = static_cast<std::uint64_t>(
                        std::chrono::system_clock::now()
                            .time_since_epoch()
                            .count());
                if (opt.seed == 0)
                    opt.seed = 1;
            } else {
                opt.seed = std::strtoull(v, nullptr, 0);
            }
        } else if (a == "--traces") {
            const char *v = next();
            if (!v)
                return false;
            opt.traces = std::strtoull(v, nullptr, 10);
        } else if (a == "--budget-sec") {
            const char *v = next();
            if (!v)
                return false;
            opt.budgetSec = std::strtod(v, nullptr);
        } else if (a == "--threads") {
            const char *v = next();
            if (!v)
                return false;
            opt.maxThreads =
                static_cast<unsigned>(std::strtoul(v, nullptr, 10));
        } else if (a == "--no-tso") {
            opt.allowTso = false;
        } else if (a == "--corpus") {
            const char *v = next();
            if (!v)
                return false;
            opt.corpusDir = v;
        } else if (a == "--json") {
            const char *v = next();
            if (!v)
                return false;
            opt.jsonPath = v;
        } else if (a == "--telemetry") {
            const char *v = next();
            if (!v)
                return false;
            opt.telemetryPath = v;
            telemetry::setEnabled(true);
        } else if (a == "--replay") {
            const char *v = next();
            if (!v)
                return false;
            opt.replayDir = v;
        } else if (a == "--export-cases") {
            const char *v = next();
            if (!v)
                return false;
            opt.exportCases = std::strtoull(v, nullptr, 10);
        } else if (a == "--inject-fault") {
            opt.injectFault = true;
        } else if (a == "--elision") {
            opt.elision = true;
        } else {
            std::cerr << "fuzz_cli: unknown option " << a << "\n";
            return false;
        }
    }
    return true;
}

/** Rolling tallies across the whole run. */
struct Summary
{
    std::uint64_t seed = 0;
    std::size_t cases = 0;
    std::size_t events = 0;
    std::size_t oracleErrors = 0;
    std::size_t falsePositives = 0;
    std::size_t violations = 0;
    std::size_t elidedEvents = 0;  ///< --elision: events elided
    std::size_t summaryEvents = 0; ///< --elision: summaries emitted
    /** TAINTCHECK checks that fell back to "assume tainted" when their
     *  search ran out of budget (sequential mode only). */
    std::size_t budgetExhausted = 0;
    double elapsedSec = 0;
    std::string failingRepro; ///< path of the minimized repro, if any
    std::string firstViolation;

    void
    writeJson(std::ostream &os) const
    {
        os << "{\n"
           << "  \"seed\": " << seed << ",\n"
           << "  \"cases\": " << cases << ",\n"
           << "  \"events\": " << events << ",\n"
           << "  \"oracle_errors\": " << oracleErrors << ",\n"
           << "  \"false_positives\": " << falsePositives << ",\n"
           << "  \"violations\": " << violations << ",\n"
           << "  \"elided_events\": " << elidedEvents << ",\n"
           << "  \"summary_events\": " << summaryEvents << ",\n"
           << "  \"budget_exhausted\": " << budgetExhausted << ",\n"
           << "  \"elapsed_sec\": " << elapsedSec << ",\n"
           << "  \"failing_repro\": \"" << failingRepro << "\",\n"
           << "  \"first_violation\": \"" << firstViolation << "\"\n"
           << "}\n";
    }
};

void
writeOutputs(const Options &opt, const Summary &summary)
{
    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        summary.writeJson(out);
    }
    if (!opt.telemetryPath.empty()) {
        std::ofstream out(opt.telemetryPath);
        telemetry::writeChromeTrace(out);
    }
}

/** Minimize @p failing, persist the repro, and report. @return repro
 *  path (empty if it could not be written). */
std::string
persistFailure(const FuzzCase &failing, const DifferentialRunner &runner,
               const std::string &corpus_dir)
{
    TraceMinimizer minimizer(runner);
    const TraceMinimizer::Result min = minimizer.minimize(failing);
    const FuzzCase &repro = min.reproduced ? min.minimized : failing;

    std::error_code ec;
    std::filesystem::create_directories(corpus_dir, ec);
    const std::string path =
        (std::filesystem::path(corpus_dir) / reproFileName(repro))
            .string();
    if (!saveRepro(repro, path)) {
        std::cerr << "fuzz_cli: failed to write repro to " << path
                  << "\n";
        return {};
    }
    std::cerr << "fuzz_cli: minimized " << min.fromEvents << " -> "
              << min.toEvents << " events (" << min.probes
              << " probes)\n"
              << "fuzz_cli: repro written to " << path << "\n";
    return path;
}

int
replayCorpus(const Options &opt)
{
    RunnerConfig rcfg;
    rcfg.checkElision = opt.elision;
    const DifferentialRunner runner(rcfg);
    Summary summary;
    summary.seed = opt.seed;
    const auto t0 = std::chrono::steady_clock::now();

    const std::vector<std::string> files = listCorpus(opt.replayDir);
    if (files.empty()) {
        std::cerr << "fuzz_cli: no .bfz repros under " << opt.replayDir
                  << "\n";
        return 2;
    }
    int status = 0;
    for (const std::string &path : files) {
        FuzzCase c;
        try {
            c = loadRepro(path);
        } catch (const std::exception &e) {
            std::cerr << "fuzz_cli: " << path << ": " << e.what()
                      << "\n";
            status = 2;
            continue;
        }
        const CaseOutcome outcome = runner.run(c);
        ++summary.cases;
        summary.events += outcome.events;
        summary.oracleErrors += outcome.oracleErrors;
        summary.falsePositives += outcome.falsePositives;
        summary.violations += outcome.violations.size();
        summary.elidedEvents += outcome.elidedEvents;
        summary.summaryEvents += outcome.summaryEvents;
        summary.budgetExhausted += outcome.budgetExhausted;
        if (!outcome.clean()) {
            std::cerr << "fuzz_cli: REPLAY FAILURE " << path << ": "
                      << outcome.violations.front().toString() << "\n";
            if (summary.firstViolation.empty())
                summary.firstViolation =
                    outcome.violations.front().toString();
            // Promote the (re-)minimized failure into the corpus so the
            // repro reflects the axis that actually fired.
            summary.failingRepro =
                persistFailure(c, runner, opt.corpusDir);
            if (summary.failingRepro.empty())
                summary.failingRepro = path;
            status = 1;
        } else {
            std::cout << "fuzz_cli: replay ok " << path << " ("
                      << outcome.events << " events";
            if (opt.elision)
                std::cout << ", " << outcome.elidedEvents << " elided";
            std::cout << ")\n";
        }
    }
    summary.elapsedSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    writeOutputs(opt, summary);
    std::cout << "fuzz_cli: replayed " << summary.cases << " repros, "
              << summary.violations << " violations\n";
    return status;
}

int
exportCases(const Options &opt)
{
    TraceFuzzer fuzzer({opt.seed, opt.maxThreads, 240, opt.allowTso});
    std::error_code ec;
    std::filesystem::create_directories(opt.corpusDir, ec);
    for (std::size_t i = 0; i < opt.exportCases; ++i) {
        const FuzzCase c = fuzzer.next();
        const std::string path =
            (std::filesystem::path(opt.corpusDir) / reproFileName(c))
                .string();
        if (!saveRepro(c, path)) {
            std::cerr << "fuzz_cli: failed to write " << path << "\n";
            return 2;
        }
        std::cout << "fuzz_cli: exported " << path << " ("
                  << c.totalEvents() << " events)\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    if (opt.traces == 0 && opt.budgetSec <= 0) {
        std::cerr << "fuzz_cli: need --traces or --budget-sec\n";
        return 2;
    }
    if (!opt.replayDir.empty())
        return replayCorpus(opt);
    if (opt.exportCases > 0)
        return exportCases(opt);

    FuzzerConfig fcfg;
    fcfg.seed = opt.seed;
    fcfg.maxThreads = opt.maxThreads;
    fcfg.allowTso = opt.allowTso;
    TraceFuzzer fuzzer(fcfg);
    RunnerConfig rcfg;
    rcfg.checkElision = opt.elision;
    if (opt.injectFault) {
        rcfg.fault.enabled = true;
        rcfg.fault.target = Lifeguard::AddrCheck;
        rcfg.fault.dropKind = ErrorKind::UnallocatedAccess;
        // Corrupt only the stream walk's reports (the service's path),
        // so the fault must surface as a mode-equivalence violation.
        rcfg.fault.modeMask = modeBit(RunMode::Stream);
    }
    const DifferentialRunner runner(rcfg);

    Summary summary;
    summary.seed = opt.seed;
    const auto t0 = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    std::cout << "fuzz_cli: seed=" << opt.seed
              << " traces=" << opt.traces
              << " budget-sec=" << opt.budgetSec << "\n";

    int status = 0;
    while ((opt.traces == 0 || summary.cases < opt.traces) &&
           (opt.budgetSec <= 0 || elapsed() < opt.budgetSec)) {
        const FuzzCase c = fuzzer.next();
        const CaseOutcome outcome = runner.run(c);
        ++summary.cases;
        summary.events += outcome.events;
        summary.oracleErrors += outcome.oracleErrors;
        summary.falsePositives += outcome.falsePositives;
        summary.violations += outcome.violations.size();
        summary.elidedEvents += outcome.elidedEvents;
        summary.summaryEvents += outcome.summaryEvents;
        summary.budgetExhausted += outcome.budgetExhausted;

        if (!outcome.clean()) {
            summary.firstViolation =
                outcome.violations.front().toString();
            std::cerr << "fuzz_cli: VIOLATION in case " << c.caseId
                      << " (" << c.scenario
                      << "): " << summary.firstViolation << "\n";
            summary.failingRepro =
                persistFailure(c, runner, opt.corpusDir);
            status = 1;
            break;
        }
        if (summary.cases % 100 == 0)
            std::cout << "fuzz_cli: " << summary.cases << " cases, "
                      << summary.events << " events, "
                      << summary.oracleErrors << " oracle errors, "
                      << summary.falsePositives << " FPs, 0 violations\n";
    }

    summary.elapsedSec = elapsed();
    writeOutputs(opt, summary);

    std::cout << "fuzz_cli: done: " << summary.cases << " cases, "
              << summary.events << " events in " << summary.elapsedSec
              << "s; " << summary.violations << " violations\n";
    if (opt.elision)
        std::cout << "fuzz_cli: elision: " << summary.elidedEvents
                  << " events elided into " << summary.summaryEvents
                  << " summaries"
                  << (status == 0 ? ", oracle subsumption held on every case"
                                  : "")
                  << "\n";
    if (status != 0 && !summary.failingRepro.empty())
        std::cout << "fuzz_cli: repro: " << summary.failingRepro << "\n";
    return status;
}
