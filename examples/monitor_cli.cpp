/**
 * @file
 * monitor_cli: drive the whole monitoring stack from the command line.
 *
 *   monitor_cli [--workload NAME] [--threads N] [--epoch H]
 *               [--instr N] [--model sc|tso] [--seed S] [--verbose]
 *               [--telemetry OUT.json] [--trace OUT.trace.json]
 *
 * Runs the chosen workload under the chosen memory model, monitors it
 * with butterfly ADDRCHECK, prices all three monitoring modes with the
 * timing model, and prints a session report. `--workload list` prints
 * the available workloads.
 *
 * `--lifeguard NAME` switches to any other registered lifeguard that
 * has a sequential oracle (taintcheck, definedcheck, lockset, addrleak):
 * fuzzer-generated traces (--instr cases, --seed) are monitored by the
 * butterfly checker and replayed through the exact sequential oracle,
 * and the aggregate accuracy (flags, true/false positives, false
 * negatives) is printed. Exit is nonzero on any false negative — the
 * butterfly guarantee is "no error missed".
 *
 * `--elide` runs the static elision pre-pass (src/staticpass/) first:
 * sites proven AlwaysPrivate log SiteSummary counts instead of their
 * Read/Write events. The oracle still replays the full trace, so the
 * printed accuracy section doubles as the zero-false-negative check,
 * and the elision section reports the plan fingerprint, site classes,
 * events elided and log bytes saved.
 *
 * `--telemetry` writes the metrics-registry snapshot as nested JSON;
 * `--trace` writes a Chrome trace-event file of the session (load it in
 * chrome://tracing or https://ui.perfetto.dev — pid 0 is wall-clock,
 * pid 1 the simulated butterfly pipeline in cycles). Either flag turns
 * telemetry recording on for the run.
 *
 * Examples:
 *   ./build/examples/monitor_cli --workload ocean --threads 8
 *   ./build/examples/monitor_cli --workload barnes --epoch 16384 --model tso
 *   ./build/examples/monitor_cli --workload fft --trace fft.trace.json
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "butterfly/window.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "harness/session.hpp"
#include "lifeguards/registry.hpp"
#include "telemetry/exporter.hpp"

namespace {

/** "addrcheck|taintcheck|..." over the lifeguards with an oracle. */
std::string
oracleLifeguardNames()
{
    std::string names;
    for (bfly::Lifeguard lg : bfly::kAllLifeguards) {
        const bfly::LifeguardEntry &entry = bfly::lifeguardEntry(lg);
        if (!entry.oracle)
            continue;
        if (!names.empty())
            names += '|';
        for (const char *p = entry.name; *p; ++p)
            names += static_cast<char>(
                std::tolower(static_cast<unsigned char>(*p)));
    }
    return names;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--workload NAME] [--threads N] [--epoch H]\n"
        "          [--instr N] [--model sc|tso] [--seed S] [--verbose]\n"
        "          [--lifeguard %s]\n"
        "          [--elide] [--telemetry OUT.json]\n"
        "          [--trace OUT.trace.json]\n"
        "       %s --workload list\n",
        argv0, oracleLifeguardNames().c_str(), argv0);
    std::exit(2);
}

/**
 * Fuzzer-driven accuracy session for any lifeguard with an oracle:
 * monitor @p cases generated traces with the butterfly checker, replay
 * each through the exact sequential oracle, and aggregate
 * compareToOracle. The butterfly run may over-report (bounded FPs) but
 * must never miss an oracle error.
 */
int
runFuzzedLifeguard(const bfly::LifeguardEntry &lifeguard,
                   std::size_t cases, std::uint64_t seed)
{
    using namespace bfly;

    fuzz::FuzzerConfig fcfg;
    fcfg.seed = seed;
    fuzz::TraceFuzzer fuzzer(fcfg);

    std::size_t events = 0, oracle_errors = 0, flags = 0;
    std::size_t tp = 0, fp = 0, fn = 0;
    for (std::size_t i = 0; i < cases; ++i) {
        const fuzz::FuzzCase c = fuzzer.generate(seed * 1000003 + i);
        const Trace trace = c.materialize();
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, c.globalH);
        events += trace.instructionCount();

        const LifeguardParams params =
            c.lifeguardParams(lifeguard.id, layout.numThreads());
        const std::unique_ptr<AnalysisDriver> driver =
            lifeguard.makeDriver(params);
        WindowSchedule().run(layout, *driver);
        const ErrorLog flagged(
            lifeguard.report(*driver, layout.numEpochs()).records);
        const ErrorLog oracle = lifeguard.oracle(trace, params);
        const AccuracyReport acc =
            compareToOracle(flagged, oracle, params.granularity);

        oracle_errors += oracle.size();
        flags += flagged.size();
        tp += acc.truePositives;
        fp += acc.falsePositives;
        fn += acc.falseNegatives;
    }

    std::printf("monitoring %zu fuzzed traces with butterfly %s\n", cases,
                lifeguard.name);
    std::printf("\n-- accuracy (butterfly vs sequential oracle) ------\n");
    std::printf("events            %zu\n", events);
    std::printf("oracle errors     %zu\n", oracle_errors);
    std::printf("butterfly flags   %zu\n", flags);
    std::printf("true positives    %zu\n", tp);
    std::printf("false positives   %zu\n", fp);
    std::printf("false negatives   %zu  (provably zero)\n", fn);
    return fn == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bfly;

    std::string workload = "ocean";
    unsigned threads = 4;
    std::size_t epoch = 8192;
    std::size_t instr = 200000;
    MemModel model = MemModel::SequentiallyConsistent;
    std::uint64_t seed = 42;
    bool verbose = false;
    bool elide = false;
    const LifeguardEntry *lifeguard = &lifeguardEntry(Lifeguard::AddrCheck);
    std::string telemetry_out;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--threads") {
            threads = static_cast<unsigned>(std::atoi(next()));
        } else if (arg == "--epoch") {
            epoch = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--instr") {
            instr = static_cast<std::size_t>(std::atoll(next()));
        } else if (arg == "--seed") {
            seed = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--model") {
            const std::string m = next();
            if (m == "sc")
                model = MemModel::SequentiallyConsistent;
            else if (m == "tso")
                model = MemModel::TSO;
            else
                usage(argv[0]);
        } else if (arg == "--lifeguard") {
            lifeguard = findLifeguard(next());
            if (!lifeguard || !lifeguard->oracle)
                usage(argv[0]);
        } else if (arg == "--telemetry") {
            telemetry_out = next();
        } else if (arg == "--trace") {
            trace_out = next();
        } else if (arg == "--elide") {
            elide = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else {
            usage(argv[0]);
        }
    }

    if (lifeguard->id != Lifeguard::AddrCheck) {
        // Fuzzer-driven accuracy session; --instr caps the case count
        // (its workload meaning, instructions/thread, does not apply).
        const std::size_t cases =
            instr == 200000 ? 20 : std::max<std::size_t>(instr, 1);
        return runFuzzedLifeguard(*lifeguard, cases, seed);
    }

    if (workload == "list") {
        for (const auto &[name, factory] : paperWorkloads())
            std::printf("%s\n", name.c_str());
        std::printf("random-mix\ntaint-mix\n");
        return 0;
    }

    WorkloadFactory factory = nullptr;
    for (const auto &[name, fn] : paperWorkloads()) {
        if (name == workload)
            factory = fn;
    }
    if (workload == "random-mix")
        factory = makeRandomMix;
    if (workload == "taint-mix")
        factory = makeTaintMix;
    if (!factory) {
        std::fprintf(stderr, "unknown workload '%s' (try --workload "
                             "list)\n",
                     workload.c_str());
        return 2;
    }

    SessionConfig cfg;
    cfg.factory = factory;
    cfg.workload.numThreads = threads;
    cfg.workload.instrPerThread = instr;
    cfg.workload.phaseEvents = 9000;
    cfg.workload.warmupNops = 3 * epoch;
    cfg.workload.seed = seed;
    cfg.epochSize = epoch;
    cfg.model = model;
    cfg.interleaveSeed = seed * 7919 + 1;
    cfg.elide = elide;

    std::printf("monitoring %s: %u threads, h=%zu, %s, ~%zu "
                "events/thread\n",
                workload.c_str(), threads, epoch,
                model == MemModel::TSO ? "TSO" : "SC", instr);

    const bool want_telemetry = !telemetry_out.empty() || !trace_out.empty();
    if (want_telemetry) {
        telemetry::setEnabled(true);
        telemetry::resetAll();
    }

    const SessionResult r = runSession(cfg);

    if (!telemetry_out.empty()) {
        if (telemetry::dumpMetricsJson(telemetry_out))
            std::printf("wrote metrics JSON to %s\n", telemetry_out.c_str());
        else
            std::fprintf(stderr, "failed to write %s\n",
                         telemetry_out.c_str());
    }
    if (!trace_out.empty()) {
        if (telemetry::dumpChromeTrace(trace_out))
            std::printf("wrote Chrome trace to %s (open in "
                        "chrome://tracing or ui.perfetto.dev)\n",
                        trace_out.c_str());
        else
            std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
    }

    std::printf("\n-- trace ----------------------------------------\n");
    std::printf("instructions      %zu\n", r.instructions);
    std::printf("memory accesses   %zu\n", r.memoryAccesses);
    std::printf("epochs            %zu\n", r.epochs);

    if (elide) {
        std::printf("\n-- static elision --------------------------------\n");
        std::printf("plan fingerprint  %016llx\n",
                    static_cast<unsigned long long>(r.planFingerprint));
        std::printf("sites             %zu (%zu always-private, %zu "
                    "provably-untainted, %zu never-freed, %zu "
                    "must-monitor)\n",
                    r.siteClasses.sites, r.siteClasses.byClass[3],
                    r.siteClasses.byClass[2], r.siteClasses.byClass[1],
                    r.siteClasses.byClass[0]);
        std::printf("events elided     %llu of %llu (%.1f%%), %llu "
                    "summaries\n",
                    static_cast<unsigned long long>(r.elision.elidedEvents),
                    static_cast<unsigned long long>(r.elision.inputEvents),
                    100.0 * r.elision.elidedFraction(),
                    static_cast<unsigned long long>(
                        r.elision.summaryEvents));
        std::printf("log bytes         %zu -> %zu (%.1f%% saved)\n",
                    r.encodedBytesFull, r.encodedBytesMonitored,
                    r.encodedBytesFull
                        ? 100.0 *
                              (1.0 - static_cast<double>(
                                         r.encodedBytesMonitored) /
                                         r.encodedBytesFull)
                        : 0.0);
    }

    std::printf("\n-- accuracy (butterfly ADDRCHECK vs oracle) ------\n");
    std::printf("oracle errors     %zu\n", r.oracleErrorCount);
    std::printf("butterfly flags   %zu\n", r.butterflyErrorCount);
    std::printf("true positives    %zu\n", r.accuracy.truePositives);
    std::printf("false positives   %zu  (%.5f%% of accesses)\n",
                r.accuracy.falsePositives, 100.0 * r.falsePositiveRate);
    std::printf("false negatives   %zu  (provably zero)\n",
                r.accuracy.falseNegatives);

    std::printf("\n-- performance (normalized to sequential "
                "unmonitored) --\n");
    std::printf("timesliced        %.2fx\n",
                r.perf.timesliced.normalized);
    std::printf("butterfly         %.2fx\n",
                r.perf.butterfly.normalized);
    std::printf("parallel no-mon   %.2fx\n",
                r.perf.parallelNoMonitor.normalized);

    if (verbose) {
        std::printf("\n-- detail ----------------------------------\n");
        std::printf("sequential baseline  %llu cycles\n",
                    static_cast<unsigned long long>(
                        r.perf.sequentialBaseline));
        std::printf("butterfly app stalls %llu cycles\n",
                    static_cast<unsigned long long>(
                        r.perf.butterfly.timing.appStallCycles));
        std::printf("barrier wait         %llu cycles\n",
                    static_cast<unsigned long long>(
                        r.perf.butterfly.timing.barrierWaitCycles));
        const CacheStats &cs = r.perf.cacheStats;
        const std::pair<const char *, std::uint64_t> cache_lines[] = {
            {"coherence.invalidations", cs.coherenceInvalidations},
            {"l1.hits", cs.l1Hits},
            {"l1.misses", cs.l1Misses},
            {"l2.hits", cs.l2Hits},
            {"l2.misses", cs.l2Misses},
        };
        for (const auto &[name, value] : cache_lines)
            std::printf("%-20s %llu\n", name,
                        static_cast<unsigned long long>(value));
    }
    return r.accuracy.falseNegatives == 0 ? 0 : 1;
}
