/**
 * @file
 * session-ocean: back-to-back runSession calls in one process.
 *
 * OCEAN, 4 threads, 100 000 instructions/thread, h = 2048, phaseEvents
 * 9000, warmupNops = 3h, SC; every other SessionConfig field keeps its
 * default (barrier schedule, scalar kernels, no elision). It is the only
 * workload that runs generation, interleave, epoch slicing, the oracle
 * and the perf model, and it runs ADDRCHECK pass 2 at full size. At
 * 100K instructions/thread the process stays near 100 MB resident
 * (400K climbed past 350 MB) and a run holds enough sessions for a
 * steady median.
 *
 * Sessions cycle over kSlots seeds derived from the run seed. The first
 * session of a slot is its reference; every later one must reproduce
 * its observables exactly, and every session must have zero false
 * negatives.
 */

#include <cstdio>
#include <optional>

#include <unistd.h>

#include "bench.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck_oracle.hpp"

namespace perfbench {

using namespace bfly;

namespace {

/** Seeds a run cycles over. Session cost varies with the OCEAN seed, so
 *  more slots make each run's median less a property of its seed. */
constexpr std::size_t kSlots = 12;
constexpr std::uint64_t kWorkloadStream = 1;
constexpr std::uint64_t kInterleaveStream = 2;

SessionConfig
oceanConfig(const Options &opt, std::size_t slot)
{
    SessionConfig c;
    c.factory = makeOcean;
    c.workload.numThreads = 4;
    c.workload.seed = deriveSeed(opt.seed, kWorkloadStream, slot);
    c.workload.instrPerThread = opt.tiny ? 6000 : 100000;
    c.workload.phaseEvents = opt.tiny ? 1500 : 9000;
    c.epochSize = opt.tiny ? 512 : 2048;
    c.workload.warmupNops = 3 * c.epochSize;
    c.model = MemModel::SequentiallyConsistent;
    c.interleaveSeed = deriveSeed(opt.seed, kInterleaveStream, slot);
    return c;
}

/** What one session produced: the flags, the accuracy against the
 *  oracle, the epoch structure and the simulated cycles of each mode. */
struct Observables
{
    std::uint64_t instructions = 0;
    std::uint64_t memoryAccesses = 0;
    std::uint64_t epochs = 0;
    std::uint64_t flags = 0;
    std::uint64_t oracleErrors = 0;
    std::uint64_t truePositives = 0;
    std::uint64_t falsePositives = 0;
    std::uint64_t falseNegatives = 0;
    std::uint64_t cycles[6] = {};

    bool
    operator==(const Observables &o) const
    {
        return fingerprint() == o.fingerprint();
    }

    std::uint64_t
    fingerprint() const
    {
        std::uint64_t h = kFnvBasis;
        for (const std::uint64_t v :
             {instructions, memoryAccesses, epochs, flags, oracleErrors,
              truePositives, falsePositives, falseNegatives})
            fnv(h, v);
        for (const std::uint64_t c : cycles)
            fnv(h, c);
        return h;
    }
};

Observables
observe(std::size_t instructions, std::size_t memory_accesses,
        std::size_t epochs, std::size_t flags, std::size_t oracle_errors,
        const AccuracyReport &acc, const PerfReport &perf)
{
    Observables o;
    o.instructions = instructions;
    o.memoryAccesses = memory_accesses;
    o.epochs = epochs;
    o.flags = flags;
    o.oracleErrors = oracle_errors;
    o.truePositives = acc.truePositives;
    o.falsePositives = acc.falsePositives;
    o.falseNegatives = acc.falseNegatives;
    o.cycles[0] = perf.sequentialBaseline;
    o.cycles[1] = perf.parallelNoMonitor.timing.totalCycles;
    o.cycles[2] = perf.timesliced.timing.totalCycles;
    o.cycles[3] = perf.butterfly.timing.totalCycles;
    o.cycles[4] = perf.butterflyPipelined.timing.totalCycles;
    o.cycles[5] = perf.dbiSoftware.timing.totalCycles;
    return o;
}

Observables
observe(const SessionResult &r)
{
    return observe(r.instructions, r.memoryAccesses, r.epochs,
                   r.butterflyErrorCount, r.oracleErrorCount, r.accuracy,
                   r.perf);
}

/** Per-session counts the traced rebuild reports beside its spans. */
struct RebuildCounts
{
    double blocks = 0;
    double epochs = 0;
    double falsePositives = 0;
};

/**
 * runSession rebuilt from its public calls, with a span around each:
 * factory -> interleave -> EpochLayout::byGlobalSeq -> ButterflyAddrCheck
 * (wrapped) under WindowSchedule::run -> AddrCheckOracle::runOnTrace ->
 * computePerformance. Must yield runSession's observables exactly.
 */
Observables
rebuiltSession(const SessionConfig &c, Tracer &tracer, std::uint64_t sid,
               RebuildCounts &counts)
{
    Scope root(tracer, "harness.session", -1, sid);
    const int parent = root.index();

    Workload workload = [&] {
        Scope span(tracer, "workloads.generate", parent, sid);
        return c.factory(c.workload);
    }();

    Rng rng(c.interleaveSeed);
    InterleaveConfig icfg;
    icfg.model = c.model;
    const Trace trace = [&] {
        Scope span(tracer, "memmodel.interleave", parent, sid);
        return interleave(workload.programs, icfg, rng);
    }();

    const EpochLayout layout = [&] {
        Scope span(tracer, "trace.epoch_slice", parent, sid);
        return EpochLayout::byGlobalSeq(trace,
                                        c.epochSize * trace.numThreads());
    }();

    AddrCheckConfig acfg;
    acfg.granularity = c.granularity;
    acfg.heapBase = workload.heapBase;
    acfg.heapLimit = workload.heapLimit;
    ButterflyAddrCheck butterfly(layout, acfg);
    {
        Scope span(tracer, "butterfly.run", parent, sid);
        TimedDriver timed(butterfly, tracer, span.index(), sid);
        WindowSchedule(false, nullptr).run(layout, timed);
        counts.blocks = static_cast<double>(timed.blocks());
    }

    AddrCheckOracle oracle(acfg);
    {
        Scope span(tracer, "lifeguards.oracle", parent, sid);
        oracle.runOnTrace(trace);
    }
    const AccuracyReport acc =
        compareToOracle(butterfly.errors(), oracle.errors(), acfg.granularity);

    PerfInputs pin;
    pin.trace = &trace;
    pin.layout = &layout;
    pin.butterfly = &butterfly;
    pin.addrcheck = acfg;
    pin.costs = c.costs;
    pin.logBufferBytes = c.logBufferBytes;
    const PerfReport perf = [&] {
        Scope span(tracer, "harness.perf_model", parent, sid);
        return computePerformance(pin);
    }();

    counts.epochs = static_cast<double>(layout.numEpochs());
    counts.falsePositives = static_cast<double>(acc.falsePositives);
    return observe(trace.instructionCount(), trace.memoryAccessCount(),
                   layout.numEpochs(), butterfly.errors().size(),
                   oracle.errors().size(), acc, perf);
}

} // namespace

Result
runSessionOcean(const Options &opt)
{
    Result result;

    // Set-up probes first, while this process is small (fork() copies
    // its page tables).
    std::vector<std::string> argv = {opt.selfBin, "--setup-probe",
                                     "--workload", opt.workload,
                                     "--seed", std::to_string(opt.seed)};
    if (opt.tiny)
        argv.push_back("--tiny");
    const double setup = timeSpawns(
        argv, kSetupRuns,
        [](pid_t, int fd) {
            char byte = 0;
            return ::read(fd, &byte, 1) == 1;
        },
        nullptr, nullptr);
    if (setup < 0)
        ++result.failed;

    std::vector<SessionConfig> configs;
    for (std::size_t s = 0; s < kSlots; ++s)
        configs.push_back(oceanConfig(opt, s));

    // The first session of each slot becomes its reference; slot 0's is
    // an untimed warm-up that also pays the process's cold start.
    std::vector<std::optional<Observables>> refs(kSlots);
    auto check = [&](const Observables &o, std::size_t slot) {
        ++result.attempted;
        if (!refs[slot])
            refs[slot] = o;
        if (o.falseNegatives != 0 || !(o == *refs[slot])) {
            ++result.failed;
            std::fprintf(stderr, "session-ocean: slot %zu diverged from "
                                 "its reference (FN=%llu)\n", slot,
                         static_cast<unsigned long long>(o.falseNegatives));
            return false;
        }
        return true;
    };
    check(observe(runSession(configs[0])), 0);
    if (opt.plantWrongReference)
        ++refs[0]->falsePositives;
    auto fingerprint = [&] {
        for (const auto &ref : refs)
            if (ref)
                fnv(result.fingerprint, ref->fingerprint());
    };

    std::vector<double> latency;
    std::vector<std::vector<double>> slotLatency(kSlots);
    double events = 0;
    const auto t0 = Clock::now();

    if (!opt.trace) {
        PeakRssSampler rssSampler(0);
        for (std::size_t i = 0;
             i < kSlots || secondsSince(t0) < opt.seconds; ++i) {
            const std::size_t slot = i % kSlots;
            const auto s0 = Clock::now();
            const SessionResult r = runSession(configs[slot]);
            latency.push_back(msBetween(s0, Clock::now()));
            slotLatency[slot].push_back(latency.back());
            if (check(observe(r), slot))
                events += static_cast<double>(r.instructions);
        }
        const double window = secondsSince(t0);
        const double rss = rssSampler.stop();
        fingerprint();

        const double q = tailQuantile(latency.size(), 0.75);
        result.set("events_per_s", events / window, "events/s");
        result.set("latency_p50_ms", median(latency), "ms");
        result.set("latency_tail_ms", quantile(latency, q), "ms");
        result.set("setup_s", setup, "s");
        result.set("peak_rss_mb", rss, "MB");
        result.notes["tail_percentile"] = std::to_string(100 * q);
        result.notes["sessions"] = std::to_string(latency.size());
        result.notes["window_s"] = std::to_string(window);
        std::string slots;
        for (const auto &v : slotLatency)
            slots += std::to_string(median(v)) + " ";
        result.notes["slot_p50_ms"] = slots;
        return result;
    }

    // Traced run: alternate a plain runSession with its traced rebuild
    // over the same slot, so the two medians share the host's drift.
    Tracer tracer;
    std::vector<double> plain, traced, blocks, epochs, fps;
    for (std::size_t i = 0; i < kSlots || secondsSince(t0) < opt.seconds;
         ++i) {
        const std::size_t slot = i % kSlots;
        auto s0 = Clock::now();
        check(observe(runSession(configs[slot])), slot);
        plain.push_back(msBetween(s0, Clock::now()));

        RebuildCounts counts;
        s0 = Clock::now();
        if (!check(rebuiltSession(configs[slot], tracer, i, counts), slot))
            std::fprintf(stderr, "session-ocean: traced rebuild does not "
                                 "reproduce runSession\n");
        traced.push_back(msBetween(s0, Clock::now()));
        blocks.push_back(counts.blocks);
        epochs.push_back(counts.epochs);
        fps.push_back(counts.falsePositives);
    }
    fingerprint();

    const auto ms = perSessionMs(tracer, /*self=*/false);
    auto med = [&](const char *span) {
        const auto it = ms.find(span);
        return it == ms.end() ? 0.0 : median(it->second);
    };
    result.set("harness.perf_model_ms", med("harness.perf_model"), "ms");
    result.set("butterfly.pass1_ms", med("butterfly.pass1"), "ms");
    result.set("butterfly.pass2_ms", med("butterfly.pass2"), "ms");
    result.set("butterfly.finalize_ms", med("butterfly.finalize"), "ms");
    result.set("butterfly.blocks", median(blocks), "count");
    result.set("lifeguards.oracle_ms", med("lifeguards.oracle"), "ms");
    result.set("lifeguards.false_positives", median(fps), "count");
    result.set("memmodel.interleave_ms", med("memmodel.interleave"), "ms");
    result.set("workloads.generate_ms", med("workloads.generate"), "ms");
    result.set("trace.epoch_slice_ms", med("trace.epoch_slice"), "ms");
    result.set("trace.epochs", median(epochs), "count");
    result.set("tracing.overhead_ms", median(traced) - median(plain), "ms");

    const auto self = perSessionMs(tracer, /*self=*/true);
    if (const auto it = self.find("harness.session"); it != self.end())
        result.notes["harness_self_ms"] = std::to_string(median(it->second));
    result.notes["traced_session_ms"] = std::to_string(median(traced));
    result.notes["plain_session_ms"] = std::to_string(median(plain));
    result.notes["sessions"] = std::to_string(plain.size() + traced.size());
    if (!opt.outDir.empty())
        tracer.writeChrome(opt.outDir + "/session-ocean.trace.json");
    return result;
}

} // namespace perfbench
