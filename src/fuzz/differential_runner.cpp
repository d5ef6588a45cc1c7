#include "fuzz/differential_runner.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/taintcheck.hpp"
#include "staticpass/classify.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"
#include "trace/epoch_slicer.hpp"

namespace bfly::fuzz {

namespace {

const char *const kModeNames[] = {"sequential", "pipelined-stream"};
const char *const kInvariantNames[] = {"mode-equivalence",
                                       "oracle-subsumption",
                                       "fp-monotonicity",
                                       "elision-soundness"};

/** Pre-interned fuzz metric ids. */
struct FuzzMetrics
{
    telemetry::MetricId cases;
    telemetry::MetricId events;
    telemetry::MetricId violations;

    static const FuzzMetrics &
    get()
    {
        static const FuzzMetrics m = [] {
            auto &r = telemetry::registry();
            FuzzMetrics f;
            f.cases = r.counter("bfly.fuzz.cases");
            f.events = r.counter("bfly.fuzz.events");
            f.violations = r.counter("bfly.fuzz.violations");
            return f;
        }();
        return m;
    }
};

std::string
diffReports(const LifeguardReport &seq, const LifeguardReport &other)
{
    std::ostringstream os;
    os << "records " << seq.records.size() << " vs "
       << other.records.size();
    const std::size_t n =
        std::min(seq.records.size(), other.records.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (seq.records[i] != other.records[i]) {
            os << "; first diff at " << i << ": "
               << seq.records[i].toString() << " vs "
               << other.records[i].toString();
            return os.str();
        }
    }
    if (seq.records.size() != other.records.size()) {
        const auto &longer = seq.records.size() > other.records.size()
                                 ? seq.records
                                 : other.records;
        os << "; extra: " << longer[n].toString();
    } else if (seq.sos != other.sos) {
        os << "; SOS sizes " << seq.sos.size() << " vs "
           << other.sos.size();
    } else if (seq.fingerprint != other.fingerprint) {
        os << "; dataflow fingerprints differ";
    }
    return os.str();
}

/** Drop records of @p kind (the FaultPlan's corruption primitive). */
void
dropKind(LifeguardReport &report, ErrorKind kind)
{
    report.records.erase(
        std::remove_if(report.records.begin(), report.records.end(),
                       [&](const ErrorRecord &r) {
                           return r.kind == kind;
                       }),
        report.records.end());
}

/** Per-case execution context shared by the mode runs. */
struct CaseContext
{
    const FuzzCase &c;
    const Trace &trace;
    const EpochLayout &layout;

    LifeguardParams
    params(Lifeguard lg) const
    {
        return c.lifeguardParams(lg, layout.numThreads());
    }
};

/** Drive @p driver over the case in @p mode. */
void
drive(const CaseContext &ctx, RunMode mode, AnalysisDriver &driver)
{
    switch (mode) {
      case RunMode::Sequential:
        WindowSchedule().run(ctx.layout, driver);
        break;
      case RunMode::PipelinedStream: {
        EpochStream::Config cfg;
        cfg.globalH = ctx.c.globalH;
        EpochStream stream(ctx.trace, cfg);
        WorkerPool pool(std::max<std::size_t>(1, ctx.trace.numThreads()));
        WindowSchedule(false, &pool).runPipelined(stream, driver);
        break;
      }
    }
}

/** @p lg's report over the case in @p mode. For TAINTCHECK, also adds
 *  its budget-exhausted checks to @p budget_exhausted if given. */
LifeguardReport
runLifeguard(const CaseContext &ctx, const LifeguardEntry &lg, RunMode mode,
             std::size_t *budget_exhausted = nullptr)
{
    const std::unique_ptr<AnalysisDriver> driver =
        lg.makeDriver(ctx.params(lg.id));
    drive(ctx, mode, *driver);
    if (budget_exhausted)
        if (const auto *taint =
                dynamic_cast<const ButterflyTaintCheck *>(driver.get()))
            *budget_exhausted += taint->budgetExhausted();
    return lg.report(*driver, ctx.layout.numEpochs());
}

/** @p lg's false positives at epoch size @p global_h (sequential),
 *  counted the way its registry entry says. */
std::size_t
falsePositivesAt(const CaseContext &ctx, const LifeguardEntry &lg,
                 std::size_t global_h, const ErrorLog &oracle_log)
{
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(ctx.trace, global_h);
    const LifeguardReport report =
        runLifeguard({ctx.c, ctx.trace, layout}, lg, RunMode::Sequential);
    if (lg.fpCounting == FpCounting::PerEvent)
        return compareToOracle(ErrorLog(report.records), oracle_log,
                               lg.defaultGranularity)
            .falsePositives;

    std::size_t fp = 0; // FpCounting::PerVariable
    for (const ErrorRecord &rec : report.records) {
        fp += std::ranges::none_of(oracle_log.records(),
                                   [&](const ErrorRecord &o) {
                                       return o.addr == rec.addr;
                                   });
    }
    return fp;
}

} // namespace

const char *
runModeName(RunMode mode)
{
    return kModeNames[static_cast<unsigned>(mode)];
}

const char *
invariantName(Invariant inv)
{
    return kInvariantNames[static_cast<unsigned>(inv)];
}

std::string
Violation::toString() const
{
    std::string out = std::string(invariantName(invariant)) + " [" +
                      lifeguardName(lifeguard) + "]";
    if (invariant == Invariant::ModeEquivalence)
        out += std::string(" (") + runModeName(mode) + ")";
    if (!detail.empty())
        out += ": " + detail;
    return out;
}

CaseOutcome
DifferentialRunner::run(const FuzzCase &c) const
{
    const FuzzMetrics &metrics = FuzzMetrics::get();
    telemetry::TraceSpan span("fuzz.case");

    CaseOutcome outcome;
    outcome.events = c.totalEvents();

    const Trace trace = [&] {
        telemetry::TraceSpan s("fuzz.materialize");
        return c.materialize();
    }();
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(trace, c.globalH);
    outcome.epochs = layout.numEpochs();

    const CaseContext ctx{c, trace, layout};

    LifeguardReport sequential[std::size(kAllLifeguards)];
    for (Lifeguard lg : kAllLifeguards) {
        telemetry::TraceSpan s("fuzz.lifeguard", "lifeguard",
                               static_cast<std::uint64_t>(lg));
        const LifeguardEntry &entry = lifeguardEntry(lg);
        LifeguardReport &seq = sequential[static_cast<std::size_t>(lg)];
        seq = runLifeguard(ctx, entry, RunMode::Sequential,
                           &outcome.budgetExhausted);
        if (config_.fault.corrupts(lg, RunMode::Sequential))
            dropKind(seq, config_.fault.dropKind);

        if (config_.checkModeEquivalence) {
            for (RunMode mode : kAllModes) {
                if (mode == RunMode::Sequential)
                    continue;
                LifeguardReport r = runLifeguard(ctx, entry, mode);
                if (config_.fault.corrupts(lg, mode))
                    dropKind(r, config_.fault.dropKind);
                if (r != seq)
                    outcome.violations.push_back(
                        {Invariant::ModeEquivalence, lg, mode,
                         diffReports(seq, r)});
            }
        }
    }

    outcome.butterflyErrors =
        sequential[static_cast<std::size_t>(Lifeguard::AddrCheck)]
            .records.size();

    // Oracle errors per lifeguard; empty for one without an oracle.
    ErrorLog oracles[std::size(kAllLifeguards)];
    if (config_.checkOracleSubsumption || config_.checkFpMonotonicity ||
        config_.checkElision) {
        telemetry::TraceSpan s("fuzz.oracles");
        for (Lifeguard lg : kAllLifeguards) {
            const LifeguardEntry &entry = lifeguardEntry(lg);
            if (!entry.oracle)
                continue;
            const auto li = static_cast<std::size_t>(lg);
            oracles[li] = entry.oracle(trace, ctx.params(lg));
            outcome.oracleErrors += oracles[li].size();

            const AccuracyReport acc = compareToOracle(
                ErrorLog(sequential[li].records), oracles[li],
                entry.defaultGranularity);
            if (lg == Lifeguard::AddrCheck)
                outcome.falsePositives = acc.falsePositives;
            if (config_.checkOracleSubsumption &&
                acc.falseNegatives != 0) {
                std::ostringstream os;
                os << acc.falseNegatives << " of " << oracles[li].size()
                   << " oracle errors missed";
                outcome.violations.push_back({Invariant::OracleSubsumption,
                                              lg, RunMode::Sequential,
                                              os.str()});
            }
        }

        // Elision axis: classify deterministic pseudo-sites, elide, and
        // prove the elided run still misses nothing the full-trace
        // oracle flags. The oracle always replays the *unelided* trace,
        // so every clean case is a per-case zero-FN certificate.
        if (config_.checkElision) {
            telemetry::TraceSpan es("fuzz.elision");
            Trace stamped = trace;
            staticpass::SiteTable sites;
            const staticpass::ElisionPlan plan =
                staticpass::buildElisionPlan(stamped, sites);
            staticpass::ElisionStats estats;
            const Trace elided =
                staticpass::applyElisionPlan(stamped, plan, &estats);
            outcome.elidedEvents = estats.elidedEvents;
            outcome.summaryEvents = estats.summaryEvents;

            const EpochLayout elayout =
                EpochLayout::byGlobalSeq(elided, c.globalH);
            const CaseContext ectx{c, elided, elayout};
            for (Lifeguard lg : kAllLifeguards) {
                const LifeguardEntry &entry = lifeguardEntry(lg);
                if (!entry.oracle)
                    continue;
                const ErrorLog &oracle =
                    oracles[static_cast<std::size_t>(lg)];
                LifeguardReport r =
                    runLifeguard(ectx, entry, RunMode::Sequential);
                if (config_.fault.corrupts(lg, RunMode::Sequential))
                    dropKind(r, config_.fault.dropKind);
                const AccuracyReport acc = compareToOracle(
                    ErrorLog(r.records), oracle, entry.defaultGranularity);
                if (acc.falseNegatives != 0) {
                    std::ostringstream os;
                    os << acc.falseNegatives << " of " << oracle.size()
                       << " oracle errors missed after eliding "
                       << estats.elidedEvents << " events";
                    outcome.violations.push_back(
                        {Invariant::ElisionSoundness, lg,
                         RunMode::Sequential, os.str()});
                }
            }
        }
    }

    if (config_.checkFpMonotonicity && config_.monotonicityFactor > 1) {
        telemetry::TraceSpan s("fuzz.monotonicity");
        const std::size_t large_h = c.globalH * config_.monotonicityFactor;
        for (Lifeguard lg : kAllLifeguards) {
            const LifeguardEntry &entry = lifeguardEntry(lg);
            if (entry.fpCounting == FpCounting::Unchecked)
                continue;
            const ErrorLog &oracle = oracles[static_cast<std::size_t>(lg)];
            const std::size_t fp_small =
                falsePositivesAt(ctx, entry, c.globalH, oracle);
            const std::size_t fp_large =
                falsePositivesAt(ctx, entry, large_h, oracle);
            if (fp_small > fp_large) {
                std::ostringstream os;
                os << "FP(H=" << c.globalH << ")=" << fp_small
                   << " > FP(H=" << large_h << ")=" << fp_large;
                outcome.violations.push_back({Invariant::FpMonotonicity,
                                              lg, RunMode::Sequential,
                                              os.str()});
            }
        }
    }

    auto &reg = telemetry::registry();
    reg.add(metrics.cases, 1);
    reg.add(metrics.events, outcome.events);
    reg.add(metrics.violations, outcome.violations.size());
    return outcome;
}

} // namespace bfly::fuzz
