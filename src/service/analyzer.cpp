#include "service/analyzer.hpp"

#include "butterfly/window.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace bfly::service {

namespace {

/** Events the session's stream copied for blocks that straddle a
 *  heartbeat marker (interned once; valid in every session registry). */
telemetry::MetricId
copiedEventsMetric()
{
    static const telemetry::MetricId id =
        telemetry::registry().counter("bfly.service.session.copied_events");
    return id;
}

/**
 * Construct the requested lifeguard, run @p drive over it, and collect
 * the canonical report. @p drive receives the driver and returns the
 * streaming peak-residency (0 for materialized runs).
 */
template <typename DriveFn>
RemoteReport
runLifeguard(const SessionSpec &spec, std::size_t num_threads,
             std::size_t num_epochs, DriveFn &&drive)
{
    const LifeguardEntry &lg =
        lifeguardEntry(static_cast<Lifeguard>(spec.lifeguard));
    LifeguardParams params;
    params.numThreads = num_threads;
    params.heapBase = spec.heapBase;
    params.heapLimit = spec.heapLimit;
    params.granularity = spec.granularity;
    params.termination = spec.memModel == 1
                             ? TaintTermination::Relaxed
                             : TaintTermination::SequentialConsistency;
    const std::unique_ptr<AnalysisDriver> driver = lg.makeDriver(params);

    RemoteReport report;
    report.epochs = num_epochs;
    report.peakResidentEpochs = drive(*driver);
    LifeguardReport canonical = lg.report(*driver, num_epochs);
    // The Summary frame's single u64 already witnesses the full report
    // (records and SOS are also streamed and compared field-by-field).
    report.fingerprint = canonical.digest();
    report.records = std::move(canonical.records);
    report.sos = std::move(canonical.sos);
    return report;
}

} // namespace

bool
RemoteReport::identical(const RemoteReport &other) const
{
    return records == other.records && sos == other.sos &&
           fingerprint == other.fingerprint && epochs == other.epochs &&
           events == other.events;
}

RemoteReport
analyzeStreaming(const SessionSpec &spec, const Trace &trace,
                 WorkerPool & /*pool*/,
                 const EpochStream::ReslicePolicy &reslice,
                 std::vector<std::uint32_t> *realized_spans)
{
    EpochStream::Config cfg;
    cfg.windowEpochs = spec.windowEpochs;
    cfg.fromHeartbeats = true;
    cfg.reslice = reslice;
    EpochStream stream(trace, cfg);
    if (realized_spans)
        *realized_spans = stream.realizedSpans();

    RemoteReport report = runLifeguard(
        spec, trace.numThreads(), stream.numEpochs(),
        [&](AnalysisDriver &driver) {
            WindowSchedule().run(stream, driver);
            return stream.peakResidentEpochs();
        });
    report.events = trace.instructionCount();
    if (telemetry::enabled())
        telemetry::registry().add(copiedEventsMetric(),
                                  stream.copiedEvents());
    return report;
}

RemoteReport
analyzeReference(const SessionSpec &spec, const Trace &trace,
                 const EpochLayout &layout)
{
    RemoteReport report = runLifeguard(
        spec, layout.numThreads(), layout.numEpochs(),
        [&](AnalysisDriver &driver) {
            WindowSchedule().run(layout, driver);
            return std::size_t{0};
        });
    report.events = trace.instructionCount();
    return report;
}

} // namespace bfly::service
