#include "harness/session.hpp"

#include "butterfly/window.hpp"
#include "common/logging.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"
#include "trace/log_codec.hpp"

namespace bfly {

namespace {

/** Pre-interned session metric ids (registration is one-time). */
struct SessionMetrics
{
    telemetry::MetricId runs;
    telemetry::MetricId instructions;
    telemetry::MetricId memoryAccesses;
    telemetry::MetricId epochs;
    telemetry::MetricId threads;
    telemetry::MetricId butterflyErrors;
    telemetry::MetricId oracleErrors;
    telemetry::MetricId falsePositives;
    telemetry::MetricId falseNegatives;

    static const SessionMetrics &
    get()
    {
        static const SessionMetrics m = [] {
            auto &r = telemetry::registry();
            SessionMetrics s;
            s.runs = r.counter("bfly.session.runs");
            s.instructions = r.gauge("bfly.session.instructions");
            s.memoryAccesses = r.gauge("bfly.session.memory_accesses");
            s.epochs = r.gauge("bfly.session.epochs");
            s.threads = r.gauge("bfly.session.threads");
            s.butterflyErrors = r.gauge("bfly.session.butterfly_errors");
            s.oracleErrors = r.gauge("bfly.session.oracle_errors");
            s.falsePositives = r.gauge("bfly.session.false_positives");
            s.falseNegatives = r.gauge("bfly.session.false_negatives");
            return s;
        }();
        return m;
    }
};

/**
 * Pool threads for the stage graph. Its widest point is the oracle, the
 * perf model's four application-half tasks and the block pricing; with
 * the session thread running the butterfly analysis, three workers fill
 * a four-core box, and the session thread helps with what is left once
 * its run ends (waitGroup executes queued tasks).
 */
constexpr std::size_t kStageWorkers = 3;

/** Run @p body as one task of @p group; @p body must outlive it. */
template <typename Body>
void
submitStage(WorkerPool &pool, TaskGroup &group, Body &body)
{
    pool.submitTask(
        group,
        [](void *stage, std::size_t) { (*static_cast<Body *>(stage))(); },
        &body, 0);
}

/**
 * Waits for a group's tasks when it goes out of scope. Declared after
 * everything the tasks use, it keeps an exception leaving runSession
 * from destroying state a stage still reads.
 */
class StageJoin
{
  public:
    StageJoin(WorkerPool &pool, TaskGroup &group)
        : pool_(pool), group_(group)
    {}
    ~StageJoin() { pool_.waitGroup(group_); }
    StageJoin(const StageJoin &) = delete;
    StageJoin &operator=(const StageJoin &) = delete;

  private:
    WorkerPool &pool_;
    TaskGroup &group_;
};

} // namespace

SessionResult
runSession(const SessionConfig &config)
{
    ensure(config.factory != nullptr, "session needs a workload factory");

    // Root telemetry scope: everything below nests inside this span.
    telemetry::TraceSpan root("session");

    SessionResult result;

    // 1. Generate the workload and execute it under the memory model.
    Workload workload = [&] {
        telemetry::TraceSpan span("session.generate");
        return config.factory(config.workload);
    }();

    // 1b. Static elision pre-pass: classify the kernels' emitting sites
    // (pseudo-sites fill in for anything the generator left unstamped)
    // and build the plan the log-generation step will consult.
    staticpass::ElisionPlan plan;
    if (config.elide) {
        telemetry::TraceSpan span("session.staticpass");
        staticpass::assignPseudoSites(workload.programs, workload.sites);
        staticpass::ClassifyOptions copt;
        copt.granularity = config.granularity;
        plan = staticpass::classifySites(workload.programs, workload.sites,
                                         copt, &result.siteClasses);
        result.planFingerprint = plan.fingerprint();
    }

    // Nothing reads the programs after this, so they move into the
    // trace instead of being copied, and the interleaver emits the
    // execution order as it stamps it: no sort.
    Rng rng(config.interleaveSeed);
    InterleaveConfig icfg;
    icfg.model = config.model;
    std::vector<GseqRef> order;
    Trace trace = [&] {
        telemetry::TraceSpan span("session.interleave");
        return interleave(std::move(workload.programs), icfg, rng, &order);
    }();

    // The monitored stream: what the application actually logs. With
    // elision on, AlwaysPrivate Read/Write events never reach the log —
    // only their SiteSummary stand-ins do. The oracle below still
    // replays the full trace.
    Trace elided;
    if (config.elide) {
        telemetry::TraceSpan span("session.elide");
        elided = staticpass::applyElisionPlan(trace, plan, &result.elision);
    }
    const Trace &monitored = config.elide ? elided : trace;

    AddrCheckConfig acfg;
    acfg.granularity = config.granularity;
    acfg.heapBase = workload.heapBase;
    acfg.heapLimit = workload.heapLimit;

    // 2. Start the stages that read only the trace (DESIGN.md §6,
    // "Session stage graph"): the exact oracle over the full trace, and
    // the perf model's application-half tasks over the monitored one.
    // They run on the pool while this thread slices the epochs and runs
    // the butterfly analysis. The two share the interleaver's order
    // unless elision makes them read different traces. Every buffer a
    // stage fills is allocated here, on the session thread; the stages
    // only fill them.
    const std::vector<GseqRef> elidedOrder =
        config.elide ? elided.gseqOrder() : std::vector<GseqRef>{};
    AddrCheckOracle oracle(acfg);
    PerfInputs pin;
    pin.trace = &monitored; // priced on what the log actually carries
    pin.addrcheck = acfg;
    pin.costs = config.costs;
    pin.logBufferBytes = config.logBufferBytes;
    AppPerformance app(pin, config.elide ? elidedOrder : order);

    // One pool per session runs the stage graph.
    WorkerPool pool(kStageWorkers);
    TaskGroup stages;
    // Ground truth from the exact oracle over the true interleaving.
    auto oracleStage = [&] {
        telemetry::TraceSpan span("session.oracle");
        oracle.runInOrder(trace, order);
    };
    const StageJoin join(pool, stages);
    app.submit(pool, stages); // longest first
    submitStage(pool, stages, oracleStage);

    // 3. Slice into heartbeat epochs.
    // Heartbeats fire after h*n instructions of global progress (the
    // prototype's mechanism, Section 7.1), so the epoch structure is
    // time-like: stalled threads contribute empty blocks.
    EpochLayout layout = [&] {
        telemetry::TraceSpan span("session.epoch_slice");
        return EpochLayout::byGlobalSeq(
            monitored, config.epochSize * monitored.numThreads());
    }();

    // The butterfly half's layout-only stage, beside the butterfly run.
    // Its own group, joined before the layout it reads is destroyed.
    pin.layout = &layout;
    BlockPricing blocks(app, pin);
    TaskGroup blockStage;
    const StageJoin blockJoin(pool, blockStage);
    blocks.submit(pool, blockStage);

    // 4. Functional butterfly ADDRCHECK run, on this thread.
    ButterflyAddrCheck butterfly(layout, acfg);
    {
        telemetry::TraceSpan span("session.butterfly");
        WindowSchedule().run(layout, butterfly);
    }
    pool.waitGroup(stages);
    pool.waitGroup(blockStage);

    if (config.elide) {
        const auto encodedBytes = [](const Trace &t) {
            std::size_t n = 0;
            for (const ThreadTrace &tt : t.threads)
                n += encodeEvents(tt.events).size();
            return n;
        };
        result.encodedBytesFull = encodedBytes(trace);
        result.encodedBytesMonitored = encodedBytes(monitored);
    }

    result.workloadName = workload.name;
    result.threads = trace.numThreads();
    result.instructions = order.size();
    result.memoryAccesses = oracle.memoryAccesses();
    result.epochs = layout.numEpochs();
    result.butterflyErrorCount = butterfly.errors().size();
    result.oracleErrorCount = oracle.errors().size();
    result.accuracy = compareToOracle(butterfly.errors(), oracle.errors(),
                                      acfg.granularity);
    result.falsePositiveRate =
        result.accuracy.falsePositiveRate(result.memoryAccesses);

    // 5. Timing for every monitoring mode: the rest of the butterfly
    // half, on top of the stages the pool ran.
    pin.butterfly = &butterfly;
    {
        telemetry::TraceSpan span("session.perf_model");
        result.perf = priceButterfly(app, blocks, pin);
    }

    if (telemetry::enabled()) {
        const SessionMetrics &m = SessionMetrics::get();
        auto &reg = telemetry::registry();
        reg.add(m.runs);
        reg.set(m.instructions, result.instructions);
        reg.set(m.memoryAccesses, result.memoryAccesses);
        reg.set(m.epochs, result.epochs);
        reg.set(m.threads, result.threads);
        reg.set(m.butterflyErrors, result.butterflyErrorCount);
        reg.set(m.oracleErrors, result.oracleErrorCount);
        reg.set(m.falsePositives, result.accuracy.falsePositives);
        reg.set(m.falseNegatives, result.accuracy.falseNegatives);
    }
    return result;
}

} // namespace bfly
