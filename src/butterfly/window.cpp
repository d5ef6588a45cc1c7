#include "butterfly/window.hpp"

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/logging.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"

namespace bfly {

namespace {

/** Pre-interned names/ids for the schedule's telemetry (one-time). */
struct WindowTelemetry
{
    std::uint32_t epochSpan;
    std::uint32_t pass1Span;
    std::uint32_t pass2Span;
    std::uint32_t blockPass1Span;
    std::uint32_t blockPass2Span;
    std::uint32_t finalizeSpan;
    std::uint32_t admitSpan;
    std::uint32_t retireSpan;
    std::uint32_t epochArg;
    telemetry::MetricId epochsDone;
    telemetry::MetricId pass1Blocks;
    telemetry::MetricId pass2Blocks;
    telemetry::MetricId taskWaitNs;
    telemetry::MetricId taskRunNs;

    static const WindowTelemetry &
    get()
    {
        static const WindowTelemetry w = [] {
            auto &t = telemetry::tracer();
            auto &r = telemetry::registry();
            WindowTelemetry s;
            s.epochSpan = t.internName("window.epoch");
            s.pass1Span = t.internName("window.pass1");
            s.pass2Span = t.internName("window.pass2");
            s.blockPass1Span = t.internName("block.pass1");
            s.blockPass2Span = t.internName("block.pass2");
            s.finalizeSpan = t.internName("window.sos_update");
            s.admitSpan = t.internName("window.admit");
            s.retireSpan = t.internName("window.retire");
            s.epochArg = t.internName("epoch");
            s.epochsDone = r.counter("bfly.window.epochs_finalized");
            s.pass1Blocks = r.counter("bfly.window.pass1_blocks");
            s.pass2Blocks = r.counter("bfly.window.pass2_blocks");
            s.taskWaitNs = r.histogram("bfly.pipeline.task_wait_ns");
            s.taskRunNs = r.histogram("bfly.pipeline.task_run_ns");
            return s;
        }();
        return w;
    }
};

/**
 * The dependency task graph of one pipelined butterfly run.
 *
 * Tasks, for a trace of L epochs and T threads ("X <- Y" = X runs after
 * Y completes):
 *
 *   A(l)     admission, l in [0, L]. Acquires epoch l from the stream
 *            (l < L), then runs the driver's single-threaded beginPass
 *            hooks: beginPass(l, pass1) and, for l >= 1,
 *            beginPass(l-1, pass2) — the same order the sequential walk
 *            uses. The A chain is totally ordered (see edges), so the
 *            stream's cursors see in-order acquires from one task at a
 *            time.
 *   P1(l,t)  pass 1 of block (l, t).
 *   P2(l,t)  pass 2 of block (l, t).
 *   F(l)     finalizeEpoch(l) — the single-writer SOS fold.
 *   R(l)     retire epoch l's events from the stream.
 *
 * Edges:
 *   A(1)    <- P1(0,u) for all u          (head of the A chain)
 *   A(l)    <- F(l-2)            l >= 2   (the window: everything of
 *                                          epoch l-2 settles before l is
 *                                          admitted; also orders the A
 *                                          chain transitively)
 *   A(l)    <- R(l-3)            l >= 3   (ring-slot safety: epoch l's
 *                                          cell and the kWindow=4
 *                                          summary slots it overwrites
 *                                          are free)
 *   P1(l,t) <- A(l)
 *   P2(l,t) <- A(l+1)                     (covers F(l-1) and all
 *                                          P1(<=l, *) transitively)
 *   P2(l,t) <- P1(l+1,u), u != t, l+1 < L (the wings; excluding the
 *                                          block's own thread is what
 *                                          lets a heavy thread's pass 2
 *                                          overlap its own next pass 1;
 *                                          u == t is added too when the
 *                                          driver declares
 *                                          pass2ReadsOwnNextPass1())
 *   F(l)    <- F(l-1)            l >= 1   (SOS is single-writer, epoch
 *                                          order)
 *   F(l)    <- P2(l,t) for all t          [strict drivers only]
 *   F(l)    <- P1(l+1,t) for all t, l+1<L (anti-dependency: pass 1 of
 *                                          l+1 reads the SOS before F(l)
 *                                          advances it)
 *   F(0)    <- P1(0,t) for all t          [relaxed drivers, L == 1 only:
 *                                          no later pass-1 exists to
 *                                          order F(0) behind pass 1]
 *   R(l)    <- P2(l,t) for all t          (the last readers of epoch l's
 *                                          events)
 *   R(l)    <- R(l-1)            l >= 1   (in-order retirement)
 *
 * For strict drivers (finalizeAfterPass2() == true) the schedule admits
 * no reordering the sequential loop forbids, and every A(l) runs at a
 * quiescent point — only R tasks, which touch no driver state, can be in
 * flight — so beginPass may resize shared containers. For relaxed
 * drivers F(l) drops its P2 edges and pass 1 of epoch l+1 overlaps
 * pass 2 of epoch l-1 with no global synchronization.
 *
 * Execution: one atomic pending-prerequisite counter per task; a
 * finishing task decrements each successor and submits any that reach
 * zero to the worker pool. The acq_rel decrement makes every
 * prerequisite's writes visible to the task it releases.
 */
class GraphRunner
{
  public:
    GraphRunner(EpochStream &stream, AnalysisDriver &driver,
                WorkerPool &pool)
        : stream_(stream), driver_(driver), pool_(pool),
          L_(stream.numEpochs()), T_(stream.numThreads()),
          strict_(driver.finalizeAfterPass2()),
          ownNextP1_(driver.pass2ReadsOwnNextPass1()), p1Base_(L_ + 1),
          p2Base_(p1Base_ + L_ * T_), fBase_(p2Base_ + L_ * T_),
          rBase_(fBase_ + L_), total_(rBase_ + L_),
          traced_(telemetry::enabled()),
          w_(traced_ ? &WindowTelemetry::get() : nullptr), nodes_(total_),
          succ_(total_)
    {
        ensure(total_ <= UINT32_MAX, "pipelined task graph too large");
        buildEdges();
    }

    PipelineStats
    run()
    {
        // Collect the seeds (pending == 0) before submitting anything:
        // once a task runs, its completions decrement counters
        // concurrently with this scan and a task could be seen at zero
        // twice.
        std::vector<std::size_t> seeds;
        for (std::size_t id = 0; id < total_; ++id)
            if (nodes_[id].pending.load(std::memory_order_relaxed) == 0)
                seeds.push_back(id);
        for (std::size_t id : seeds) {
            nodes_[id].readyNs = traced_ ? telemetry::tracer().nowNs() : 0;
            pool_.submitTask(group_, &GraphRunner::trampoline, this, id);
        }
        // Per-run completion group: several pipelined runs (one per
        // monitoring-service session) may share one pool concurrently.
        pool_.waitGroup(group_);

        PipelineStats stats;
        stats.tasksRun = tasksRun_.load(std::memory_order_relaxed);
        stats.epochsFinalized = L_;
        stats.peakResidentEpochs = stream_.peakResidentEpochs();
        stats.producerStalls = stream_.producerStalls();
        return stats;
    }

  private:
    struct Node
    {
        std::atomic<std::uint32_t> pending{0};
        /** Stamped by the releasing task just before submission; read by
         *  the executing task (ordered by the pool's queue mutex). */
        std::uint64_t readyNs = 0;
    };

    std::size_t aId(EpochId l) const { return l; }
    std::size_t p1Id(EpochId l, std::size_t t) const
    {
        return p1Base_ + l * T_ + t;
    }
    std::size_t p2Id(EpochId l, std::size_t t) const
    {
        return p2Base_ + l * T_ + t;
    }
    std::size_t fId(EpochId l) const { return fBase_ + l; }
    std::size_t rId(EpochId l) const { return rBase_ + l; }

    void
    addEdge(std::size_t task, std::size_t prereq)
    {
        nodes_[task].pending.fetch_add(1, std::memory_order_relaxed);
        succ_[prereq].push_back(static_cast<std::uint32_t>(task));
    }

    void
    buildEdges()
    {
        for (EpochId l = 0; l <= L_; ++l) {
            if (l == 1)
                for (std::size_t u = 0; u < T_; ++u)
                    addEdge(aId(1), p1Id(0, u));
            if (l >= 2)
                addEdge(aId(l), fId(l - 2));
            if (l >= 3)
                addEdge(aId(l), rId(l - 3));
        }
        for (EpochId l = 0; l < L_; ++l)
            for (std::size_t t = 0; t < T_; ++t)
                addEdge(p1Id(l, t), aId(l));
        for (EpochId l = 0; l < L_; ++l) {
            for (std::size_t t = 0; t < T_; ++t) {
                addEdge(p2Id(l, t), aId(l + 1));
                if (l + 1 < L_)
                    for (std::size_t u = 0; u < T_; ++u)
                        if (u != t || ownNextP1_)
                            addEdge(p2Id(l, t), p1Id(l + 1, u));
            }
        }
        for (EpochId l = 0; l < L_; ++l) {
            if (l >= 1)
                addEdge(fId(l), fId(l - 1));
            if (strict_)
                for (std::size_t t = 0; t < T_; ++t)
                    addEdge(fId(l), p2Id(l, t));
            if (l + 1 < L_)
                for (std::size_t t = 0; t < T_; ++t)
                    addEdge(fId(l), p1Id(l + 1, t));
            if (!strict_ && L_ == 1)
                for (std::size_t t = 0; t < T_; ++t)
                    addEdge(fId(0), p1Id(0, t));
        }
        for (EpochId l = 0; l < L_; ++l) {
            for (std::size_t t = 0; t < T_; ++t)
                addEdge(rId(l), p2Id(l, t));
            if (l >= 1)
                addEdge(rId(l), rId(l - 1));
        }
    }

    static void
    trampoline(void *ctx, std::size_t id)
    {
        static_cast<GraphRunner *>(ctx)->execute(id);
    }

    void
    execute(std::size_t id)
    {
        std::uint64_t start = 0;
        if (traced_) {
            start = telemetry::tracer().nowNs();
            telemetry::registry().observe(w_->taskWaitNs,
                                          start - nodes_[id].readyNs);
        }
        runBody(id);
        if (traced_)
            telemetry::registry().observe(
                w_->taskRunNs, telemetry::tracer().nowNs() - start);
        tasksRun_.fetch_add(1, std::memory_order_relaxed);

        for (std::uint32_t s : succ_[id]) {
            if (nodes_[s].pending.fetch_sub(1,
                                            std::memory_order_acq_rel) ==
                1) {
                nodes_[s].readyNs =
                    traced_ ? telemetry::tracer().nowNs() : 0;
                pool_.submitTask(group_, &GraphRunner::trampoline, this,
                                 s);
            }
        }
    }

    void
    runBody(std::size_t id)
    {
        const std::uint32_t arg =
            traced_ ? w_->epochArg : telemetry::kNoMetric;
        if (id < p1Base_) {
            const EpochId l = id;
            telemetry::TraceSpan span(traced_ ? w_->admitSpan : 0, arg, l);
            if (l < L_) {
                stream_.acquire(l);
                driver_.beginPass(l, false);
            }
            if (l >= 1)
                driver_.beginPass(l - 1, true);
        } else if (id < p2Base_) {
            const std::size_t k = id - p1Base_;
            const EpochId l = k / T_;
            const ThreadId t = static_cast<ThreadId>(k % T_);
            if (traced_)
                telemetry::registry().add(w_->pass1Blocks);
            telemetry::TraceSpan span(traced_ ? w_->blockPass1Span : 0,
                                      arg, l);
            driver_.pass1(stream_.block(l, t));
        } else if (id < fBase_) {
            const std::size_t k = id - p2Base_;
            const EpochId l = k / T_;
            const ThreadId t = static_cast<ThreadId>(k % T_);
            if (traced_)
                telemetry::registry().add(w_->pass2Blocks);
            telemetry::TraceSpan span(traced_ ? w_->blockPass2Span : 0,
                                      arg, l);
            driver_.pass2(stream_.block(l, t));
        } else if (id < rBase_) {
            const EpochId l = id - fBase_;
            telemetry::TraceSpan span(traced_ ? w_->finalizeSpan : 0, arg,
                                      l);
            driver_.finalizeEpoch(l);
            if (traced_)
                telemetry::registry().add(w_->epochsDone);
        } else {
            const EpochId l = id - rBase_;
            telemetry::TraceSpan span(traced_ ? w_->retireSpan : 0, arg,
                                      l);
            stream_.retire(l);
        }
    }

    EpochStream &stream_;
    AnalysisDriver &driver_;
    WorkerPool &pool_;
    const std::size_t L_;
    const std::size_t T_;
    const bool strict_;
    const bool ownNextP1_;
    const std::size_t p1Base_;
    const std::size_t p2Base_;
    const std::size_t fBase_;
    const std::size_t rBase_;
    const std::size_t total_;
    const bool traced_;
    const WindowTelemetry *w_;
    std::vector<Node> nodes_;
    std::vector<std::vector<std::uint32_t>> succ_;
    TaskGroup group_;
    std::atomic<std::size_t> tasksRun_{0};
};

/** One pass over every block of epoch @p l of @p source. */
template <typename Source>
void
runPass(const Source &source, EpochId l, bool second,
        AnalysisDriver &driver)
{
    const std::size_t nthreads = source.numThreads();
    const bool traced = telemetry::enabled();
    const WindowTelemetry *w = traced ? &WindowTelemetry::get() : nullptr;

    driver.beginPass(l, second);
    if (traced)
        telemetry::registry().add(second ? w->pass2Blocks : w->pass1Blocks,
                                  nthreads);
    for (ThreadId t = 0; t < nthreads; ++t) {
        // The span lands on the calling thread's own track, as in the
        // pipelined schedule: a session's stage tasks run beside the
        // passes, so a fixed per-block track could have two writers.
        telemetry::TraceSpan span(
            traced ? (second ? w->blockPass2Span : w->blockPass1Span) : 0,
            traced ? w->epochArg : telemetry::kNoMetric, l);
        if (second)
            driver.pass2(source.block(l, t));
        else
            driver.pass1(source.block(l, t));
    }
}

/**
 * The sequential walk both run() overloads share. Step l acquires epoch
 * l (streams only), runs its pass 1, then pass 2 of epoch l-1, retires
 * l-1 (streams only) and folds it into the SOS; a last step settles the
 * final epoch, whose wings end at the trace boundary.
 */
template <typename Source>
void
walk(Source &source, AnalysisDriver &driver)
{
    constexpr bool streamed = std::is_same_v<Source, EpochStream>;
    const std::size_t nepochs = source.numEpochs();
    const bool traced = telemetry::enabled();
    const WindowTelemetry *w = traced ? &WindowTelemetry::get() : nullptr;
    const std::uint32_t arg = traced ? w->epochArg : telemetry::kNoMetric;

    auto settle = [&](EpochId l) {
        {
            telemetry::TraceSpan span(traced ? w->pass2Span : 0, arg, l);
            runPass(source, l, true, driver);
        }
        if constexpr (streamed) {
            telemetry::TraceSpan span(traced ? w->retireSpan : 0, arg, l);
            source.retire(l);
        }
        telemetry::TraceSpan span(traced ? w->finalizeSpan : 0, arg, l);
        driver.finalizeEpoch(l);
        if (traced)
            telemetry::registry().add(w->epochsDone);
    };

    for (EpochId l = 0; l < nepochs; ++l) {
        // One window step: pass 1 of epoch l, pass 2 + SOS of epoch l-1.
        telemetry::TraceSpan step(traced ? w->epochSpan : 0, arg, l);
        if constexpr (streamed) {
            telemetry::TraceSpan span(traced ? w->admitSpan : 0, arg, l);
            source.acquire(l);
        }
        {
            telemetry::TraceSpan span(traced ? w->pass1Span : 0, arg, l);
            runPass(source, l, false, driver);
        }
        // Steps 2-4: epoch l-1's wings (epochs l-2..l) are now summarized.
        if (l >= 1)
            settle(l - 1);
    }
    if (nepochs >= 1)
        settle(nepochs - 1);
}

} // namespace

void
WindowSchedule::run(const EpochLayout &layout, AnalysisDriver &driver) const
{
    walk(layout, driver);
}

void
WindowSchedule::run(EpochStream &stream, AnalysisDriver &driver) const
{
    walk(stream, driver);
}

PipelineStats
WindowSchedule::runPipelined(EpochStream &stream,
                             AnalysisDriver &driver) const
{
    ensure(pool_ != nullptr, "runPipelined needs a worker pool");
    if (stream.numEpochs() == 0)
        return PipelineStats{};
    GraphRunner runner(stream, driver, *pool_);
    return runner.run();
}

} // namespace bfly
