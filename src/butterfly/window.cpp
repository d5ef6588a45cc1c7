#include "butterfly/window.hpp"

#include <cstdint>
#include <type_traits>

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
            return s;
        }();
        return w;
    }
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
        // The span lands on the calling thread's own track: a session's
        // stage tasks run beside the passes, so a fixed per-block track
        // could have two writers.
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

void
WindowSchedule::runPipelined(EpochStream &stream,
                             AnalysisDriver &driver) const
{
    run(stream, driver);
}

} // namespace bfly
