/**
 * @file
 * Span tracing: RAII TraceSpan guards writing into per-thread lock-free
 * ring buffers, exported as Chrome trace-event JSON (load the file in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * Two clock domains, rendered as two Chrome "processes":
 *  - pid 0 ("wall-clock"): nanoseconds from std::chrono::steady_clock,
 *    relative to the tracer epoch — real time spent in each pipeline
 *    stage (passes, barriers, oracle, perf model);
 *  - pid 1 ("simulated-pipeline"): *simulated cycles* from the LBA
 *    timing model, one cycle rendered as one microsecond — the paper's
 *    butterfly pipeline (per-lifeguard pass-1/pass-2 spans, barriers,
 *    SOS updates) as a timeline.
 *
 * Concurrency model: each ring has a single writer. A thread's wall-clock
 * spans go to the ring of its *logical tid*, auto-assigned on first use
 * and never shared between live threads (a thread's tid is reused only
 * after it exits, so a process may start any number of short-lived
 * threads over its life); simulated-pipeline events name their
 * track explicitly and are written from one thread once the pool is idle.
 * Rings overwrite their oldest events on wrap; the drop count is
 * reported in the export. collect() is meant for quiescent points
 * (after joins / end of session).
 */

#ifndef BUTTERFLY_TELEMETRY_TRACE_SPAN_HPP
#define BUTTERFLY_TELEMETRY_TRACE_SPAN_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace bfly::telemetry {

/** One buffered trace event (fixed-size, POD). */
struct TraceEvent
{
    std::uint64_t ts = 0;  ///< ns (pid 0) or cycles (pid 1)
    std::uint64_t dur = 0; ///< same unit as ts
    std::uint64_t argValue = 0;
    std::uint32_t name = 0;            ///< interned
    std::uint32_t argName = kNoMetric; ///< interned; kNoMetric = no arg
    std::uint16_t tid = 0;
    std::uint8_t pid = 0;
};

/** A collected event with names resolved (export/test-friendly). */
struct ResolvedEvent
{
    std::string name;
    std::string argName; ///< empty if no arg
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint64_t argValue = 0;
    std::uint16_t tid = 0;
    std::uint8_t pid = 0;
    bool hasArg = false;
};

/** Per-thread rings + name table + clock epoch. */
class SpanTracer
{
  public:
    static constexpr std::uint8_t kWallPid = 0;
    static constexpr std::uint8_t kSimPid = 1;
    static constexpr std::uint16_t kMaxTids = 256;

    /** @param ring_capacity  events per ring; rounded up to a power of
     *  two, minimum 16 */
    explicit SpanTracer(std::size_t ring_capacity = std::size_t{1} << 15);
    ~SpanTracer();

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    std::uint32_t internName(std::string_view name);

    /** Nanoseconds since the tracer epoch (monotonic). */
    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch_)
                .count());
    }

    /** Push a complete ('X') event. No-op when telemetry is disabled. */
    void complete(std::uint32_t name, std::uint64_t ts, std::uint64_t dur,
                  std::uint8_t pid, std::uint16_t tid,
                  std::uint32_t arg_name = kNoMetric,
                  std::uint64_t arg_value = 0);

    /**
     * Snapshot all buffered events, names resolved, sorted by (pid, ts).
     * Intended for quiescent points; concurrent writers may race their
     * newest events in or out of the snapshot.
     */
    std::vector<ResolvedEvent> collect() const;

    /** Events lost to ring wrap or tid exhaustion since last clear(). */
    std::uint64_t dropped() const;

    /** Drop all buffered events and reset the clock epoch and drop
     *  count. Interned names and tid assignments survive. */
    void clear();

    std::size_t ringCapacity() const { return capacity_; }

    /** Current thread's logical tid (auto-assigns on first call; the
     *  tid is freed for another thread when this one exits). */
    static std::uint16_t currentTid();

  private:
    struct Ring
    {
        explicit Ring(std::size_t capacity) : buf(capacity) {}
        std::vector<TraceEvent> buf;
        std::atomic<std::uint64_t> head{0}; ///< total events ever pushed
    };

    Ring *ringFor(std::uint16_t tid);
    void push(const TraceEvent &event);

    const std::size_t capacity_; ///< power of two
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_; // guards ring allocation + interner
    Interner names_;
    std::vector<std::atomic<Ring *>> rings_; // kMaxTids slots
    std::atomic<std::uint64_t> droppedTidless_{0};

    friend class TraceSpan;
};

/** The process-wide tracer all spans write into. */
SpanTracer &tracer();

/**
 * RAII span: captures the start time at construction and pushes one
 * complete event into the current thread's ring at destruction. When
 * telemetry is disabled at construction the guard is inert.
 */
class TraceSpan
{
  public:
    /** Slow path: interns @p name (fine at per-epoch granularity). */
    explicit TraceSpan(std::string_view name);
    TraceSpan(std::string_view name, std::string_view arg_name,
              std::uint64_t arg_value);

    /** Fast path for cached interned ids. */
    explicit TraceSpan(std::uint32_t name_id,
                       std::uint32_t arg_name_id = kNoMetric,
                       std::uint64_t arg_value = 0);

    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    std::uint64_t start_ = 0;
    std::uint64_t argValue_ = 0;
    std::uint32_t name_ = 0;
    std::uint32_t argName_ = kNoMetric;
    bool active_ = false;
};

} // namespace bfly::telemetry

#endif // BUTTERFLY_TELEMETRY_TRACE_SPAN_HPP
