/**
 * @file
 * Telemetry master switch and lifecycle.
 *
 * The telemetry subsystem (metrics registry, span tracer, exporters) is
 * compiled in unconditionally but *disabled by default*: every
 * instrumentation site guards its recording with `telemetry::enabled()`,
 * a single relaxed atomic load, so the cost of a disabled build is one
 * predictable branch per instrumented block (never per event — hot loops
 * aggregate locally and flush per block/epoch).
 *
 * Naming scheme: every metric is a dot-path `bfly.<component>.<name>`
 * (e.g. `bfly.window.pass1_blocks`, `bfly.perf.app_stall_cycles`).
 * The JSON exporter nests snapshots by path component, so the metrics
 * file mirrors the component hierarchy. Trace spans use the hierarchy
 * session / epoch / thread / pass: the root `session` span encloses
 * per-epoch `window.epoch` spans, which enclose per-pass spans, which
 * enclose per-(thread, block) spans on their own timeline tracks.
 */

#ifndef BUTTERFLY_TELEMETRY_TELEMETRY_HPP
#define BUTTERFLY_TELEMETRY_TELEMETRY_HPP

#include <atomic>

namespace bfly::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/** Is telemetry recording on? Hot-path guard: one relaxed load. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn recording on/off process-wide. Registration is always allowed;
 *  only recording (adds, observes, span pushes) is gated. */
void setEnabled(bool on);

/**
 * Zero every metric value and drop every buffered trace event, keeping
 * interned names and metric registrations (so cached MetricIds held by
 * instrumentation sites stay valid). Call between sessions to scope one
 * export to one run.
 */
void resetAll();

} // namespace bfly::telemetry

#endif // BUTTERFLY_TELEMETRY_TELEMETRY_HPP
