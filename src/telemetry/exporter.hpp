/**
 * @file
 * Telemetry exporters.
 *
 *  - writeMetricsJson: the metrics registry snapshot as a JSON tree,
 *    nested by the dots of the `bfly.<component>.<name>` naming scheme
 *    (histograms become {count, sum, mean, min, max, buckets} objects).
 *    This is the format the BENCH_*.json trajectory and the monitor CLI
 *    `--telemetry` flag emit.
 *  - writeChromeTrace: buffered complete (span) events in the Chrome
 *    trace-event JSON array format — load in chrome://tracing or
 *    Perfetto. Events are sorted by (pid, ts); process-name metadata
 *    labels the wall-clock and simulated-cycle clock domains.
 */

#ifndef BUTTERFLY_TELEMETRY_EXPORTER_HPP
#define BUTTERFLY_TELEMETRY_EXPORTER_HPP

#include <ostream>
#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"

namespace bfly::telemetry {

/** Serialize @p snap as a nested JSON object. */
void writeMetricsJson(std::ostream &os, const RegistrySnapshot &snap);

/** Snapshot the global registry and serialize it. */
void writeMetricsJson(std::ostream &os);

/** Serialize the global tracer's buffered events as a Chrome trace. */
void writeChromeTrace(std::ostream &os);

/** Write the metrics JSON to @p path. @return false on I/O failure. */
bool dumpMetricsJson(const std::string &path);

/** Write the Chrome trace JSON to @p path. @return false on failure. */
bool dumpChromeTrace(const std::string &path);

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(std::string_view s);

} // namespace bfly::telemetry

#endif // BUTTERFLY_TELEMETRY_EXPORTER_HPP
