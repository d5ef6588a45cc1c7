#include "telemetry/exporter.hpp"

#include <cstdio>
#include <fstream>
#include <string_view>
#include <vector>

namespace bfly::telemetry {

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void
resetAll()
{
    registry().clear();
    tracer().clear();
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace {

void
indentTo(std::ostream &os, unsigned depth)
{
    for (unsigned i = 0; i < depth; ++i)
        os << "  ";
}

void
writeHistogram(std::ostream &os, const HistogramSnapshot &h,
               unsigned depth)
{
    os << "{\n";
    indentTo(os, depth + 1);
    os << "\"count\": " << h.count << ",\n";
    indentTo(os, depth + 1);
    os << "\"sum\": " << h.sum << ",\n";
    indentTo(os, depth + 1);
    os << "\"mean\": " << h.mean() << ",\n";
    indentTo(os, depth + 1);
    os << "\"min\": " << h.min << ",\n";
    indentTo(os, depth + 1);
    os << "\"max\": " << h.max << ",\n";
    indentTo(os, depth + 1);
    os << "\"buckets\": [";
    bool first = true;
    for (unsigned b = 0; b < HistogramSnapshot::kBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "{\"lo\": " << (std::uint64_t{1} << b)
           << ", \"count\": " << h.buckets[b] << "}";
    }
    os << "]\n";
    indentTo(os, depth);
    os << "}";
}

/**
 * Emit the metrics whose names share the dot-prefix [begin, end) as one
 * JSON object, recursing on the next path component. Metrics are sorted
 * by name, so every subtree is a contiguous range. A name that is both
 * a leaf and a prefix of deeper names keeps its leaf value under the
 * component key suffixed with "#value".
 */
void
writeSubtree(std::ostream &os, const std::vector<MetricSnapshot> &metrics,
             std::size_t begin, std::size_t end, std::size_t prefix_len,
             unsigned depth)
{
    os << "{";
    bool first = true;
    std::size_t i = begin;
    while (i < end) {
        const std::string &name = metrics[i].name;
        std::string_view rest =
            std::string_view(name).substr(prefix_len);
        const std::size_t dot = rest.find('.');
        const std::string_view comp =
            dot == std::string_view::npos ? rest : rest.substr(0, dot);

        // The subtree of metrics sharing this component.
        std::size_t j = i;
        bool has_leaf = false;
        bool has_children = false;
        while (j < end) {
            std::string_view jrest =
                std::string_view(metrics[j].name).substr(prefix_len);
            if (jrest.substr(0, comp.size()) != comp)
                break;
            if (jrest.size() == comp.size())
                has_leaf = true;
            else if (jrest[comp.size()] == '.')
                has_children = true;
            else
                break; // shared prefix but different component
            ++j;
        }

        if (!first)
            os << ",";
        first = false;

        if (has_leaf) {
            const MetricSnapshot &m = metrics[i];
            os << "\n";
            indentTo(os, depth + 1);
            os << "\"" << jsonEscape(comp)
               << (has_children ? "#value" : "") << "\": ";
            if (m.kind == MetricKind::Histogram)
                writeHistogram(os, m.histogram, depth + 1);
            else
                os << m.value;
            if (has_children) {
                os << ",";
            } else {
                i = j;
                continue;
            }
        }
        os << "\n";
        indentTo(os, depth + 1);
        os << "\"" << jsonEscape(comp) << "\": ";
        writeSubtree(os, metrics, i + (has_leaf ? 1 : 0), j,
                     prefix_len + comp.size() + 1, depth + 1);
        i = j;
    }
    os << "\n";
    indentTo(os, depth);
    os << "}";
}

} // namespace

void
writeMetricsJson(std::ostream &os, const RegistrySnapshot &snap)
{
    os << "{\n  \"schema\": \"bfly.telemetry.v1\",\n  \"metrics\": ";
    writeSubtree(os, snap.metrics, 0, snap.metrics.size(), 0, 1);
    os << "\n}\n";
}

void
writeMetricsJson(std::ostream &os)
{
    writeMetricsJson(os, registry().snapshot());
}

void
writeChromeTrace(std::ostream &os)
{
    const std::vector<ResolvedEvent> events = tracer().collect();
    os << "{\n\"displayTimeUnit\": \"ms\",\n";
    os << "\"otherData\": {\"droppedEvents\": " << tracer().dropped()
       << ", \"clocks\": \"pid 0: wall ns; pid 1: simulated cycles "
          "(1 cycle = 1us)\"},\n";
    os << "\"traceEvents\": [\n";
    // Process-name metadata so the two clock domains are labeled.
    os << " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
          "\"tid\": 0, \"args\": {\"name\": \"wall-clock\"}},\n";
    os << " {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": 0, \"args\": {\"name\": \"simulated-pipeline\"}}";
    char buf[64];
    for (const ResolvedEvent &e : events) {
        os << ",\n {\"name\": \"" << jsonEscape(e.name) << "\", \"cat\": "
           << "\"bfly\", \"ph\": \"X\", \"pid\": "
           << unsigned(e.pid) << ", \"tid\": " << e.tid << ", \"ts\": ";
        // Wall events are stored in ns; Chrome wants us. Simulated
        // events are stored in cycles and rendered one cycle per us.
        if (e.pid == SpanTracer::kWallPid) {
            std::snprintf(buf, sizeof buf, "%.3f", double(e.ts) / 1000.0);
            os << buf;
        } else {
            os << e.ts;
        }
        os << ", \"dur\": ";
        if (e.pid == SpanTracer::kWallPid) {
            std::snprintf(buf, sizeof buf, "%.3f", double(e.dur) / 1000.0);
            os << buf;
        } else {
            os << e.dur;
        }
        if (e.hasArg) {
            os << ", \"args\": {\"" << jsonEscape(e.argName)
               << "\": " << e.argValue << "}";
        }
        os << "}";
    }
    os << "\n]\n}\n";
}

bool
dumpMetricsJson(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeMetricsJson(out);
    return static_cast<bool>(out);
}

bool
dumpChromeTrace(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeChromeTrace(out);
    return static_cast<bool>(out);
}

} // namespace bfly::telemetry
