/**
 * @file
 * Structured metrics: typed counters, gauges and log-scale histograms
 * behind interned metric IDs.
 *
 * Registration (name -> MetricId) happens once, under a mutex; after
 * that every hot-path operation is addressed by the integer ID and is a
 * single atomic RMW on a stable cell — no string hashing, no
 * `std::map<std::string, ...>` lookups, no locks. Cells live in chunks
 * reached through atomic pointers, so registration can proceed
 * concurrently with recording without invalidating any cell address.
 *
 * Kinds:
 *  - Counter: monotonically increasing `add(id, delta)`;
 *  - Gauge: last-write-wins `set(id, value)` (also supports add);
 *  - Histogram: `observe(id, value)` into power-of-two buckets
 *    (bucket b counts values in [2^b, 2^(b+1))), with count / sum /
 *    min / max tracked atomically.
 */

#ifndef BUTTERFLY_TELEMETRY_METRICS_HPP
#define BUTTERFLY_TELEMETRY_METRICS_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace bfly::telemetry {

/** Interned metric identifier (kind in the top bits, index below). */
using MetricId = std::uint32_t;

/** Sentinel: not a metric. */
inline constexpr MetricId kNoMetric = 0xFFFFFFFFu;

enum class MetricKind : std::uint8_t { Counter = 0, Gauge = 1, Histogram = 2 };

/**
 * Thread-safe string interner: stable uint32 ids for names. Used by the
 * metrics registry and the span tracer.
 */
class Interner
{
  public:
    std::uint32_t intern(std::string_view name);

    /** Name for @p id ("?" if unknown). Returns a copy (thread safety). */
    std::string lookup(std::uint32_t id) const;

    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::uint32_t> byName_;
    std::vector<const std::string *> names_; // points into byName_ keys
};

/** Point-in-time copy of one histogram's state. */
struct HistogramSnapshot
{
    static constexpr unsigned kBuckets = 64;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const { return count ? double(sum) / double(count) : 0.0; }
};

/** Point-in-time copy of one metric. */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    std::uint64_t value = 0;     ///< counter/gauge value; histogram count
    HistogramSnapshot histogram; ///< populated for histograms only
};

/** Point-in-time copy of the whole registry, sorted by name. */
struct RegistrySnapshot
{
    std::vector<MetricSnapshot> metrics;

    /** Scalar value of metric @p name (0 if absent). */
    std::uint64_t value(std::string_view name) const;

    /** Histogram snapshot for @p name (nullptr if absent/not a histogram). */
    const HistogramSnapshot *histogram(std::string_view name) const;
};

/**
 * Thread-safe registry of typed metrics with interned IDs.
 *
 * Multi-tenancy: the name -> MetricId mapping lives in one process-wide
 * directory shared by every registry *instance*, so a MetricId cached by
 * an instrumentation site (the `static const` telemetry structs) is
 * valid against any instance — only the value cells are per-instance.
 * The monitoring service gives each session its own registry (values
 * recorded by concurrent sessions never interleave) while single-session
 * CLIs keep using the process-global default; see registry() /
 * ScopedRegistry below. Cells are allocated lazily on first touch per
 * instance, so a fresh session registry costs nothing for metrics the
 * session never records.
 */
class MetricsRegistry
{
  public:
    static constexpr unsigned kHistBuckets = HistogramSnapshot::kBuckets;

    MetricsRegistry() = default;
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Register (or find) a metric in the process-wide directory.
     *  Idempotent per name; the kind of the first registration wins.
     *  Never invalidates issued ids; ids are valid for every instance. */
    MetricId counter(std::string_view name);
    MetricId gauge(std::string_view name);
    MetricId histogram(std::string_view name);

    /** Atomic increment of a counter or gauge cell. */
    void
    add(MetricId id, std::uint64_t delta = 1)
    {
        if (std::atomic<std::uint64_t> *c = scalarCell(id))
            c->fetch_add(delta, std::memory_order_relaxed);
    }

    /** Atomic overwrite of a gauge (or counter) cell. */
    void
    set(MetricId id, std::uint64_t value)
    {
        if (std::atomic<std::uint64_t> *c = scalarCell(id))
            c->store(value, std::memory_order_relaxed);
    }

    /** Record one sample into a histogram. */
    void observe(MetricId id, std::uint64_t value);

    /** Current scalar value (histograms: sample count). */
    std::uint64_t value(MetricId id) const;

    RegistrySnapshot snapshot() const;

    /** Zero all values; registrations and ids survive. */
    void clear();

    std::size_t metricCount() const;

  private:
    static constexpr unsigned kChunkShift = 8;
    static constexpr unsigned kChunkSize = 1u << kChunkShift; // cells/chunk
    static constexpr unsigned kMaxChunks = 256; // 64K scalar metrics
    static constexpr unsigned kMaxHists = 1024;

    static constexpr std::uint32_t kKindShift = 30;
    static constexpr std::uint32_t kIndexMask = (1u << kKindShift) - 1;

    struct ScalarChunk
    {
        std::array<std::atomic<std::uint64_t>, kChunkSize> cells{};
    };

    struct HistCell
    {
        std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
        std::atomic<std::uint64_t> min{~std::uint64_t{0}};
        std::atomic<std::uint64_t> max{0};
    };

    static MetricKind
    kindOf(MetricId id)
    {
        return static_cast<MetricKind>(id >> kKindShift);
    }
    static std::uint32_t indexOf(MetricId id) { return id & kIndexMask; }
    static MetricId
    makeId(MetricKind kind, std::uint32_t index)
    {
        return (static_cast<std::uint32_t>(kind) << kKindShift) | index;
    }

    /** Bucket for @p value: floor(log2(value)), 0 for value <= 1. */
    static unsigned bucketIndex(std::uint64_t value);

    /** Cell of @p id in *this* instance, allocated on first touch. */
    std::atomic<std::uint64_t> *scalarCell(MetricId id) const;
    HistCell *histCell(MetricId id) const;

    mutable std::array<std::atomic<ScalarChunk *>, kMaxChunks> chunks_{};
    mutable std::array<std::atomic<HistCell *>, kMaxHists> hists_{};
};

/**
 * Make @p target the calling thread's current registry() for the scope's
 * lifetime (nullptr restores the process-global default). The monitoring
 * service wraps each session's ingest and analysis driver in one of
 * these, so instrumentation sites publish into the session's registry
 * without knowing sessions exist.
 */
class ScopedRegistry
{
  public:
    explicit ScopedRegistry(MetricsRegistry *target);
    ~ScopedRegistry();
    ScopedRegistry(const ScopedRegistry &) = delete;
    ScopedRegistry &operator=(const ScopedRegistry &) = delete;

  private:
    MetricsRegistry *prev_;
};

/**
 * The calling thread's current registry: the one installed by the
 * innermost live ScopedRegistry, else the process-global default. Every
 * instrumentation site publishes through this accessor, so single-session
 * CLIs see exactly the old process-global behaviour.
 */
MetricsRegistry &registry();

/** The process-global default registry. */
MetricsRegistry &globalRegistry();

} // namespace bfly::telemetry

#endif // BUTTERFLY_TELEMETRY_METRICS_HPP
