#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>

namespace bfly::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

// ---------------------------------------------------------------- Interner

std::uint32_t
Interner::intern(std::string_view name)
{
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = byName_.find(std::string(name));
    if (it != byName_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    auto [pos, inserted] = byName_.emplace(std::string(name), id);
    names_.push_back(&pos->first);
    return id;
}

std::string
Interner::lookup(std::uint32_t id) const
{
    std::lock_guard<std::mutex> guard(mutex_);
    if (id >= names_.size())
        return "?";
    return *names_[id];
}

std::size_t
Interner::size() const
{
    std::lock_guard<std::mutex> guard(mutex_);
    return names_.size();
}

// -------------------------------------------------------- MetricDirectory

namespace {

/**
 * Process-wide name -> MetricId mapping shared by every MetricsRegistry
 * instance. Splitting the directory from the value cells is what makes a
 * MetricId cached in a `static const` telemetry struct valid against any
 * registry instance: the id is a stable index; each instance merely
 * holds (lazily allocated) cells for it.
 */
struct MetricDirectory
{
    struct Info
    {
        std::string name;
        MetricId id = kNoMetric;
    };

    mutable std::mutex mutex;
    std::unordered_map<std::string, MetricId> byName;
    std::vector<Info> infos; // in registration order
    std::uint32_t nextScalar = 0;
    std::uint32_t nextHist = 0;

    static MetricDirectory &
    get()
    {
        static MetricDirectory *d = new MetricDirectory;
        return *d;
    }
};

} // namespace

// -------------------------------------------------------- MetricsRegistry

unsigned
MetricsRegistry::bucketIndex(std::uint64_t value)
{
    if (value <= 1)
        return 0;
    const unsigned b = std::bit_width(value) - 1;
    return b < kHistBuckets ? b : kHistBuckets - 1;
}

namespace {

MetricId
registerMetric(MetricKind kind, std::string_view name)
{
    constexpr std::uint32_t kChunkShift = 8;
    constexpr std::uint32_t kMaxChunks = 256;
    constexpr std::uint32_t kMaxHists = 1024;
    constexpr std::uint32_t kKindShift = 30;

    MetricDirectory &dir = MetricDirectory::get();
    std::lock_guard<std::mutex> guard(dir.mutex);
    auto it = dir.byName.find(std::string(name));
    if (it != dir.byName.end())
        return it->second; // first registration's kind wins

    std::uint32_t index = 0;
    if (kind == MetricKind::Histogram) {
        if (dir.nextHist >= kMaxHists)
            return kNoMetric; // out of slots: silently a no-op metric
        index = dir.nextHist++;
    } else {
        if ((dir.nextScalar >> kChunkShift) >= kMaxChunks)
            return kNoMetric;
        index = dir.nextScalar++;
    }
    const MetricId id =
        (static_cast<std::uint32_t>(kind) << kKindShift) | index;
    dir.byName.emplace(std::string(name), id);
    dir.infos.push_back(MetricDirectory::Info{std::string(name), id});
    return id;
}

} // namespace

MetricsRegistry::~MetricsRegistry()
{
    for (auto &chunk : chunks_)
        delete chunk.load(std::memory_order_acquire);
    for (auto &hist : hists_)
        delete hist.load(std::memory_order_acquire);
}

MetricId
MetricsRegistry::counter(std::string_view name)
{
    return registerMetric(MetricKind::Counter, name);
}

MetricId
MetricsRegistry::gauge(std::string_view name)
{
    return registerMetric(MetricKind::Gauge, name);
}

MetricId
MetricsRegistry::histogram(std::string_view name)
{
    return registerMetric(MetricKind::Histogram, name);
}

std::atomic<std::uint64_t> *
MetricsRegistry::scalarCell(MetricId id) const
{
    if (id == kNoMetric || kindOf(id) == MetricKind::Histogram)
        return nullptr;
    const std::uint32_t index = indexOf(id);
    const std::uint32_t chunk = index >> kChunkShift;
    if (chunk >= kMaxChunks)
        return nullptr;
    ScalarChunk *c = chunks_[chunk].load(std::memory_order_acquire);
    if (!c) {
        // First touch of this chunk in this instance: allocate and
        // publish; a racing toucher's allocation wins or is discarded.
        auto *fresh = new ScalarChunk;
        if (chunks_[chunk].compare_exchange_strong(
                c, fresh, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            c = fresh;
        } else {
            delete fresh; // c now holds the winner
        }
    }
    return &c->cells[index & (kChunkSize - 1)];
}

MetricsRegistry::HistCell *
MetricsRegistry::histCell(MetricId id) const
{
    if (id == kNoMetric || kindOf(id) != MetricKind::Histogram)
        return nullptr;
    const std::uint32_t index = indexOf(id);
    if (index >= kMaxHists)
        return nullptr;
    HistCell *h = hists_[index].load(std::memory_order_acquire);
    if (!h) {
        auto *fresh = new HistCell;
        if (hists_[index].compare_exchange_strong(
                h, fresh, std::memory_order_acq_rel,
                std::memory_order_acquire)) {
            h = fresh;
        } else {
            delete fresh;
        }
    }
    return h;
}

void
MetricsRegistry::observe(MetricId id, std::uint64_t value)
{
    HistCell *h = histCell(id);
    if (!h)
        return;
    h->buckets[bucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    h->count.fetch_add(1, std::memory_order_relaxed);
    h->sum.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = h->min.load(std::memory_order_relaxed);
    while (value < seen &&
           !h->min.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
    seen = h->max.load(std::memory_order_relaxed);
    while (value > seen &&
           !h->max.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
}

std::uint64_t
MetricsRegistry::value(MetricId id) const
{
    if (const HistCell *h = histCell(id))
        return h->count.load(std::memory_order_relaxed);
    if (const std::atomic<std::uint64_t> *c = scalarCell(id))
        return c->load(std::memory_order_relaxed);
    return 0;
}

RegistrySnapshot
MetricsRegistry::snapshot() const
{
    RegistrySnapshot snap;
    std::vector<MetricDirectory::Info> infos;
    {
        MetricDirectory &dir = MetricDirectory::get();
        std::lock_guard<std::mutex> guard(dir.mutex);
        infos = dir.infos;
    }
    snap.metrics.reserve(infos.size());
    for (const auto &info : infos) {
        MetricSnapshot m;
        m.name = info.name;
        m.kind = kindOf(info.id);
        if (const HistCell *h = histCell(info.id)) {
            HistogramSnapshot &hs = m.histogram;
            hs.count = h->count.load(std::memory_order_relaxed);
            hs.sum = h->sum.load(std::memory_order_relaxed);
            hs.max = h->max.load(std::memory_order_relaxed);
            const std::uint64_t mn = h->min.load(std::memory_order_relaxed);
            hs.min = hs.count ? mn : 0;
            for (unsigned b = 0; b < kHistBuckets; ++b)
                hs.buckets[b] =
                    h->buckets[b].load(std::memory_order_relaxed);
            m.value = hs.count;
        } else {
            m.value = value(info.id);
        }
        snap.metrics.push_back(std::move(m));
    }
    std::sort(snap.metrics.begin(), snap.metrics.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
MetricsRegistry::clear()
{
    std::uint32_t scalars = 0;
    std::uint32_t hists = 0;
    {
        MetricDirectory &dir = MetricDirectory::get();
        std::lock_guard<std::mutex> guard(dir.mutex);
        scalars = dir.nextScalar;
        hists = dir.nextHist;
    }
    for (std::uint32_t i = 0; i < scalars; ++i) {
        ScalarChunk *c = chunks_[i >> kChunkShift].load();
        if (c)
            c->cells[i & (kChunkSize - 1)].store(
                0, std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < hists; ++i) {
        HistCell *h = hists_[i].load();
        if (!h)
            continue;
        for (auto &b : h->buckets)
            b.store(0, std::memory_order_relaxed);
        h->count.store(0, std::memory_order_relaxed);
        h->sum.store(0, std::memory_order_relaxed);
        h->min.store(~std::uint64_t{0}, std::memory_order_relaxed);
        h->max.store(0, std::memory_order_relaxed);
    }
}

std::size_t
MetricsRegistry::metricCount() const
{
    MetricDirectory &dir = MetricDirectory::get();
    std::lock_guard<std::mutex> guard(dir.mutex);
    return dir.infos.size();
}

// ----------------------------------------------------------- RegistrySnapshot

std::uint64_t
RegistrySnapshot::value(std::string_view name) const
{
    for (const MetricSnapshot &m : metrics)
        if (m.name == name)
            return m.value;
    return 0;
}

const HistogramSnapshot *
RegistrySnapshot::histogram(std::string_view name) const
{
    for (const MetricSnapshot &m : metrics)
        if (m.name == name && m.kind == MetricKind::Histogram)
            return &m.histogram;
    return nullptr;
}

// ------------------------------------------------------------------ globals

namespace {
/** Innermost ScopedRegistry target; null = process-global default. */
thread_local MetricsRegistry *t_currentRegistry = nullptr;
} // namespace

MetricsRegistry &
globalRegistry()
{
    static MetricsRegistry *r = new MetricsRegistry;
    return *r;
}

MetricsRegistry &
registry()
{
    MetricsRegistry *current = t_currentRegistry;
    return current ? *current : globalRegistry();
}

ScopedRegistry::ScopedRegistry(MetricsRegistry *target)
    : prev_(t_currentRegistry)
{
    t_currentRegistry = target;
}

ScopedRegistry::~ScopedRegistry()
{
    t_currentRegistry = prev_;
}

} // namespace bfly::telemetry
