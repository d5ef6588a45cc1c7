/**
 * @file
 * Hot-path microbenchmarks: the three substrates this repo's monitoring
 * overhead is built from, each measured against an inline copy of the
 * seed implementation so the speedup is computed within one binary on
 * one machine state:
 *
 *   dispatch     spawn+join std::threads per pass (seed) vs one task
 *                group on the persistent WorkerPool;
 *   set_algebra  node-based std::unordered_set wrapper (seed) vs the
 *                open-addressed inline-buffered FlatSet, over the union/
 *                intersect/subtract/contains mix the dataflow equations
 *                use;
 *   shadow_range per-element hash-map lookups (seed) vs page-span walks
 *                and the last-page cache, over range fills, range scans
 *                and sequential pointwise traffic.
 *
 * Writes BENCH_bench_hotpath.json (see bench_common.hpp; directory
 * overridable with BFLY_BENCH_JSON_DIR). `--quick` shrinks every group
 * for the CI smoke run. Not a google-benchmark binary: the paired
 * seed-vs-new measurement and the speedup field need a custom driver.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/addr_set.hpp"
#include "common/rng.hpp"
#include "common/shadow_memory.hpp"
#include "common/worker_pool.hpp"

namespace bfly {
namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::atomic<std::uint64_t> g_sink{0};

// ---------------------------------------------------------------------
// Seed reference implementations (copied from the pre-overhaul sources,
// trimmed to the operations measured here).
// ---------------------------------------------------------------------

/** The seed FlatSet: a thin wrapper over std::unordered_set. */
class RefSet
{
  public:
    bool contains(Addr k) const { return set_.count(k) != 0; }
    std::size_t size() const { return set_.size(); }
    void insert(Addr k) { set_.insert(k); }

    void
    unionWith(const RefSet &other)
    {
        for (Addr k : other.set_)
            set_.insert(k);
    }

    void
    intersectWith(const RefSet &other)
    {
        for (auto it = set_.begin(); it != set_.end();) {
            if (!other.contains(*it))
                it = set_.erase(it);
            else
                ++it;
        }
    }

    void
    subtract(const RefSet &other)
    {
        if (other.size() < set_.size()) {
            for (Addr k : other.set_)
                set_.erase(k);
        } else {
            for (auto it = set_.begin(); it != set_.end();) {
                if (other.contains(*it))
                    it = set_.erase(it);
                else
                    ++it;
            }
        }
    }

  private:
    std::unordered_set<Addr> set_;
};

/** The seed ShadowMemory: one directory lookup per element, no cache. */
class RefShadow
{
  public:
    static constexpr std::size_t kPageSize = 4096;
    static constexpr Addr kOffsetMask = kPageSize - 1;

    std::uint8_t
    get(Addr addr) const
    {
        auto it = pages_.find(addr >> 12);
        if (it == pages_.end())
            return 0;
        return (*it->second)[addr & kOffsetMask];
    }

    void
    set(Addr addr, std::uint8_t value)
    {
        auto &slot = pages_[addr >> 12];
        if (!slot)
            slot = std::make_unique<std::array<std::uint8_t, kPageSize>>();
        (*slot)[addr & kOffsetMask] = value;
    }

    void
    setRange(Addr addr, std::size_t len, std::uint8_t value)
    {
        for (std::size_t k = 0; k < len; ++k)
            set(addr + k, value);
    }

    bool
    rangeEquals(Addr addr, std::size_t len, std::uint8_t value) const
    {
        for (std::size_t k = 0; k < len; ++k) {
            if (get(addr + k) != value)
                return false;
        }
        return true;
    }

  private:
    std::unordered_map<Addr,
                       std::unique_ptr<std::array<std::uint8_t, kPageSize>>>
        pages_;
};

// ---------------------------------------------------------------------
// Group 1: pass dispatch.
// ---------------------------------------------------------------------

/** Per-block stand-in: a little arithmetic so items are not free. */
void
blockWork(std::size_t item)
{
    std::uint64_t acc = item + 1;
    for (int i = 0; i < 64; ++i)
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    g_sink.fetch_add(acc, std::memory_order_relaxed);
}

struct GroupResult
{
    const char *name;
    double seedOpsPerSec = 0;
    double newOpsPerSec = 0;
    double speedup() const { return newOpsPerSec / seedOpsPerSec; }
};

GroupResult
benchDispatch(bool quick)
{
    const std::size_t nthreads =
        std::min<std::size_t>(8, std::max(2u,
                                          std::thread::hardware_concurrency()));
    const std::size_t rounds = quick ? 200 : 2000;

    // Seed: spawn + join one std::thread per block, twice per epoch.
    const double t0 = now();
    for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<std::thread> threads;
        threads.reserve(nthreads);
        for (std::size_t t = 0; t < nthreads; ++t)
            threads.emplace_back(blockWork, t);
        for (std::thread &th : threads)
            th.join();
    }
    const double seedSecs = now() - t0;

    // New: one persistent pool, one task group per pass.
    WorkerPool pool(nthreads);
    const double t1 = now();
    for (std::size_t r = 0; r < rounds; ++r) {
        TaskGroup pass;
        for (std::size_t t = 0; t < nthreads; ++t)
            pool.submitTask(
                pass, [](void *, std::size_t item) { blockWork(item); },
                nullptr, t);
        pool.waitGroup(pass);
    }
    const double newSecs = now() - t1;

    GroupResult g{"dispatch"};
    g.seedOpsPerSec = static_cast<double>(rounds) / seedSecs;
    g.newOpsPerSec = static_cast<double>(rounds) / newSecs;
    return g;
}

// ---------------------------------------------------------------------
// Group 2: set algebra.
// ---------------------------------------------------------------------

/** The dataflow mix over one pair of sets; returns elements touched. */
template <typename Set>
std::uint64_t
setMix(const Set &a, const Set &b, const std::vector<Addr> &probes)
{
    std::uint64_t touched = 0;

    Set u = a;
    u.unionWith(b);
    touched += u.size();

    Set i = a;
    i.intersectWith(b);
    touched += a.size();

    Set d = a;
    d.subtract(b);
    touched += a.size();

    std::uint64_t hits = 0;
    for (Addr p : probes)
        hits += u.contains(p) ? 1 : 0;
    g_sink.fetch_add(hits + i.size() + d.size(),
                     std::memory_order_relaxed);
    touched += probes.size();
    return touched;
}

template <typename Set>
double
runSetGroup(bool quick, std::uint64_t &elems_out)
{
    // Sizes span the paper's regimes: tiny per-block summaries through
    // epoch-level SOS sets.
    const std::size_t sizes[] = {6, 64, 1024, 8192};
    std::uint64_t elems = 0;
    double secs = 0;
    for (std::size_t n : sizes) {
        Rng rng(n);
        Set a, b;
        for (std::size_t i = 0; i < n; ++i) {
            a.insert(rng.next() % (4 * n));
            b.insert(rng.next() % (4 * n));
        }
        std::vector<Addr> probes(256);
        for (Addr &p : probes)
            p = rng.next() % (4 * n);

        std::size_t reps = (quick ? 40000 : 400000) / n + 1;
        const double t0 = now();
        for (std::size_t r = 0; r < reps; ++r)
            elems += setMix(a, b, probes);
        secs += now() - t0;
    }
    elems_out = elems;
    return secs;
}

GroupResult
benchSetAlgebra(bool quick)
{
    std::uint64_t seedElems = 0, newElems = 0;
    const double seedSecs = runSetGroup<RefSet>(quick, seedElems);
    const double newSecs = runSetGroup<AddrSet>(quick, newElems);

    GroupResult g{"set_algebra"};
    g.seedOpsPerSec = static_cast<double>(seedElems) / seedSecs;
    g.newOpsPerSec = static_cast<double>(newElems) / newSecs;
    return g;
}

// ---------------------------------------------------------------------
// Group 3: shadow ranges.
// ---------------------------------------------------------------------

template <typename Shadow>
std::uint64_t
shadowMix(Shadow &shadow, bool quick)
{
    const std::size_t reps = quick ? 200 : 2000;
    std::uint64_t entries = 0;
    // Allocation-sized spans that straddle page boundaries (the
    // ADDRCHECK oracle's access pattern), then a sequential pointwise
    // sweep (the per-key metadata pattern).
    for (std::size_t r = 0; r < reps; ++r) {
        const Addr base = 0x1000 * (r % 64) + 0x800;
        shadow.setRange(base, 4096, 1);
        entries += 4096;
        const bool eq = shadow.rangeEquals(base, 4096, 1);
        g_sink.fetch_add(eq, std::memory_order_relaxed);
        entries += 4096;
        for (Addr a = base; a < base + 1024; ++a) {
            shadow.set(a, static_cast<std::uint8_t>(a & 0xff));
            entries += 1;
        }
        std::uint64_t sum = 0;
        for (Addr a = base; a < base + 1024; ++a)
            sum += shadow.get(a);
        g_sink.fetch_add(sum, std::memory_order_relaxed);
        entries += 1024;
        shadow.setRange(base, 4096, 0);
        entries += 4096;
    }
    return entries;
}

GroupResult
benchShadowRange(bool quick)
{
    GroupResult g{"shadow_range"};
    {
        RefShadow shadow;
        const double t0 = now();
        const std::uint64_t entries = shadowMix(shadow, quick);
        g.seedOpsPerSec = static_cast<double>(entries) / (now() - t0);
    }
    {
        ShadowMemory<std::uint8_t> shadow(0);
        const double t0 = now();
        const std::uint64_t entries = shadowMix(shadow, quick);
        g.newOpsPerSec = static_cast<double>(entries) / (now() - t0);
    }
    return g;
}

} // namespace
} // namespace bfly

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    using bfly::GroupResult;
    const GroupResult groups[] = {
        bfly::benchDispatch(quick),
        bfly::benchSetAlgebra(quick),
        bfly::benchShadowRange(quick),
    };

    std::printf("%-14s %16s %16s %9s\n", "group", "seed ops/s",
                "new ops/s", "speedup");
    for (const GroupResult &g : groups) {
        std::printf("%-14s %16.0f %16.0f %8.2fx\n", g.name,
                    g.seedOpsPerSec, g.newOpsPerSec, g.speedup());
    }

    const std::string path = bfly::bench::benchJsonDir() +
                             "/BENCH_bench_hotpath.json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_hotpath\",\n"
                 "  \"quick\": %s,\n  \"groups\": {\n",
                 quick ? "true" : "false");
    const std::size_t ngroups = std::size(groups);
    for (std::size_t i = 0; i < ngroups; ++i) {
        const GroupResult &g = groups[i];
        std::fprintf(f,
                     "    \"%s\": {\"seed_ops_per_sec\": %.1f, "
                     "\"new_ops_per_sec\": %.1f, \"speedup\": %.3f}%s\n",
                     g.name, g.seedOpsPerSec, g.newOpsPerSec, g.speedup(),
                     i + 1 < ngroups ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
