/**
 * @file
 * Hot-path microbenchmarks: the three substrates this repo's monitoring
 * overhead is built from, each reporting the tree's own throughput:
 *
 *   dispatch     one task group per pass on the persistent WorkerPool;
 *   set_algebra  the open-addressed inline-buffered FlatSet, over the
 *                union/intersect/subtract/contains mix the dataflow
 *                equations use;
 *   shadow_range page-span walks and the last-page cache of
 *                ShadowMemory, over range fills, range scans and
 *                sequential pointwise traffic.
 *
 * A change to one of these substrates is judged by an interleaved A/B
 * of this binary against a build of the parent commit; the numbers of
 * one run alone say little on a shared host.
 *
 * Writes BENCH_bench_hotpath.json (see bench_common.hpp; directory
 * overridable with BFLY_BENCH_JSON_DIR). `--quick` shrinks every group
 * for the CI smoke run.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
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
    double opsPerSec = 0;
};

GroupResult
benchDispatch(bool quick)
{
    const std::size_t nthreads =
        std::min<std::size_t>(8, std::max(2u,
                                          std::thread::hardware_concurrency()));
    const std::size_t rounds = quick ? 200 : 2000;

    // One persistent pool, one task group per pass.
    WorkerPool pool(nthreads);
    const double t0 = now();
    for (std::size_t r = 0; r < rounds; ++r) {
        TaskGroup pass;
        for (std::size_t t = 0; t < nthreads; ++t)
            pool.submitTask(
                pass, [](void *, std::size_t item) { blockWork(item); },
                nullptr, t);
        pool.waitGroup(pass);
    }
    return {"dispatch", static_cast<double>(rounds) / (now() - t0)};
}

// ---------------------------------------------------------------------
// Group 2: set algebra.
// ---------------------------------------------------------------------

/** The dataflow mix over one pair of sets; returns elements touched. */
std::uint64_t
setMix(const AddrSet &a, const AddrSet &b, const std::vector<Addr> &probes)
{
    std::uint64_t touched = 0;

    AddrSet u = a;
    u.unionWith(b);
    touched += u.size();

    AddrSet i = a;
    i.intersectWith(b);
    touched += a.size();

    AddrSet d = a;
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

GroupResult
benchSetAlgebra(bool quick)
{
    // Sizes span the paper's regimes: tiny per-block summaries through
    // epoch-level SOS sets.
    const std::size_t sizes[] = {6, 64, 1024, 8192};
    std::uint64_t elems = 0;
    double secs = 0;
    for (std::size_t n : sizes) {
        Rng rng(n);
        AddrSet a, b;
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
    return {"set_algebra", static_cast<double>(elems) / secs};
}

// ---------------------------------------------------------------------
// Group 3: shadow ranges.
// ---------------------------------------------------------------------

std::uint64_t
shadowMix(ShadowMemory<std::uint8_t> &shadow, bool quick)
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
    ShadowMemory<std::uint8_t> shadow(0);
    const double t0 = now();
    const std::uint64_t entries = shadowMix(shadow, quick);
    return {"shadow_range", static_cast<double>(entries) / (now() - t0)};
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

    std::printf("%-14s %16s\n", "group", "ops/s");
    for (const GroupResult &g : groups)
        std::printf("%-14s %16.0f\n", g.name, g.opsPerSec);

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
        std::fprintf(f, "    \"%s\": {\"ops_per_sec\": %.1f}%s\n", g.name,
                     g.opsPerSec, i + 1 < ngroups ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
