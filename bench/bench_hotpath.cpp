/**
 * @file
 * Hot-path microbenchmarks: three substrates this repo's monitoring
 * overhead is built from, one lifeguard kernel and two simulator loops,
 * each reporting the tree's own throughput:
 *
 *   dispatch       one task group per pass on the persistent WorkerPool;
 *   set_algebra    the open-addressed inline-buffered FlatSet, over the
 *                  union/intersect/subtract/contains mix the dataflow
 *                  equations use;
 *   shadow_range   page-span walks and the last-page cache of
 *                  ShadowMemory, over range fills, range scans and
 *                  sequential pointwise traffic;
 *   addrcheck_walk ADDRCHECK's window walk (pass 1, pass 2, finalize)
 *                  over an EpochStream of a serve-long-shaped OCEAN
 *                  trace, in key checks per second;
 *   interleave     the SC interleaver over session-ocean's programs
 *                  (OCEAN, 4 threads x 100 000 instructions), emitting
 *                  its order, in events per second;
 *   cmp_replay     that order through the perf model's 2T-core CMP (T
 *                  application cores, T idle lifeguard cores), in
 *                  memory accesses per second.
 *
 * A change to one of these is judged by an interleaved A/B of this
 * binary against a build of the parent commit; the numbers of one run
 * alone say little on a shared host.
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
#include "lifeguards/addrcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "sim/cmp.hpp"
#include "workloads/workload.hpp"

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

// ---------------------------------------------------------------------
// Group 4: the ADDRCHECK walk.
// ---------------------------------------------------------------------

GroupResult
benchAddrCheckWalk(bool quick)
{
    // One serve-long session's trace: OCEAN, 4 threads x 60 000
    // instructions, epochs of h = 2048 instructions per thread. Built
    // once, outside the timed region.
    constexpr std::size_t kH = 2048;
    WorkloadConfig wc;
    wc.numThreads = 4;
    wc.instrPerThread = 60000;
    wc.phaseEvents = 9000;
    wc.warmupNops = 3 * kH;
    wc.seed = 1;
    const Workload workload = makeOcean(wc);
    Rng rng(2);
    const Trace trace =
        interleave(workload.programs, InterleaveConfig{}, rng);
    AddrCheckConfig cfg;
    cfg.heapBase = workload.heapBase;
    cfg.heapLimit = workload.heapLimit;
    EpochStream::Config slicing;
    slicing.globalH = kH * wc.numThreads;

    const std::size_t reps = quick ? 1 : 20;
    std::uint64_t checks = 0;
    double secs = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        ButterflyAddrCheck check(wc.numThreads, cfg);
        const double t0 = now();
        EpochStream stream(trace, slicing);
        WindowSchedule().run(stream, check);
        secs += now() - t0;
        checks += check.eventsChecked();
        g_sink.fetch_add(check.errors().size(), std::memory_order_relaxed);
    }
    return {"addrcheck_walk", static_cast<double>(checks) / secs};
}

// ---------------------------------------------------------------------
// Groups 5 and 6: the simulator's per-event loops.
// ---------------------------------------------------------------------

/** session-ocean's workload: OCEAN, 4 threads, h = 2048. */
Workload
sessionOceanWorkload(bool quick)
{
    constexpr std::size_t kH = 2048;
    WorkloadConfig wc;
    wc.numThreads = 4;
    wc.instrPerThread = quick ? 20000 : 100000;
    wc.phaseEvents = 9000;
    wc.warmupNops = 3 * kH;
    wc.seed = 1;
    return makeOcean(wc);
}

GroupResult
benchInterleave(bool quick)
{
    // The programs are built, and copied for each run, outside the
    // timed region; interleave() consumes its copy.
    const Workload workload = sessionOceanWorkload(quick);
    const std::size_t reps = quick ? 1 : 10;
    std::vector<GseqRef> order;
    std::uint64_t events = 0;
    double secs = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        std::vector<std::vector<Event>> programs = workload.programs;
        Rng rng(2 + r);
        const double t0 = now();
        const Trace trace = interleave(std::move(programs),
                                       InterleaveConfig{}, rng, &order);
        secs += now() - t0;
        events += order.size();
        g_sink.fetch_add(trace.numThreads(), std::memory_order_relaxed);
    }
    return {"interleave", static_cast<double>(events) / secs};
}

GroupResult
benchCmpReplay(bool quick)
{
    // The perf model's parallel replay: each event's memory access on
    // its thread's core, in the emitted (gseq) order.
    const Workload workload = sessionOceanWorkload(quick);
    Rng rng(2);
    std::vector<GseqRef> order;
    const Trace trace =
        interleave(workload.programs, InterleaveConfig{}, rng, &order);
    const auto cores = static_cast<unsigned>(2 * trace.numThreads());

    const std::size_t reps = quick ? 1 : 10;
    std::uint64_t accesses = 0;
    double secs = 0;
    for (std::size_t r = 0; r < reps; ++r) {
        Cmp cmp(CmpConfig::forCores(cores));
        Cycles cycles = 0;
        const double t0 = now();
        for (const GseqRef &ref : order) {
            const Event &e = *ref.event;
            if (!e.isMemoryAccess() && e.kind != EventKind::Alloc &&
                e.kind != EventKind::Free)
                continue;
            const bool is_write =
                e.kind != EventKind::Read && e.kind != EventKind::Use;
            cycles += cmp.access(ref.thread, e.addr, is_write);
            ++accesses;
        }
        secs += now() - t0;
        g_sink.fetch_add(cycles, std::memory_order_relaxed);
    }
    return {"cmp_replay", static_cast<double>(accesses) / secs};
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
        bfly::benchAddrCheckWalk(quick),
        bfly::benchInterleave(quick),
        bfly::benchCmpReplay(quick),
    };

    std::printf("%-16s %16s\n", "group", "ops/s");
    for (const GroupResult &g : groups)
        std::printf("%-16s %16.0f\n", g.name, g.opsPerSec);

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
