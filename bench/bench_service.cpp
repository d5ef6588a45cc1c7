/**
 * @file
 * Monitoring-service throughput: sessions x chunk-size sweep plus an
 * adaptive epoch-sizing group over a loopback Unix-domain socket.
 *
 * Each configuration starts one MonitorServer, then N client threads
 * each replay the same heartbeat-marked synthetic trace through full
 * sessions (open -> chunked log stream -> TraceEnd -> report). Reported
 * per config: wall seconds, end-to-end monitored events/sec across all
 * sessions, mean session latency, and Busy sheds survived. Every remote
 * report is checked against the in-process reference — a divergence
 * fails the binary, so the bench doubles as a conformance smoke.
 *
 * Writes BENCH_bench_service.json (directory overridable with
 * BFLY_BENCH_JSON_DIR). `--quick` shrinks the sweep for CI smoke.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "trace/log_codec.hpp"

namespace bfly {
namespace {

using service::MonitorClient;
using service::MonitorServer;
using service::RemoteReport;
using service::RunResult;
using service::ServerConfig;
using service::SessionSpec;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Heartbeat-marked synthetic trace over a private heap window: a mix
 *  of writes and unallocated reads so ADDRCHECK does real work. */
Trace
makeMarkedTrace(unsigned threads, unsigned epochs, unsigned per_epoch,
                Addr heap_base)
{
    Trace trace;
    trace.threads.resize(threads);
    for (unsigned t = 0; t < threads; ++t) {
        trace.threads[t].tid = t;
        std::vector<Event> &events = trace.threads[t].events;
        const Addr base = heap_base + t * 0x10000;
        events.push_back(Event::alloc(base, 4096));
        for (unsigned l = 0; l < epochs; ++l) {
            if (l > 0)
                events.push_back(Event::heartbeat());
            for (unsigned i = 0; i < per_epoch; ++i) {
                const Addr addr = base + 8 * (i % 512);
                if (i % 4 == 3)
                    events.push_back(Event::read(addr + 0x8000, 8));
                else if (i % 2 == 0)
                    events.push_back(Event::write(addr, 8));
                else
                    events.push_back(Event::read(addr, 8));
            }
        }
    }
    return trace;
}

/**
 * Bursty variant of the marked trace: long runs of tiny epochs broken
 * by an occasional fat one. Pathological for a fixed fine h (per-epoch
 * scheduling overhead dominates) and exactly what the adaptive
 * size-target policy is for.
 */
Trace
makeBurstyTrace(unsigned threads, unsigned epochs, Addr heap_base)
{
    Trace trace;
    trace.threads.resize(threads);
    for (unsigned t = 0; t < threads; ++t) {
        trace.threads[t].tid = t;
        std::vector<Event> &events = trace.threads[t].events;
        const Addr base = heap_base + t * 0x10000;
        events.push_back(Event::alloc(base, 4096));
        for (unsigned l = 0; l < epochs; ++l) {
            if (l > 0)
                events.push_back(Event::heartbeat());
            // Tiny epochs of irregular size with a fat one every 16th:
            // the irregularity keeps the size-target policy from
            // settling into one fixed merge width.
            const unsigned burst =
                (l % 16 == 15) ? 256 : (l % 3 == 0 ? 24 : 8);
            for (unsigned i = 0; i < burst; ++i) {
                const Addr addr = base + 8 * (i % 512);
                if (i % 4 == 3)
                    events.push_back(Event::read(addr + 0x8000, 8));
                else if (i % 2 == 0)
                    events.push_back(Event::write(addr, 8));
                else
                    events.push_back(Event::read(addr, 8));
            }
        }
    }
    return trace;
}

/** The same event stream under a statically coarser h: keep only every
 *  @p keep_every-th heartbeat marker (a platform emitting heartbeats
 *  that much less often). */
Trace
withCoarserMarkers(const Trace &marked, unsigned keep_every)
{
    Trace out;
    out.threads.resize(marked.numThreads());
    for (std::size_t t = 0; t < marked.numThreads(); ++t) {
        out.threads[t].tid = marked.threads[t].tid;
        unsigned seen = 0;
        for (const Event &e : marked.threads[t].events) {
            if (e.kind == EventKind::Heartbeat) {
                if (++seen % keep_every != 0)
                    continue;
            }
            out.threads[t].events.push_back(e);
        }
    }
    return out;
}

struct SweepResult
{
    std::string mode = "static"; ///< static | fine | coarse | adaptive
    std::size_t sessions = 0;
    std::size_t chunkBytes = 0;
    std::size_t traces = 0;
    std::uint64_t events = 0;
    std::uint64_t busyRetries = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t failures = 0;
    std::uint64_t sheds = 0;    ///< Overload rejections (adaptive only)
    std::uint64_t hChanges = 0; ///< epoch-width changes observed
    double wallSecs = 0;
    double meanLatencyMs = 0;
    double
    eventsPerSec() const
    {
        return wallSecs > 0 ? static_cast<double>(events) / wallSecs
                            : 0.0;
    }
};

SweepResult
benchConfig(std::size_t sessions, std::size_t chunk_bytes,
            std::size_t traces_per_session, const Trace &marked,
            const SessionSpec &spec, const RemoteReport &reference,
            std::size_t adaptive_target_events = 0)
{
    ServerConfig scfg;
    scfg.unixPath = "/tmp/bfly-bench-" + std::to_string(::getpid()) +
                    "-" + std::to_string(sessions) + "-" +
                    std::to_string(chunk_bytes) +
                    (adaptive_target_events ? "-a" : "") + ".sock";
    if (adaptive_target_events > 0) {
        scfg.mux.adaptive = true;
        scfg.mux.controller.targetEventsPerEpoch = adaptive_target_events;
    }
    MonitorServer server(scfg);
    if (!server.start()) {
        std::fprintf(stderr, "bench_service: bind failed\n");
        std::exit(1);
    }

    SweepResult r;
    r.sessions = sessions;
    r.chunkBytes = chunk_bytes;
    std::atomic<std::uint64_t> busy{0}, mismatches{0}, failures{0};
    std::atomic<std::uint64_t> latencyUs{0}, sheds{0}, hChanges{0};

    // Adaptive runs verify against the realized slicing the server
    // advertised. The deterministic size-target policy picks the same
    // spans for every session over the same trace, so one cached
    // reference per distinct span vector covers the whole sweep.
    std::mutex refMutex;
    std::map<std::vector<std::uint32_t>, RemoteReport> refBySpans;
    auto referenceFor =
        [&](const std::vector<std::uint32_t> &spans) -> const RemoteReport & {
        if (spans.empty())
            return reference;
        std::lock_guard<std::mutex> lock(refMutex);
        auto it = refBySpans.find(spans);
        if (it == refBySpans.end())
            it = refBySpans
                     .emplace(spans,
                              service::analyzeReference(
                                  spec, marked,
                                  EpochLayout::coalescedFromHeartbeats(
                                      marked, spans)))
                     .first;
        return it->second;
    };

    if (adaptive_target_events > 0) {
        // One untimed warmup session: populates the span-keyed
        // reference cache so the timed window measures the service,
        // not the checker.
        service::ClientConfig ccfg;
        ccfg.chunkBytes = chunk_bytes;
        MonitorClient warm(ccfg);
        if (warm.connectUnix(scfg.unixPath)) {
            const RunResult res = warm.run(spec, marked);
            if (res.ok)
                (void)referenceFor(res.epochSpans);
        }
    }

    const double t0 = now();
    std::vector<std::thread> workers;
    for (std::size_t s = 0; s < sessions; ++s) {
        workers.emplace_back([&] {
            for (std::size_t i = 0; i < traces_per_session; ++i) {
                service::ClientConfig ccfg;
                ccfg.chunkBytes = chunk_bytes;
                MonitorClient client(ccfg);
                if (!client.connectUnix(scfg.unixPath)) {
                    failures.fetch_add(1);
                    continue;
                }
                const double s0 = now();
                const RunResult remote = client.run(spec, marked);
                latencyUs.fetch_add(
                    static_cast<std::uint64_t>((now() - s0) * 1e6));
                if (!remote.ok) {
                    if (remote.overloaded)
                        sheds.fetch_add(1);
                    else
                        failures.fetch_add(1);
                } else if (!remote.report.identical(
                               referenceFor(remote.epochSpans)))
                    mismatches.fetch_add(1);
                busy.fetch_add(remote.busyRetries);
                hChanges.fetch_add(remote.hChanges());
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    r.wallSecs = now() - t0;
    server.stop();

    r.traces = sessions * traces_per_session;
    r.events = static_cast<std::uint64_t>(marked.instructionCount()) *
               r.traces;
    r.busyRetries = busy.load();
    r.mismatches = mismatches.load();
    r.failures = failures.load();
    r.sheds = sheds.load();
    r.hChanges = hChanges.load();
    r.meanLatencyMs = r.traces
                          ? static_cast<double>(latencyUs.load()) / 1000.0 /
                                static_cast<double>(r.traces)
                          : 0.0;
    return r;
}

} // namespace
} // namespace bfly

int
main(int argc, char **argv)
{
    using namespace bfly;

    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    }

    const Addr heap = 0x1000000;
    const Trace marked = makeMarkedTrace(4, quick ? 8 : 24,
                                         quick ? 100 : 400, heap);
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = static_cast<std::uint32_t>(marked.numThreads());
    spec.granularity = 8;
    spec.heapBase = heap;
    spec.heapLimit = heap + 0x1000000;
    const service::RemoteReport reference = service::analyzeReference(
        spec, marked, EpochLayout::fromHeartbeats(marked));

    const std::size_t traces_per_session = quick ? 2 : 8;
    std::vector<std::size_t> session_counts =
        quick ? std::vector<std::size_t>{1, 4}
              : std::vector<std::size_t>{1, 4, 8};
    std::vector<std::size_t> chunk_sizes =
        quick ? std::vector<std::size_t>{64 * 1024}
              : std::vector<std::size_t>{4 * 1024, 64 * 1024};

    std::printf("%-22s %10s %12s %12s %8s\n", "config", "wall_s",
                "events/s", "latency_ms", "busy");
    std::vector<SweepResult> results;
    bool clean = true;
    for (std::size_t sessions : session_counts) {
        for (std::size_t chunk : chunk_sizes) {
            const SweepResult r = benchConfig(
                sessions, chunk, traces_per_session, marked, spec,
                reference);
            results.push_back(r);
            std::printf("%-22s %10.3f %12.0f %12.3f %8llu%s\n",
                        ("s" + std::to_string(sessions) + "_c" +
                         std::to_string(chunk))
                            .c_str(),
                        r.wallSecs, r.eventsPerSec(), r.meanLatencyMs,
                        static_cast<unsigned long long>(r.busyRetries),
                        r.mismatches + r.failures
                            ? "  CONFORMANCE FAIL"
                            : "");
            if (r.mismatches + r.failures)
                clean = false;
        }
    }

    // Adaptive epoch-sizing group: a bursty trace (runs of tiny epochs
    // with occasional fat ones) served three ways — the platform's own
    // fine markers, the same events with 8x coarser markers (the static
    // tuning a perfectly informed operator would pick), and the fine
    // markers under the adaptive size-target policy, which must land
    // within 5% of the best static choice while staying bit-identical
    // over its realized slicing.
    const unsigned burstyEpochs = quick ? 128 : 192;
    const Trace bursty = makeBurstyTrace(4, burstyEpochs, heap);
    const Trace burstyCoarse = withCoarserMarkers(bursty, 8);
    SessionSpec bspec = spec;
    bspec.numThreads = static_cast<std::uint32_t>(bursty.numThreads());
    const RemoteReport fineRef = service::analyzeReference(
        bspec, bursty, EpochLayout::fromHeartbeats(bursty));
    const RemoteReport coarseRef = service::analyzeReference(
        bspec, burstyCoarse, EpochLayout::fromHeartbeats(burstyCoarse));

    const std::size_t adaptiveSessions = quick ? 4 : 8;
    // Tiny bursty epochs carry 32-96 decoded events across the 4
    // threads (mean ~53); a 448-event target merges ~8 of them per
    // analyzed epoch — the same ballpark as the 8x-coarser static
    // markers — while a fat epoch still cuts the group short.
    const std::size_t targetEvents = 448;
    struct AdaptiveRow
    {
        const char *mode;
        const Trace *trace;
        const RemoteReport *ref;
        std::size_t target;
    };
    const AdaptiveRow rows[] = {
        {"fine", &bursty, &fineRef, 0},
        {"coarse", &burstyCoarse, &coarseRef, 0},
        {"adaptive", &bursty, &fineRef, targetEvents},
    };
    // Longer runs than the main sweep: the ratio below carries a CI
    // floor, and sub-100ms walls are scheduler noise.
    const std::size_t adaptiveTraces = quick ? 6 : 12;
    double fineEps = 0, coarseEps = 0, adaptiveEps = 0;
    std::uint64_t adaptiveSheds = 0, staticSheds = 0;
    for (const AdaptiveRow &row : rows) {
        // Best-of-two: these rows feed a ratio with a CI floor, and a
        // single short run is at the mercy of the scheduler. Either
        // run failing conformance still fails the row.
        SweepResult r =
            benchConfig(adaptiveSessions, 64 * 1024, adaptiveTraces,
                        *row.trace, bspec, *row.ref, row.target);
        {
            const SweepResult again = benchConfig(
                adaptiveSessions, 64 * 1024, adaptiveTraces,
                *row.trace, bspec, *row.ref, row.target);
            const std::uint64_t mm = r.mismatches + again.mismatches;
            const std::uint64_t ff = r.failures + again.failures;
            if (again.eventsPerSec() > r.eventsPerSec())
                r = again;
            r.mismatches = mm;
            r.failures = ff;
        }
        r.mode = row.mode;
        results.push_back(r);
        std::printf("%-22s %10.3f %12.0f %12.3f %8llu%s\n",
                    ("bursty_" + std::string(row.mode)).c_str(),
                    r.wallSecs, r.eventsPerSec(), r.meanLatencyMs,
                    static_cast<unsigned long long>(r.busyRetries),
                    r.mismatches + r.failures ? "  CONFORMANCE FAIL"
                                              : "");
        if (r.mismatches + r.failures)
            clean = false;
        if (std::strcmp(row.mode, "fine") == 0) {
            fineEps = r.eventsPerSec();
            staticSheds += r.sheds;
        } else if (std::strcmp(row.mode, "coarse") == 0) {
            coarseEps = r.eventsPerSec();
            staticSheds += r.sheds;
        } else {
            adaptiveEps = r.eventsPerSec();
            adaptiveSheds = r.sheds;
        }
    }
    const double bestStatic = std::max(fineEps, coarseEps);
    const double adaptiveRatio =
        bestStatic > 0 ? adaptiveEps / bestStatic : 0.0;
    std::printf("adaptive vs best static: %.3fx (sheds %llu vs %llu)\n",
                adaptiveRatio,
                static_cast<unsigned long long>(adaptiveSheds),
                static_cast<unsigned long long>(staticSheds));

    // Write-then-rename, like JsonRecorder: never leave a torn file.
    const std::string path =
        bfly::bench::benchJsonDir() + "/BENCH_bench_service.json";
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_service\",\n  \"quick\": %s,\n"
                 "  \"adaptive_ratio\": %.3f,\n"
                 "  \"adaptive_sheds\": %llu,\n"
                 "  \"static_sheds\": %llu,\n"
                 "  \"sweep\": [\n",
                 quick ? "true" : "false", adaptiveRatio,
                 static_cast<unsigned long long>(adaptiveSheds),
                 static_cast<unsigned long long>(staticSheds));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SweepResult &r = results[i];
        std::fprintf(
            f,
            "    {\"mode\": \"%s\", \"sessions\": %zu, "
            "\"chunk_bytes\": %zu, "
            "\"traces\": %zu, \"events\": %llu, \"wall_seconds\": %.6f, "
            "\"events_per_sec\": %.0f, \"mean_latency_ms\": %.3f, "
            "\"busy_retries\": %llu, \"mismatches\": %llu, "
            "\"failures\": %llu, \"sheds\": %llu, "
            "\"h_changes\": %llu}%s\n",
            r.mode.c_str(), r.sessions, r.chunkBytes, r.traces,
            static_cast<unsigned long long>(r.events), r.wallSecs,
            r.eventsPerSec(), r.meanLatencyMs,
            static_cast<unsigned long long>(r.busyRetries),
            static_cast<unsigned long long>(r.mismatches),
            static_cast<unsigned long long>(r.failures),
            static_cast<unsigned long long>(r.sheds),
            static_cast<unsigned long long>(r.hChanges),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::fclose(f) != 0 || std::rename(tmp.c_str(), path.c_str())) {
        std::remove(tmp.c_str());
        std::fprintf(stderr, "cannot finalize %s\n", path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", path.c_str());
    return clean ? 0 : 1;
}
