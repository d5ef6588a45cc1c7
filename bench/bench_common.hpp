/**
 * @file
 * Shared infrastructure for the paper-reproduction benchmarks.
 *
 * Every figure benchmark drives full monitoring sessions through the
 * harness. Sessions are deterministic and relatively slow (seconds), so
 * results are memoized per configuration and each google-benchmark
 * registration runs one iteration, reporting the paper's metrics as
 * counters. A human-readable table in the paper's layout is printed at
 * exit.
 *
 * Scale note: the paper ran billions of instructions per benchmark with
 * epoch sizes h of 8K and 64K instructions. This reproduction runs
 * ~400K events per thread with h of 2048 and 16384 — the same 8x epoch
 * ratio and the same epochs-per-phase ratios, so relative shapes are
 * preserved while absolute false-positive rates sit higher (see
 * EXPERIMENTS.md).
 */

#ifndef BUTTERFLY_BENCH_BENCH_COMMON_HPP
#define BUTTERFLY_BENCH_BENCH_COMMON_HPP

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/session.hpp"
#include "telemetry/exporter.hpp"

namespace bfly::bench {

/**
 * Output directory for the per-binary JSON result file. Defaults to the
 * directory holding the benchmark binary (i.e. inside the build tree),
 * so running a bench from the source root cannot litter it with
 * artifacts; override with BFLY_BENCH_JSON_DIR.
 */
inline std::string
benchJsonDir()
{
    if (const char *dir = std::getenv("BFLY_BENCH_JSON_DIR"))
        return dir;
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec && exe.has_parent_path())
        return exe.parent_path().string();
    return ".";
}

/**
 * Collects (name, config, wall seconds, events/sec) rows and writes
 * `BENCH_<binary>.json` at process exit, so every benchmark binary
 * leaves a machine-readable record of the run for perf tracking.
 */
class JsonRecorder
{
  public:
    static JsonRecorder &
    get()
    {
        static JsonRecorder r;
        return r;
    }

    void
    record(std::string name, std::string config, double wall_seconds,
           double events_per_sec)
    {
        rows_.push_back(Row{std::move(name), std::move(config),
                            wall_seconds, events_per_sec});
    }

    ~JsonRecorder()
    {
        if (rows_.empty())
            return;
        // Write-then-rename so a crash (or two binaries racing on the
        // same output directory) never leaves a truncated JSON file for
        // the CI parser to choke on: readers see the old file or the
        // complete new one, nothing in between.
        const std::string path =
            benchJsonDir() + "/BENCH_" + binaryName() + ".json";
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (!f)
            return;
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                     binaryName().c_str());
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"config\": \"%s\", "
                         "\"wall_seconds\": %.6f, "
                         "\"events_per_sec\": %.1f}%s\n",
                         r.name.c_str(), r.config.c_str(), r.wallSeconds,
                         r.eventsPerSec, i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        const bool ok = std::fclose(f) == 0;
        if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0)
            std::remove(tmp.c_str());
    }

    static std::string
    binaryName()
    {
#if defined(__GLIBC__)
        return program_invocation_short_name;
#else
        return "bench";
#endif
    }

  private:
    struct Row
    {
        std::string name;
        std::string config;
        double wallSeconds;
        double eventsPerSec;
    };
    std::vector<Row> rows_;
};

/**
 * Telemetry capture directory for benchmark runs, or nullptr.
 *
 * Set BFLY_TELEMETRY_DIR=/some/dir to enable telemetry around every
 * session a benchmark binary runs and write one
 * `<workload>_t<threads>_h<epoch>.metrics.json` (registry snapshot) and
 * matching `.trace.json` (Chrome trace, Perfetto-loadable) per session
 * into that directory. Unset, telemetry stays disabled and sessions run
 * at full speed.
 */
inline const char *
telemetryDir()
{
    static const char *dir = std::getenv("BFLY_TELEMETRY_DIR");
    return dir;
}

/** The paper's epoch sizes, scaled by the run-length compression. */
inline constexpr std::size_t kSmallEpoch = 2048;  ///< "h = 8K"
inline constexpr std::size_t kLargeEpoch = 16384; ///< "h = 64K"

/** Thread counts from Figure 11. */
inline constexpr unsigned kThreadCounts[] = {2, 4, 8};

/** Benchmark-scale workload knobs. */
inline SessionConfig
paperSession(WorkloadFactory factory, unsigned threads,
             std::size_t epoch_size)
{
    SessionConfig cfg;
    cfg.factory = factory;
    cfg.workload.numThreads = threads;
    cfg.workload.instrPerThread = 400000;
    cfg.workload.phaseEvents = 9000;
    cfg.workload.warmupNops = 40000;
    cfg.epochSize = epoch_size;
    return cfg;
}

/** Memoized session runner keyed by (workload, threads, epoch). */
inline const SessionResult &
cachedSession(const std::string &workload, WorkloadFactory factory,
              unsigned threads, std::size_t epoch_size)
{
    using Key = std::tuple<std::string, unsigned, std::size_t>;
    static std::map<Key, SessionResult> cache;
    const Key key{workload, threads, epoch_size};
    auto it = cache.find(key);
    if (it == cache.end()) {
        const char *dir = telemetryDir();
        if (dir) {
            telemetry::setEnabled(true);
            telemetry::resetAll(); // one export per session
        }
        const auto t0 = std::chrono::steady_clock::now();
        it = cache
                 .emplace(key, runSession(paperSession(
                                   factory, threads, epoch_size)))
                 .first;
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const std::string config = workload + "_t" +
                                   std::to_string(threads) + "_h" +
                                   std::to_string(epoch_size);
        JsonRecorder::get().record(
            "session", config, wall,
            wall > 0.0 ? static_cast<double>(it->second.instructions) /
                             wall
                       : 0.0);
        if (dir) {
            const std::string stem = std::string(dir) + "/" + workload +
                                     "_t" + std::to_string(threads) +
                                     "_h" + std::to_string(epoch_size);
            telemetry::dumpMetricsJson(stem + ".metrics.json");
            telemetry::dumpChromeTrace(stem + ".trace.json");
        }
    }
    return it->second;
}

} // namespace bfly::bench

#endif // BUTTERFLY_BENCH_BENCH_COMMON_HPP
