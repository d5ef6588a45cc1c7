/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * record every workload fills, the in-memory span tracer, sample
 * statistics and the host-drift probe.
 */

#ifndef BFLY_PERFBENCH_COMMON_HPP
#define BFLY_PERFBENCH_COMMON_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small inputs for the benchmark's own tests (never timed). */
    bool tiny = false;
    /** Corrupt the reference of input 0, for the failure-path test. */
    bool plantWrongReference = false;
    std::string serveBin; ///< path of bfly_serve (serve-* only)
    std::string selfBin;  ///< path of this binary (setup probes)
    std::string outDir;   ///< where the Chrome trace is written
};

/** One named metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything a workload reports back to main(). */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Per-input output fingerprint, folded over inputs in order. */
    std::uint64_t fingerprint = 0;
    /** Free-form diagnostics printed beside the metrics. */
    std::map<std::string, std::string> notes;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }
};

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** SplitMix64 finalizer: derives independent seeds from the run seed. */
std::uint64_t mix64(std::uint64_t x);

/** Seed for stream @p stream, item @p index of run seed @p seed. */
inline std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    return mix64(mix64(seed ^ mix64(stream)) + index) | 1;
}

/** FNV-1a style fold of one 64-bit word. */
inline void
fnv(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Call @p fn(i) for every i < @p n on 4 threads (input preparation,
 *  before anything is timed). The first exception @p fn throws is
 *  rethrown once every thread has stopped. */
template <typename Fn>
void
parallelFor(std::size_t n, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::exception_ptr error; // guarded by mutex
    std::vector<std::thread> threads;
    for (int w = 0; w < 4; ++w)
        threads.emplace_back([&] {
            try {
                for (std::size_t i; (i = next.fetch_add(1)) < n;)
                    fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                next.store(n);
            }
        });
    for (std::thread &t : threads)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Value at quantile @p q (nearest rank) of @p v (0 when empty). */
double quantile(std::vector<double> v, double q);

/**
 * The highest percentile of a fixed ladder (p50, p75, p90, p99, p99.9,
 * p99.99) that still has at least @p beyond samples above it, never
 * higher than @p cap. A fixed ladder keeps the percentile the same from
 * run to run when the session count wobbles.
 */
double tailQuantile(std::size_t samples, double cap, std::size_t beyond = 10);

/** VmHWM of @p pid (0 = this process) in MiB, from /proc. */
double peakRssMb(pid_t pid = 0);

/**
 * Windowed peak resident set size of @p pid (0 = this process): every
 * second a thread reads VmHWM and resets it through clear_refs, so each
 * sample is the peak of one window. Their median is steady where the
 * whole-run VmHWM is not: glibc's per-thread arenas and its moving mmap
 * threshold make the single largest moment of a run swing by a third
 * between runs of the same input.
 */
class PeakRssSampler
{
  public:
    explicit PeakRssSampler(pid_t pid);
    ~PeakRssSampler();
    PeakRssSampler(const PeakRssSampler &) = delete;
    PeakRssSampler &operator=(const PeakRssSampler &) = delete;

    /** Stop sampling; the median window peak in MiB (the whole-span
     *  VmHWM when no full window elapsed or the reset is refused). */
    double stop();

  private:
    bool reset();

    pid_t pid_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false; ///< guarded by mutex_
    bool resettable_ = true;
    std::vector<double> samples_;
    std::thread thread_; ///< last: it reads the members above
};

/**
 * Fixed-work host probe: a dependent integer loop and a random walk over
 * a 64 MiB buffer, each well under 100 ms. The times say how fast the
 * host is right now; they are diagnostics, not metrics.
 */
struct HostProbe
{
    double cpuMs = 0.0;
    double memMs = 0.0;
};
HostProbe probeHost();

/** One traced interval (Chrome trace "X" event). */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;          ///< index of the enclosing span, -1 = root
    std::uint64_t session = 0; ///< spans of one session share this id
    std::uint64_t tid = 0;     ///< recording thread
};

/**
 * In-memory span recorder. Thread-safe: the butterfly wrapper records
 * from pool workers. Spans are written out only at exit. The library's
 * own telemetry spans stay off: switching them on would turn on every
 * span and counter inside src/ as well, changing what is measured.
 */
class Tracer
{
  public:
    Tracer();

    int begin(const std::string &name, int parent, std::uint64_t session);
    void end(int index);

    /** Copy of every recorded span (call once recording has stopped). */
    std::vector<Span> spans() const;

    /** Self time of each span in ms: its duration minus the union of
     *  the intervals its direct children cover. */
    std::vector<double> selfMs() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path) const;

  private:
    double nowUs() const;

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name, int parent,
          std::uint64_t session)
        : tracer_(tracer), index_(tracer.begin(name, parent, session))
    {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int index() const { return index_; }

  private:
    Tracer &tracer_;
    int index_;
};

/**
 * Per-session totals of span durations by name: result[name] holds one
 * value per session id that recorded at least one span (summed over
 * that session's spans of the name). With @p self the span self time
 * is summed instead of its duration.
 */
std::map<std::string, std::vector<double>>
perSessionMs(const Tracer &tracer, bool self);

} // namespace perfbench

#endif // BFLY_PERFBENCH_COMMON_HPP
