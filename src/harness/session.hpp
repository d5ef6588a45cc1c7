/**
 * @file
 * End-to-end monitoring session: generate a workload, execute it under a
 * memory model, monitor it with butterfly ADDRCHECK, compare against the
 * exact oracle, and price every monitoring mode with the timing model.
 *
 * This is the top-level convenience API the examples and benchmark
 * harnesses use; each stage is also available separately for tests.
 */

#ifndef BUTTERFLY_HARNESS_SESSION_HPP
#define BUTTERFLY_HARNESS_SESSION_HPP

#include <string>

#include "harness/perf_model.hpp"
#include "memmodel/interleaver.hpp"
#include "staticpass/classify.hpp"
#include "workloads/workload.hpp"

namespace bfly {

/** Everything configurable about one run. */
struct SessionConfig
{
    WorkloadFactory factory = nullptr;
    WorkloadConfig workload;
    /** Epoch size h: instructions per thread per epoch (8K/64K in §7). */
    std::size_t epochSize = 8192;
    unsigned granularity = 8;
    MemModel model = MemModel::SequentiallyConsistent;
    std::uint64_t interleaveSeed = 42;
    LifeguardCosts costs;
    std::size_t logBufferBytes = 8 * 1024;
    /**
     * Opt-in: run the static elision pre-pass (src/staticpass/) before
     * monitoring. Events from sites the classifier proves AlwaysPrivate
     * are dropped from the monitored stream and replaced by SiteSummary
     * events carrying exact per-site counts. The oracle still replays
     * the full trace, so the accuracy comparison of every elided run is
     * itself a zero-false-negative proof. Default off.
     */
    bool elide = false;
};

/** Everything measured in one run. */
struct SessionResult
{
    std::string workloadName;
    std::size_t threads = 0;
    std::size_t instructions = 0;
    std::size_t memoryAccesses = 0;
    std::size_t epochs = 0;

    // Static elision (elide mode only; zero/default otherwise).
    staticpass::ClassifyStats siteClasses;
    staticpass::ElisionStats elision;
    std::uint64_t planFingerprint = 0;
    /** Log-codec bytes for the full vs. the monitored (elided) trace —
     *  the bytes-on-the-wire saving the summaries buy. */
    std::size_t encodedBytesFull = 0;
    std::size_t encodedBytesMonitored = 0;

    std::size_t butterflyErrorCount = 0;
    std::size_t oracleErrorCount = 0;
    AccuracyReport accuracy;
    /** Fig. 13 metric: FPs as a fraction of memory accesses. */
    double falsePositiveRate = 0.0;

    PerfReport perf;
};

/** Run the full pipeline for one configuration. */
SessionResult runSession(const SessionConfig &config);

} // namespace bfly

#endif // BUTTERFLY_HARNESS_SESSION_HPP
