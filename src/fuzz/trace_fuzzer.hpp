/**
 * @file
 * Seeded generation and mutation of adversarial event traces.
 *
 * The workload generators in src/workloads reproduce the *benign*
 * structure of the paper's benchmarks (barrier-synchronized, race-free
 * unless a bug is injected). The fuzzer deliberately goes the other way:
 * it emits hostile per-thread programs — racy allocation/free
 * interleavings, taint laundering across threads, bursts engineered to
 * straddle heartbeat boundaries, grossly skewed thread progress,
 * degenerate single-event epochs — and schedule-perturbation mutators
 * that reorder commutative events or re-seed the interleaver, so the
 * conformance invariants (see differential_runner.hpp) are exercised far
 * outside the hand-written test corpus.
 *
 * A FuzzCase is a *program*, not a trace: per-thread event sequences plus
 * the interleave seed, memory model and epoch size needed to reconstruct
 * the execution deterministically. Global sequence numbers are never
 * stored (a real log has no global order); they are re-derived by running
 * the interleaver, which is what makes minimized repros replayable from a
 * compact serialized form (see corpus.hpp).
 */

#ifndef BUTTERFLY_FUZZ_TRACE_FUZZER_HPP
#define BUTTERFLY_FUZZ_TRACE_FUZZER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lifeguards/registry.hpp"
#include "memmodel/interleaver.hpp"
#include "trace/trace.hpp"

namespace bfly::fuzz {

/** One reproducible fuzz input: programs + execution parameters. */
struct FuzzCase
{
    std::uint64_t caseId = 0;
    /** Generator that produced it (stable names, see scenarioNames()). */
    std::string scenario;

    /** Per-thread event programs, program order, no heartbeats. */
    std::vector<std::vector<Event>> programs;

    /** Monitored heap window handed to ADDRCHECK / DEFINEDCHECK. */
    Addr heapBase = 0;
    Addr heapLimit = 0;

    /** Execution parameters: re-running interleave() with these yields
     *  the exact trace this case denotes. */
    MemModel model = MemModel::SequentiallyConsistent;
    std::uint64_t interleaveSeed = 1;
    /** Relative thread speeds (empty = uniform); the skew scenarios use
     *  this to drive epoch-skewed thread progress. */
    std::vector<double> speedWeights;

    /** Epoch size H in *global* events (EpochLayout::byGlobalSeq). */
    std::size_t globalH = 64;

    std::size_t
    totalEvents() const
    {
        std::size_t n = 0;
        for (const auto &p : programs)
            n += p.size();
        return n;
    }

    /** Execute the case: interleave the programs under its model/seed. */
    Trace materialize() const;

    /** How @p lg monitors this case on @p num_threads threads: the
     *  case's heap window, the lifeguard's default granularity, and
     *  relaxed taint termination under TSO. */
    LifeguardParams lifeguardParams(Lifeguard lg,
                                    std::size_t num_threads) const;
};

/** Generation knobs. */
struct FuzzerConfig
{
    std::uint64_t seed = 1;
    /** Threads per case are drawn from [1, maxThreads]. */
    unsigned maxThreads = 4;
    /** Events per thread are drawn up to this bound (scenarios may use
     *  fewer; degenerate-epoch cases are intentionally tiny). */
    std::size_t maxEventsPerThread = 240;
    /** Permit TSO executions (epoch sizes are kept above the
     *  store-buffer drift bound so the butterfly premise holds). */
    bool allowTso = true;
    /** Probability that next() mutates a recently generated case
     *  instead of generating a fresh one. */
    double mutateProbability = 0.35;
};

/** Names of the generation scenarios, for reporting. */
const std::vector<std::string> &scenarioNames();

/**
 * Deterministic adversarial case generator. The stream of cases produced
 * by next() is a pure function of FuzzerConfig (including its seed);
 * generate(case_seed) is a pure function of its argument, so any case can
 * be regenerated from its seed alone.
 */
class TraceFuzzer
{
  public:
    explicit TraceFuzzer(const FuzzerConfig &config);

    /** Next case: a fresh scenario draw, or a mutation of a recent case. */
    FuzzCase next();

    /** Generate one case deterministically from @p case_seed. */
    FuzzCase generate(std::uint64_t case_seed) const;

    /**
     * Schedule/structure perturbation of @p base: re-seed the
     * interleaver, swap adjacent commuting events, duplicate/delete an
     * event, retarget an address, jitter H, or splice events across
     * threads. Deterministic in @p mutation_seed.
     */
    FuzzCase mutate(const FuzzCase &base,
                    std::uint64_t mutation_seed) const;

    /** Cases handed out so far. */
    std::uint64_t generated() const { return nextId_; }

  private:
    FuzzerConfig config_;
    Rng rng_;
    std::uint64_t nextId_ = 0;
    /** Small reservoir of recent cases for the mutation path. */
    std::vector<FuzzCase> recent_;
};

} // namespace bfly::fuzz

#endif // BUTTERFLY_FUZZ_TRACE_FUZZER_HPP
