/**
 * @file
 * Differential conformance runner: executes one fuzz case through every
 * lifeguard in both scheduling modes and machine-checks the paper's
 * correctness claims as properties.
 *
 * Invariants checked per case:
 *
 *  - mode equivalence (Theorem-free, but the repo's own guarantee): the
 *    sequential barrier walk over a materialized layout (the reference)
 *    and the pipelined task graph over a streaming EpochStream (the
 *    monitoring service's path) must produce bit-identical reports
 *    (error records, SOS, and — for the generic reaching-defs
 *    analysis — every per-epoch/per-block dataflow set);
 *
 *  - oracle subsumption (Theorems 6.1/6.2): the butterfly lifeguard
 *    never misses an error the exact sequential oracle flags — zero
 *    false negatives for ADDRCHECK, TAINTCHECK, DEFINEDCHECK, LOCKSET
 *    and ADDRLEAK under the replayed true interleaving;
 *
 *  - epoch-size monotonicity (Fig. 12/13 direction): shrinking epochs
 *    can only shrink the false-positive count. Checked between the
 *    case's H and factor*H (the factor keeps boundaries nested, so the
 *    small-epoch concurrency relation is a subset of the large one),
 *    counted as the lifeguard's registry entry says (FpCounting):
 *    ADDRCHECK and ADDRLEAK per flagged event, LOCKSET per flagged
 *    variable (attribution may legitimately move between epoch sizes,
 *    the set of racy variables may only shrink).
 *
 *  - elision soundness (opt-in, --elision): stamping deterministic
 *    pseudo-sites on the materialized trace, building an ElisionPlan
 *    with the static classifier, applying it, and re-running every
 *    error-reporting lifeguard on the elided trace must still subsume
 *    the sequential oracle run on the *full* trace — static elision may
 *    never introduce a false negative, for any lifeguard, on any
 *    scenario family the fuzzer generates.
 *
 * Mutation testing: a FaultPlan deliberately corrupts one lifeguard's
 * report (dropping records of one kind in a subset of modes) before the
 * invariants are evaluated. A fault in some modes must surface as a
 * mode-equivalence violation; a fault in *all* modes must surface as a
 * false negative. The unit tests use this to prove the runner actually
 * catches and minimizes injected lifeguard bugs.
 */

#ifndef BUTTERFLY_FUZZ_DIFFERENTIAL_RUNNER_HPP
#define BUTTERFLY_FUZZ_DIFFERENTIAL_RUNNER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/trace_fuzzer.hpp"
#include "lifeguards/registry.hpp"

namespace bfly::fuzz {

/** Scheduling modes: the two schedules callers actually use. */
enum class RunMode : std::uint8_t {
    Sequential,      ///< barrier walk on the calling thread (reference)
    PipelinedStream, ///< dependency task graph over an EpochStream
};
inline constexpr RunMode kAllModes[] = {RunMode::Sequential,
                                        RunMode::PipelinedStream};
/** FaultPlan::modeMask value covering every mode (1 bit per RunMode). */
inline constexpr std::uint8_t kAllModesMask =
    (1u << std::size(kAllModes)) - 1;
const char *runModeName(RunMode mode);

/** FaultPlan::modeMask bit of @p mode. */
constexpr std::uint8_t
modeBit(RunMode mode)
{
    return static_cast<std::uint8_t>(1u << static_cast<unsigned>(mode));
}

/** Which property a violation breaches. */
enum class Invariant : std::uint8_t {
    ModeEquivalence,
    OracleSubsumption,
    FpMonotonicity,
    ElisionSoundness, ///< elided trace still subsumes the full oracle
};
const char *invariantName(Invariant inv);

/** Deliberate report corruption for mutation-testing the runner. */
struct FaultPlan
{
    bool enabled = false;
    Lifeguard target = Lifeguard::AddrCheck;
    /** Records of this kind are dropped from the corrupted reports. */
    ErrorKind dropKind = ErrorKind::UnallocatedAccess;
    /** Bit per RunMode (1 << mode); modeBit() builds one. kAllModesMask
     *  simulates a true false negative; a subset simulates a
     *  scheduling-dependent bug. */
    std::uint8_t modeMask = 0;

    bool
    corrupts(Lifeguard lg, RunMode mode) const
    {
        return enabled && lg == target &&
               (modeMask & modeBit(mode)) != 0;
    }
};

/** One property breach, with enough context to triage. */
struct Violation
{
    Invariant invariant = Invariant::ModeEquivalence;
    Lifeguard lifeguard = Lifeguard::AddrCheck;
    /** Mode that diverged (mode equivalence only). */
    RunMode mode = RunMode::Sequential;
    std::string detail;

    std::string toString() const;
};

/** Everything measured while running one case. */
struct CaseOutcome
{
    std::vector<Violation> violations;
    std::size_t events = 0;
    std::size_t epochs = 0;
    std::size_t oracleErrors = 0;
    std::size_t butterflyErrors = 0; ///< ADDRCHECK sequential-mode flags
    std::size_t falsePositives = 0;  ///< ADDRCHECK at the case's H
    std::size_t elidedEvents = 0;    ///< events dropped by the plan
    std::size_t summaryEvents = 0;   ///< SiteSummary events emitted
    /** TAINTCHECK checks that hit kMaxResolvedPerCheck and fell back to
     *  "assume tainted" (sequential mode). */
    std::size_t budgetExhausted = 0;

    bool clean() const { return violations.empty(); }
};

/** Runner configuration. */
struct RunnerConfig
{
    bool checkModeEquivalence = true;
    bool checkOracleSubsumption = true;
    bool checkFpMonotonicity = true;
    /** Compare FP(H) against FP(factor*H); factor keeps epoch boundaries
     *  nested so uncertainty shrinks pointwise. */
    std::size_t monotonicityFactor = 4;
    /** Build + apply an ElisionPlan (deterministic pseudo-sites) and
     *  require the elided run to still subsume the full-trace oracle. */
    bool checkElision = false;
    FaultPlan fault;
};

/** Executes cases and evaluates the conformance invariants. */
class DifferentialRunner
{
  public:
    explicit DifferentialRunner(const RunnerConfig &config = {})
        : config_(config)
    {}

    const RunnerConfig &config() const { return config_; }

    /** Run every lifeguard in every mode over @p c and check invariants. */
    CaseOutcome run(const FuzzCase &c) const;

  private:
    RunnerConfig config_;
};

} // namespace bfly::fuzz

#endif // BUTTERFLY_FUZZ_DIFFERENTIAL_RUNNER_HPP
