/**
 * @file
 * The lifeguard registry: one table entry per lifeguard, holding
 * everything a caller needs to run it without naming its concrete type.
 *
 * The paper treats a lifeguard as a pluggable set of pass-1, pass-2 and
 * SOS transfer functions (Sections 5-6); this table is where the
 * plugging happens. The service analyzer, the differential fuzzer,
 * monitor_cli and the loadgen all dispatch through it, so which
 * lifeguards exist, how each is configured and how its result is put
 * into canonical form is decided here and nowhere else. Adding a
 * lifeguard is one entry (see DESIGN.md §8, "Writing a new lifeguard").
 */

#ifndef BUTTERFLY_LIFEGUARDS_REGISTRY_HPP
#define BUTTERFLY_LIFEGUARDS_REGISTRY_HPP

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "butterfly/window.hpp"
#include "lifeguards/report.hpp"
#include "lifeguards/taintcheck.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** The monitored analyses. The values are the SessionSpec::lifeguard
 *  wire byte: never renumber an existing one. */
enum class Lifeguard : std::uint8_t {
    AddrCheck = 0,
    TaintCheck = 1,
    DefCheck = 2,
    ReachingDefs = 3, ///< generic analysis: no errors, dataflow sets only
    LockSet = 4,      ///< Eraser-style data races
    AddrLeak = 5,     ///< heap-pointer values reaching output sinks
};

inline constexpr Lifeguard kAllLifeguards[] = {
    Lifeguard::AddrCheck, Lifeguard::TaintCheck, Lifeguard::DefCheck,
    Lifeguard::ReachingDefs, Lifeguard::LockSet, Lifeguard::AddrLeak};

/** How the fuzzer counts a lifeguard's false positives when it checks
 *  FP(H) <= FP(4H). */
enum class FpCounting : std::uint8_t {
    Unchecked,   ///< monotonicity is not asserted for this lifeguard
    PerEvent,    ///< flagged events the oracle does not flag
    /** Flagged addresses the oracle never flags: the race is a property
     *  of the variable, and shrinking epochs may move the report to a
     *  different access of it while the set of variables only shrinks. */
    PerVariable,
};

/** What a factory or an oracle needs to instantiate a lifeguard. */
struct LifeguardParams
{
    std::size_t numThreads = 1;
    /** Monitored heap window; TAINTCHECK and REACHING-DEFS ignore it. */
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;
    unsigned granularity = 8; ///< metadata granularity in bytes
    TaintTermination termination = TaintTermination::SequentialConsistency;
};

/** One run's observable result, in canonical (comparable) form. */
struct LifeguardReport
{
    std::vector<ErrorRecord> records; ///< sorted (tid,index,addr,kind,size)
    std::vector<Addr> sos;            ///< final SOS, sorted, where exposed
    std::uint64_t fingerprint = 0;    ///< dataflow sets (reaching defs)

    bool operator==(const LifeguardReport &) const = default;

    /** FNV-1a over records, SOS and the dataflow fingerprint: one u64
     *  that witnesses the whole report. */
    std::uint64_t digest() const;
};

/** One registered lifeguard. */
struct LifeguardEntry
{
    Lifeguard id;
    const char *name; ///< upper case, e.g. "ADDRCHECK"
    /** The granularity the lifeguard's own config defaults to. */
    unsigned defaultGranularity;
    FpCounting fpCounting;
    /** Build the butterfly driver. */
    std::unique_ptr<AnalysisDriver> (*makeDriver)(const LifeguardParams &);
    /** Canonical report of a driver this entry built, after it ran over
     *  @p num_epochs epochs. Throws std::bad_cast for a foreign driver. */
    LifeguardReport (*report)(const AnalysisDriver &driver,
                              std::size_t num_epochs);
    /** Replay @p trace through the exact sequential oracle and return its
     *  errors; null when the lifeguard has no oracle. */
    ErrorLog (*oracle)(const Trace &trace, const LifeguardParams &params);
};

/** The entry for @p lg; throws std::out_of_range if none is registered. */
const LifeguardEntry &lifeguardEntry(Lifeguard lg);

/** The entry whose wire byte is @p id, or nullptr. */
const LifeguardEntry *findLifeguard(std::uint8_t id);

/** The entry named @p name, compared case-insensitively, or nullptr. */
const LifeguardEntry *findLifeguard(std::string_view name);

/** lifeguardEntry(lg).name. */
const char *lifeguardName(Lifeguard lg);

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_REGISTRY_HPP
