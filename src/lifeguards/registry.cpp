#include "lifeguards/registry.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <stdexcept>

#include "butterfly/reaching_defs.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "lifeguards/addrleak.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/lockset.hpp"

namespace bfly {

namespace {

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** A lifeguard's config from the registry parameters. */
template <typename Config>
Config
configOf(const LifeguardParams &p)
{
    Config cfg;
    cfg.granularity = p.granularity;
    if constexpr (requires { cfg.heapBase; }) {
        cfg.heapBase = p.heapBase;
        cfg.heapLimit = p.heapLimit;
    }
    return cfg;
}

template <typename Driver, typename Config>
std::unique_ptr<AnalysisDriver>
makeDriver(const LifeguardParams &p)
{
    return std::make_unique<Driver>(p.numThreads, configOf<Config>(p));
}

std::unique_ptr<AnalysisDriver>
makeTaintCheck(const LifeguardParams &p)
{
    return std::make_unique<ButterflyTaintCheck>(
        p.numThreads, configOf<TaintCheckConfig>(p), p.termination);
}

std::unique_ptr<AnalysisDriver>
makeReachingDefs(const LifeguardParams &p)
{
    return std::make_unique<ReachingDefinitions>(p.numThreads);
}

/** Sorted error records, plus the final SOS where the lifeguard has one. */
template <typename Driver>
LifeguardReport
errorReport(const AnalysisDriver &base, std::size_t)
{
    const auto &driver = dynamic_cast<const Driver &>(base);
    LifeguardReport report;
    report.records = driver.errors().records();
    std::ranges::sort(report.records);
    if constexpr (requires { driver.sosNow(); })
        report.sos = driver.sosNow().sorted();
    return report;
}

/** FNV over every per-epoch and per-block dataflow set. */
LifeguardReport
reachingDefsReport(const AnalysisDriver &base, std::size_t num_epochs)
{
    const auto &driver = dynamic_cast<const ReachingDefinitions &>(base);
    std::uint64_t h = kFnvBasis;
    for (EpochId l = 0; l < num_epochs; ++l) {
        for (DefId d : driver.sos(l).sorted())
            fnv(h, d);
        fnv(h, 0x5051);
        for (DefId d : driver.genEpoch(l).sorted())
            fnv(h, d);
        fnv(h, 0x5052);
        for (ThreadId t = 0; t < driver.numThreads(); ++t) {
            for (DefId d : driver.blockResults(l, t).in.sorted())
                fnv(h, d);
            fnv(h, 0x5053);
            for (DefId d : driver.blockResults(l, t).out.sorted())
                fnv(h, d);
            fnv(h, 0x5054);
        }
    }
    LifeguardReport report;
    report.fingerprint = h;
    return report;
}

template <typename Oracle, typename Config>
ErrorLog
runOracle(const Trace &trace, const LifeguardParams &p)
{
    Oracle oracle(configOf<Config>(p));
    oracle.runOnTrace(trace);
    return oracle.errors();
}

constexpr LifeguardEntry kEntries[] = {
    {Lifeguard::AddrCheck, "ADDRCHECK", AddrCheckConfig{}.granularity,
     FpCounting::PerEvent, makeDriver<ButterflyAddrCheck, AddrCheckConfig>,
     errorReport<ButterflyAddrCheck>,
     runOracle<AddrCheckOracle, AddrCheckConfig>},
    {Lifeguard::TaintCheck, "TAINTCHECK", TaintCheckConfig{}.granularity,
     FpCounting::Unchecked, makeTaintCheck, errorReport<ButterflyTaintCheck>,
     runOracle<TaintCheckOracle, TaintCheckConfig>},
    {Lifeguard::DefCheck, "DEFINEDCHECK", DefCheckConfig{}.granularity,
     FpCounting::Unchecked, makeDriver<ButterflyDefCheck, DefCheckConfig>,
     errorReport<ButterflyDefCheck>,
     runOracle<DefCheckOracle, DefCheckConfig>},
    // No config and no oracle; the granularity is the SessionSpec
    // default, which the analysis ignores.
    {Lifeguard::ReachingDefs, "REACHING-DEFS", 8, FpCounting::Unchecked,
     makeReachingDefs, reachingDefsReport, nullptr},
    {Lifeguard::LockSet, "LOCKSET", LockSetConfig{}.granularity,
     FpCounting::PerVariable, makeDriver<ButterflyLockSet, LockSetConfig>,
     errorReport<ButterflyLockSet>,
     runOracle<LockSetOracle, LockSetConfig>},
    {Lifeguard::AddrLeak, "ADDRLEAK", AddrLeakConfig{}.granularity,
     FpCounting::PerEvent, makeDriver<ButterflyAddrLeak, AddrLeakConfig>,
     errorReport<ButterflyAddrLeak>,
     runOracle<AddrLeakOracle, AddrLeakConfig>},
};

static_assert(std::size(kEntries) == std::size(kAllLifeguards));
static_assert(
    [] {
        for (std::size_t i = 0; i < std::size(kEntries); ++i)
            if (kEntries[i].id != kAllLifeguards[i] ||
                static_cast<std::size_t>(kEntries[i].id) != i)
                return false;
        return true;
    }(),
    "kEntries must be indexed by the Lifeguard wire byte");

} // namespace

std::uint64_t
LifeguardReport::digest() const
{
    std::uint64_t h = kFnvBasis;
    for (const ErrorRecord &r : records) {
        fnv(h, r.tid);
        fnv(h, r.index);
        fnv(h, r.addr);
        fnv(h, static_cast<std::uint64_t>(r.kind));
        fnv(h, r.size);
    }
    fnv(h, 0x5050);
    for (Addr a : sos)
        fnv(h, a);
    fnv(h, fingerprint);
    return h;
}

const LifeguardEntry *
findLifeguard(std::uint8_t id)
{
    return id < std::size(kEntries) ? &kEntries[id] : nullptr;
}

const LifeguardEntry *
findLifeguard(std::string_view name)
{
    for (const LifeguardEntry &entry : kEntries) {
        const std::string_view candidate = entry.name;
        if (std::ranges::equal(candidate, name, [](char a, char b) {
                return std::tolower(static_cast<unsigned char>(a)) ==
                       std::tolower(static_cast<unsigned char>(b));
            }))
            return &entry;
    }
    return nullptr;
}

const LifeguardEntry &
lifeguardEntry(Lifeguard lg)
{
    const LifeguardEntry *entry =
        findLifeguard(static_cast<std::uint8_t>(lg));
    if (!entry)
        throw std::out_of_range("unregistered lifeguard");
    return *entry;
}

const char *
lifeguardName(Lifeguard lg)
{
    return lifeguardEntry(lg).name;
}

} // namespace bfly
