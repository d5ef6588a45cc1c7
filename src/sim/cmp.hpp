/**
 * @file
 * Chip-multiprocessor memory hierarchy (Table 1 configuration).
 *
 * Per-core L1-D caches above a shared, banked L2, above memory. Coherence is
 * write-invalidate across the L1s: a write by one core removes the line from
 * every other core's L1, so producer/consumer sharing patterns (e.g. OCEAN's
 * boundary exchanges) pay coherence misses just as on real hardware. The
 * returned latency per access is what the core timing model charges.
 * Every geometry is a power of two: L1 and L2 as Cache requires, and the
 * L2 bank count.
 */

#ifndef BUTTERFLY_SIM_CMP_HPP
#define BUTTERFLY_SIM_CMP_HPP

#include <memory>
#include <vector>

#include "sim/cache.hpp"

namespace bfly {

/** Full CMP configuration, defaults from the paper's Table 1. */
struct CmpConfig
{
    unsigned numCores = 8;
    CacheConfig l1d{64 * 1024, 4, 64, 2};
    CacheConfig l2{4 * 1024 * 1024, 8, 64, 6};
    unsigned l2Banks = 4;
    Cycles memLatency = 90;

    /**
     * Table 1 scales L2 with core count: 4 cores - 2 MB, 8 - 4 MB,
     * 16 - 8 MB. @return config for @p cores total cores.
     */
    static CmpConfig forCores(unsigned cores);
};

/** Aggregate hit/miss/invalidation counters of one CMP, for reporting. */
struct CacheStats
{
    std::uint64_t coherenceInvalidations = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;

    bool operator==(const CacheStats &) const = default;
};

/** The memory system: per-core L1s, shared banked L2, memory. */
class Cmp
{
  public:
    explicit Cmp(const CmpConfig &config);

    /**
     * Perform one data access by @p core.
     * @return total latency in cycles (L1 hit latency at minimum).
     */
    Cycles access(unsigned core, Addr addr, bool is_write);

    const CmpConfig &config() const { return config_; }

    /** Counters summed over every L1 and every L2 bank. */
    CacheStats stats() const;

  private:
    CmpConfig config_;
    std::vector<Cache> l1_;   ///< one per core
    std::vector<Cache> l2_;   ///< one per bank
    std::uint64_t coherenceMisses_ = 0;

    unsigned l2LineShift_ = 0;
    std::size_t bankMask_ = 0;

    std::size_t
    bankOf(Addr addr) const
    {
        return (addr >> l2LineShift_) & bankMask_;
    }
};

} // namespace bfly

#endif // BUTTERFLY_SIM_CMP_HPP
