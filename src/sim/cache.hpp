/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Functional-for-timing only: the model tracks which lines are resident so
 * the CMP can charge hit/miss latencies (Table 1 of the paper); it stores no
 * data. Invalidation hooks support the write-invalidate coherence the CMP
 * layer implements across L1s. The geometry is a power of two throughout,
 * so a line, a set and a bank are a shift and a mask away from an address.
 */

#ifndef BUTTERFLY_SIM_CACHE_HPP
#define BUTTERFLY_SIM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace bfly {

/**
 * Geometry and latency of one cache level. lineBytes (at least 2),
 * indexDivisor and numSets() must be powers of two; Cache refuses any
 * other geometry.
 */
struct CacheConfig
{
    std::size_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    Cycles latency = 2;
    /** Set-index divisor for banked caches: when an outer level selects
     *  a bank with (line % banks), the bank must index sets with
     *  line / banks or the bank-selection bits alias into the index. */
    unsigned indexDivisor = 1;

    std::size_t numSets() const
    {
        return sizeBytes / (std::size_t{assoc} * lineBytes);
    }
};

/** One set-associative LRU cache. */
class Cache
{
  public:
    /** Refuses a geometry that is not a power of two (see CacheConfig). */
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing @p addr, filling it on a miss.
     * @return true on hit.
     */
    bool access(Addr addr);

    /** True if the line containing @p addr is resident (no state change). */
    bool probe(Addr addr) const;

    /**
     * Drop the line containing @p addr if resident.
     * @return true if it was resident.
     */
    bool invalidate(Addr addr);

    /** Drop everything. */
    void flush();

    /** True if no line is resident. */
    bool empty() const { return resident_ == 0; }

    const CacheConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    /** Tag of an empty way; no line of two bytes or more reaches it. */
    static constexpr Addr kEmpty = kNoAddr;

    Addr lineOf(Addr addr) const { return addr >> lineShift_; }

    /** Index of the first way of @p line's set. */
    std::size_t
    baseOf(Addr line) const
    {
        return ((line >> indexShift_) & setMask_) * config_.assoc;
    }

    CacheConfig config_;
    unsigned lineShift_ = 0;
    unsigned indexShift_ = 0;
    std::size_t setMask_ = 0;
    // Ways, numSets x assoc, row-major: the resident line (kEmpty if
    // none) and the clock_ value of its last use.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::size_t resident_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t invalidations_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_SIM_CACHE_HPP
