#include "sim/cmp.hpp"

#include <bit>

#include "common/logging.hpp"

namespace bfly {

CmpConfig
CmpConfig::forCores(unsigned cores)
{
    CmpConfig cfg;
    cfg.numCores = cores;
    if (cores <= 4)
        cfg.l2.sizeBytes = 2 * 1024 * 1024;
    else if (cores <= 8)
        cfg.l2.sizeBytes = 4 * 1024 * 1024;
    else
        cfg.l2.sizeBytes = 8 * 1024 * 1024;
    return cfg;
}

Cmp::Cmp(const CmpConfig &config) : config_(config)
{
    ensure(config_.numCores > 0, "CMP needs at least one core");
    ensure(std::has_single_bit(config_.l2Banks),
           "L2 bank count must be a power of two");
    l2LineShift_ =
        static_cast<unsigned>(std::countr_zero(config_.l2.lineBytes));
    bankMask_ = config_.l2Banks - 1;
    l1_.reserve(config_.numCores);
    for (unsigned c = 0; c < config_.numCores; ++c)
        l1_.emplace_back(config_.l1d);

    // Each bank holds an equal share of the total L2 capacity.
    CacheConfig bank = config_.l2;
    bank.sizeBytes = config_.l2.sizeBytes / config_.l2Banks;
    bank.indexDivisor = config_.l2Banks;
    l2_.reserve(config_.l2Banks);
    for (unsigned b = 0; b < config_.l2Banks; ++b)
        l2_.emplace_back(bank);
}

Cycles
Cmp::access(unsigned core, Addr addr, bool is_write)
{
    ensure(core < l1_.size(), "core id out of range");

    Cycles latency = config_.l1d.latency;
    const bool l1_hit = l1_[core].access(addr);
    if (!l1_hit) {
        latency += config_.l2.latency;
        const bool l2_hit = l2_[bankOf(addr)].access(addr);
        if (!l2_hit)
            latency += config_.memLatency;
    }

    if (is_write) {
        // Write-invalidate coherence: knock the line out of all other L1s
        // (an L1 that holds no line, such as an idle core's, has none to
        // lose).
        for (unsigned c = 0; c < l1_.size(); ++c) {
            if (c != core && !l1_[c].empty() && l1_[c].invalidate(addr))
                ++coherenceMisses_;
        }
    }
    return latency;
}

CacheStats
Cmp::stats() const
{
    CacheStats s;
    s.coherenceInvalidations = coherenceMisses_;
    for (const Cache &c : l1_) {
        s.l1Hits += c.hits();
        s.l1Misses += c.misses();
    }
    for (const Cache &c : l2_) {
        s.l2Hits += c.hits();
        s.l2Misses += c.misses();
    }
    return s;
}

} // namespace bfly
