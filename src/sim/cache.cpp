#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"

namespace bfly {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    ensure(config.assoc > 0, "cache needs at least one way");
    ensure(config.lineBytes >= 2 && std::has_single_bit(config.lineBytes),
           "cache line size must be a power of two of at least 2 bytes");
    ensure(std::has_single_bit(config.indexDivisor),
           "cache index divisor must be a power of two");
    const std::size_t sets = config.numSets();
    ensure(std::has_single_bit(sets),
           "cache set count must be a power of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(config.lineBytes));
    indexShift_ =
        static_cast<unsigned>(std::countr_zero(config.indexDivisor));
    setMask_ = sets - 1;
    tags_.assign(sets * config.assoc, kEmpty);
    lastUse_.assign(sets * config.assoc, 0);
}

bool
Cache::access(Addr addr)
{
    const Addr line = lineOf(addr);
    const std::size_t base = baseOf(line);
    const std::size_t end = base + config_.assoc;
    ++clock_;

    for (std::size_t w = base; w < end; ++w) {
        if (tags_[w] == line) {
            lastUse_[w] = clock_;
            ++hits_;
            return true;
        }
    }
    // The victim is the last empty way, else the least recently used.
    std::size_t victim = base;
    for (std::size_t w = base; w < end; ++w) {
        if (tags_[w] == kEmpty)
            victim = w;
        else if (tags_[victim] != kEmpty && lastUse_[w] < lastUse_[victim])
            victim = w;
    }
    ++misses_;
    if (tags_[victim] == kEmpty)
        ++resident_;
    tags_[victim] = line;
    lastUse_[victim] = clock_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = lineOf(addr);
    const std::size_t base = baseOf(line);
    for (std::size_t w = base; w < base + config_.assoc; ++w) {
        if (tags_[w] == line)
            return true;
    }
    return false;
}

bool
Cache::invalidate(Addr addr)
{
    const Addr line = lineOf(addr);
    const std::size_t base = baseOf(line);
    for (std::size_t w = base; w < base + config_.assoc; ++w) {
        if (tags_[w] == line) {
            tags_[w] = kEmpty;
            --resident_;
            ++invalidations_;
            return true;
        }
    }
    return false;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), kEmpty);
    resident_ = 0;
}

} // namespace bfly
