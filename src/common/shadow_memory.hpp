/**
 * @file
 * Two-level paged shadow memory.
 *
 * Lifeguards keep per-byte (or per-word) metadata for the entire simulated
 * application address space. A flat array would be wasteful; instead we use
 * the classic two-level scheme from Memcheck/AddrCheck: a directory of
 * fixed-size pages, allocated lazily on first touch. Reads of untouched
 * addresses return a default value without allocating.
 *
 * Range operations (setRange / rangeEquals / forEachInRange) walk the
 * range page by page — one directory lookup per page, then std::fill or a
 * linear scan within it — instead of one hash lookup per entry. Pointwise
 * get/set keep a one-entry cache of the last page touched, which turns the
 * oracles' sequential access patterns into a single compare per entry.
 *
 * Not thread-safe: the last-page cache mutates on const reads. All users
 * (oracles, per-block lifeguard commits) access their instance from one
 * thread at a time.
 */

#ifndef BUTTERFLY_COMMON_SHADOW_MEMORY_HPP
#define BUTTERFLY_COMMON_SHADOW_MEMORY_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <unordered_map>

#include "common/types.hpp"

namespace bfly {

/**
 * Lazily-allocated paged map from address to metadata value.
 *
 * @tparam T           metadata type (must be cheap to copy)
 * @tparam PageBits    log2 of entries per page (default 4096 entries)
 */
template <typename T, unsigned PageBits = 12>
class ShadowMemory
{
  public:
    static constexpr std::size_t kPageSize = std::size_t{1} << PageBits;
    static constexpr Addr kOffsetMask = kPageSize - 1;

    explicit ShadowMemory(T default_value = T{})
        : defaultValue_(default_value)
    {}

    /** Read the metadata for @p addr (default value if untouched). */
    T
    get(Addr addr) const
    {
        const Addr pi = pageIndex(addr);
        if (pi == cachedIndex_)
            return cachedPage_ ? (*cachedPage_)[addr & kOffsetMask]
                               : defaultValue_;
        auto it = pages_.find(pi);
        cachedIndex_ = pi;
        cachedPage_ = it == pages_.end() ? nullptr : it->second.get();
        return cachedPage_ ? (*cachedPage_)[addr & kOffsetMask]
                           : defaultValue_;
    }

    /** Write metadata for @p addr, allocating its page if needed. */
    void
    set(Addr addr, const T &value)
    {
        const Addr pi = pageIndex(addr);
        if (pi != cachedIndex_ || cachedPage_ == nullptr) {
            Page *p = &page(addr);
            cachedIndex_ = pi;
            cachedPage_ = p;
        }
        (*cachedPage_)[addr & kOffsetMask] = value;
    }

    /** Write metadata for a contiguous range [addr, addr+len). */
    void
    setRange(Addr addr, std::size_t len, const T &value)
    {
        while (len > 0) {
            const std::size_t off =
                static_cast<std::size_t>(addr & kOffsetMask);
            const std::size_t run = std::min(len, kPageSize - off);
            Page &p = page(addr);
            std::fill_n(p.data() + off, run, value);
            addr += run;
            len -= run;
        }
    }

    /** True if every entry of [addr, addr+len) equals @p value. */
    bool
    rangeEquals(Addr addr, std::size_t len, const T &value) const
    {
        while (len > 0) {
            const std::size_t off =
                static_cast<std::size_t>(addr & kOffsetMask);
            const std::size_t run = std::min(len, kPageSize - off);
            auto it = pages_.find(pageIndex(addr));
            if (it == pages_.end()) {
                // Untouched page: every entry holds the default.
                if (!(defaultValue_ == value))
                    return false;
            } else {
                const T *base = it->second->data() + off;
                for (std::size_t k = 0; k < run; ++k)
                    if (!(base[k] == value))
                        return false;
            }
            addr += run;
            len -= run;
        }
        return true;
    }

    /**
     * Call @p fn(value) for every entry of [addr, addr+len), page-wise.
     * Untouched pages yield the default value; nothing is allocated.
     */
    template <typename Fn>
    void
    forEachInRange(Addr addr, std::size_t len, Fn &&fn) const
    {
        while (len > 0) {
            const std::size_t off =
                static_cast<std::size_t>(addr & kOffsetMask);
            const std::size_t run = std::min(len, kPageSize - off);
            auto it = pages_.find(pageIndex(addr));
            if (it == pages_.end()) {
                for (std::size_t k = 0; k < run; ++k)
                    fn(defaultValue_);
            } else {
                const T *base = it->second->data() + off;
                for (std::size_t k = 0; k < run; ++k)
                    fn(base[k]);
            }
            addr += run;
            len -= run;
        }
    }

    /** Number of lazily-allocated pages (for footprint accounting). */
    std::size_t allocatedPages() const { return pages_.size(); }

    /** Drop all pages, restoring every address to the default value. */
    void
    clear()
    {
        pages_.clear();
        cachedIndex_ = kNoPage;
        cachedPage_ = nullptr;
    }

  private:
    using Page = std::array<T, kPageSize>;

    // No reachable address maps to this page index: pageIndex() always
    // shifts at least one bit off, so indexes fit in 64-PageBits bits.
    static constexpr Addr kNoPage = static_cast<Addr>(~std::uint64_t{0});

    static Addr pageIndex(Addr addr) { return addr >> PageBits; }

    Page &
    page(Addr addr)
    {
        auto &slot = pages_[pageIndex(addr)];
        if (!slot) {
            slot = std::make_unique<Page>();
            slot->fill(defaultValue_);
            // Rehash may not move nodes, but a prior miss may have
            // cached "absent" for this very page.
            cachedIndex_ = kNoPage;
            cachedPage_ = nullptr;
        }
        return *slot;
    }

    T defaultValue_;
    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    mutable Addr cachedIndex_ = kNoPage;
    mutable Page *cachedPage_ = nullptr;
};

} // namespace bfly

#endif // BUTTERFLY_COMMON_SHADOW_MEMORY_HPP
