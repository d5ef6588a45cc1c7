/**
 * @file
 * Hash-based address sets with the set algebra the butterfly dataflow
 * equations are written in (union, intersection, difference).
 *
 * The dataflow summaries (GEN, KILL, SIDE-OUT, SIDE-IN, SOS deltas) are all
 * sets of addresses or definition ids; this class provides value-semantic
 * set operations plus deterministic sorted iteration for reporting.
 *
 * Layout: per-block summaries are tiny (a handful of addresses touched per
 * block in the paper's workloads), so the set starts as an inline unsorted
 * array of up to 8 keys with no heap allocation at all. Past that it
 * becomes an open-addressed linear-probing table with power-of-two
 * capacity, <= 3/4 load, and tombstone-free backward-shift deletion, so
 * probes stay short and iteration is a contiguous scan. Empty slots hold
 * the all-ones sentinel; the sentinel value itself is still storable via a
 * side flag.
 */

#ifndef BUTTERFLY_COMMON_ADDR_SET_HPP
#define BUTTERFLY_COMMON_ADDR_SET_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace bfly {

/** Value-semantic set of 64-bit keys (addresses or packed ids). */
template <typename Key = Addr>
class FlatSet
{
    static_assert(std::is_integral_v<Key> && sizeof(Key) == 8,
                  "FlatSet is specialized for 64-bit integer keys");

    static constexpr std::size_t kInline = 8;
    static constexpr Key kEmptySlot = static_cast<Key>(~std::uint64_t{0});

  public:
    FlatSet() = default;

    FlatSet(std::initializer_list<Key> init)
    {
        for (Key k : init)
            insert(k);
    }

    FlatSet(const FlatSet &other) { copyFrom(other); }

    FlatSet(FlatSet &&other) noexcept { moveFrom(std::move(other)); }

    FlatSet &
    operator=(const FlatSet &other)
    {
        if (this != &other) {
            table_.reset();
            copyFrom(other);
        }
        return *this;
    }

    FlatSet &
    operator=(FlatSet &&other) noexcept
    {
        if (this != &other) {
            table_.reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    bool
    contains(Key k) const
    {
        if (!table_) {
            for (std::size_t i = 0; i < size_; ++i)
                if (small_[i] == k)
                    return true;
            return false;
        }
        if (k == kEmptySlot)
            return hasEmptyKey_;
        const std::size_t mask = cap_ - 1;
        for (std::size_t i = homeOf(k);; i = (i + 1) & mask) {
            const Key slot = table_[i];
            if (slot == k)
                return true;
            if (slot == kEmptySlot)
                return false;
        }
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    insert(Key k)
    {
        if (!table_) {
            for (std::size_t i = 0; i < size_; ++i)
                if (small_[i] == k)
                    return;
            if (size_ < kInline) {
                small_[size_++] = k;
                return;
            }
            migrateToTable();
        }
        if (k == kEmptySlot) {
            if (!hasEmptyKey_) {
                hasEmptyKey_ = true;
                ++size_;
            }
            return;
        }
        // +1 keeps the table at most 3/4 full after this insert, so a
        // probe always terminates on an empty slot.
        if ((tableCount() + 1) * 4 > cap_ * 3)
            rehash(cap_ * 2);
        if (rawInsert(k))
            ++size_;
    }

    void
    erase(Key k)
    {
        if (!table_) {
            for (std::size_t i = 0; i < size_; ++i) {
                if (small_[i] == k) {
                    small_[i] = small_[--size_];
                    return;
                }
            }
            return;
        }
        if (k == kEmptySlot) {
            if (hasEmptyKey_) {
                hasEmptyKey_ = false;
                --size_;
            }
            return;
        }
        const std::size_t mask = cap_ - 1;
        for (std::size_t i = homeOf(k);; i = (i + 1) & mask) {
            const Key slot = table_[i];
            if (slot == kEmptySlot)
                return;
            if (slot == k) {
                shiftBackward(i);
                --size_;
                return;
            }
        }
    }

    void
    clear()
    {
        table_.reset();
        cap_ = 0;
        size_ = 0;
        hasEmptyKey_ = false;
    }

    /**
     * Grow the table (if needed) so @p total elements fit within the
     * 3/4 load bound without another rehash. Never shrinks, and leaves
     * a set that is still inline-small untouched when @p total fits the
     * inline buffer.
     */
    void
    reserve(std::size_t total)
    {
        if (!table_) {
            if (total <= kInline)
                return;
            migrateToTable();
        }
        std::size_t cap = cap_;
        while (total * 4 > cap * 3)
            cap *= 2;
        if (cap != cap_)
            rehash(cap);
    }

    /** In-place union: *this |= other. */
    void
    unionWith(const FlatSet &other)
    {
        for (Key k : other)
            insert(k);
    }

    /**
     * In-place intersection: *this &= other.
     *
     * Rebuilds rather than erasing during iteration: a backward-shift
     * delete can move a not-yet-visited element across the wrap
     * boundary into an already-visited slot, silently skipping it.
     */
    void
    intersectWith(const FlatSet &other)
    {
        FlatSet out;
        for (Key k : *this)
            if (other.contains(k))
                out.insert(k);
        *this = std::move(out);
    }

    /** In-place difference: *this -= other. */
    void
    subtract(const FlatSet &other)
    {
        if (other.size() < size()) {
            for (Key k : other)
                erase(k); // point erases are safe; iterating `other`
        } else {
            FlatSet out;
            for (Key k : *this)
                if (!other.contains(k))
                    out.insert(k);
            *this = std::move(out);
        }
    }

    /** True if the intersection with @p other is non-empty. */
    bool
    intersects(const FlatSet &other) const
    {
        const FlatSet &small = size() <= other.size() ? *this : other;
        const FlatSet &large = size() <= other.size() ? other : *this;
        for (Key k : small)
            if (large.contains(k))
                return true;
        return false;
    }

    bool
    operator==(const FlatSet &other) const
    {
        if (size_ != other.size_)
            return false;
        for (Key k : *this)
            if (!other.contains(k))
                return false;
        return true;
    }

    /** Forward const iterator; order is unspecified (use sorted()). */
    class const_iterator
    {
      public:
        using value_type = Key;
        using reference = Key;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        const_iterator() = default;

        Key
        operator*() const
        {
            return idx_ < cap_ ? data_[idx_] : kEmptySlot;
        }

        const_iterator &
        operator++()
        {
            ++idx_;
            advance();
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator tmp = *this;
            ++*this;
            return tmp;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return idx_ == o.idx_;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return idx_ != o.idx_;
        }

      private:
        friend class FlatSet;

        const_iterator(const Key *data, std::size_t idx, std::size_t cap,
                       bool scan, bool hasEmpty)
            : data_(data), idx_(idx), cap_(cap), scan_(scan),
              hasEmpty_(hasEmpty)
        {
            advance();
        }

        void
        advance()
        {
            if (!scan_)
                return; // inline array: every position is an element
            while (idx_ < cap_ && data_[idx_] == kEmptySlot)
                ++idx_;
            // idx_ == cap_ is the virtual position for the empty-key
            // element; skip it when that element is absent.
            if (idx_ == cap_ && !hasEmpty_)
                ++idx_;
        }

        const Key *data_ = nullptr;
        std::size_t idx_ = 0;
        std::size_t cap_ = 0;
        bool scan_ = false;
        bool hasEmpty_ = false;
    };

    const_iterator
    begin() const
    {
        if (!table_)
            return const_iterator(small_, 0, size_, false, false);
        return const_iterator(table_.get(), 0, cap_, true, hasEmptyKey_);
    }

    const_iterator
    end() const
    {
        if (!table_)
            return const_iterator(small_, size_, size_, false, false);
        return const_iterator(table_.get(), cap_ + 1, cap_, false,
                              hasEmptyKey_);
    }

    /** Elements in ascending order (for deterministic reports/tests). */
    std::vector<Key>
    sorted() const
    {
        std::vector<Key> out;
        out.reserve(size_);
        for (Key k : *this)
            out.push_back(k);
        std::sort(out.begin(), out.end());
        return out;
    }

  private:
    std::size_t tableCount() const { return size_ - (hasEmptyKey_ ? 1 : 0); }

    std::size_t
    homeOf(Key k) const
    {
        // splitmix64 finalizer: full-avalanche mix so sequential
        // addresses don't cluster into one probe run.
        std::uint64_t x = static_cast<std::uint64_t>(k);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x) & (cap_ - 1);
    }

    /** Insert into the table, assuming k != kEmptySlot and spare room. */
    bool
    rawInsert(Key k)
    {
        const std::size_t mask = cap_ - 1;
        for (std::size_t i = homeOf(k);; i = (i + 1) & mask) {
            const Key slot = table_[i];
            if (slot == k)
                return false;
            if (slot == kEmptySlot) {
                table_[i] = k;
                return true;
            }
        }
    }

    void
    migrateToTable()
    {
        cap_ = kInline * 2;
        table_ = std::make_unique<Key[]>(cap_);
        std::fill_n(table_.get(), cap_, kEmptySlot);
        const std::size_t n = size_;
        size_ = 0;
        hasEmptyKey_ = false;
        for (std::size_t i = 0; i < n; ++i) {
            const Key k = small_[i];
            if (k == kEmptySlot) {
                hasEmptyKey_ = true;
                ++size_;
            } else if (rawInsert(k)) {
                ++size_;
            }
        }
    }

    void
    rehash(std::size_t newCap)
    {
        std::unique_ptr<Key[]> old = std::move(table_);
        const std::size_t oldCap = cap_;
        cap_ = newCap;
        table_ = std::make_unique<Key[]>(cap_);
        std::fill_n(table_.get(), cap_, kEmptySlot);
        for (std::size_t i = 0; i < oldCap; ++i)
            if (old[i] != kEmptySlot)
                rawInsert(old[i]);
    }

    /** Close the hole at @p hole, preserving probe-run invariants. */
    void
    shiftBackward(std::size_t hole)
    {
        const std::size_t mask = cap_ - 1;
        std::size_t j = hole;
        for (std::size_t i = (hole + 1) & mask;; i = (i + 1) & mask) {
            const Key k = table_[i];
            if (k == kEmptySlot)
                break;
            // k may fill the hole iff its home position does not lie
            // strictly between the hole and its current slot (cyclic).
            if (((i - homeOf(k)) & mask) >= ((i - j) & mask)) {
                table_[j] = k;
                j = i;
            }
        }
        table_[j] = kEmptySlot;
    }

    void
    copyFrom(const FlatSet &other)
    {
        cap_ = other.cap_;
        size_ = other.size_;
        hasEmptyKey_ = other.hasEmptyKey_;
        if (other.table_) {
            table_ = std::make_unique<Key[]>(cap_);
            std::copy_n(other.table_.get(), cap_, table_.get());
        } else {
            std::copy_n(other.small_, other.size_, small_);
        }
    }

    void
    moveFrom(FlatSet &&other) noexcept
    {
        cap_ = other.cap_;
        size_ = other.size_;
        hasEmptyKey_ = other.hasEmptyKey_;
        if (other.table_) {
            table_ = std::move(other.table_);
        } else {
            std::copy_n(other.small_, other.size_, small_);
        }
        other.cap_ = 0;
        other.size_ = 0;
        other.hasEmptyKey_ = false;
    }

    Key small_[kInline] = {};          ///< inline storage while !table_
    std::unique_ptr<Key[]> table_;     ///< open-addressed slots
    std::size_t cap_ = 0;              ///< power-of-two table capacity
    std::size_t size_ = 0;             ///< total elements (incl. empty key)
    bool hasEmptyKey_ = false;         ///< sentinel value is an element
};

using AddrSet = FlatSet<Addr>;

/** s1 | s2 by value. */
template <typename K>
FlatSet<K>
setUnion(const FlatSet<K> &a, const FlatSet<K> &b)
{
    FlatSet<K> out = a;
    out.unionWith(b);
    return out;
}

/** s1 & s2 by value. */
template <typename K>
FlatSet<K>
setIntersect(const FlatSet<K> &a, const FlatSet<K> &b)
{
    FlatSet<K> out = a;
    out.intersectWith(b);
    return out;
}

/** s1 - s2 by value. */
template <typename K>
FlatSet<K>
setDifference(const FlatSet<K> &a, const FlatSet<K> &b)
{
    FlatSet<K> out = a;
    out.subtract(b);
    return out;
}

} // namespace bfly

#endif // BUTTERFLY_COMMON_ADDR_SET_HPP
