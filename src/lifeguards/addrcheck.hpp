/**
 * @file
 * ADDRCHECK: the memory-allocation-checking lifeguard (paper Section 6.1).
 *
 * ADDRCHECK verifies that every access touches allocated memory, frees only
 * allocated memory, and allocations target unallocated memory. The
 * butterfly adaptation instantiates reaching *expressions* with the fact
 * "address x is allocated": allocation generates, deallocation kills. The
 * checking algorithm has two parts:
 *
 *   pass 1 (local): every access/free must find its address allocated in
 *   the LSOS at that instruction; every alloc must find it unallocated;
 *
 *   pass 2 (isolation): every alloc/free must be isolated from concurrent
 *   (wings) allocs/frees *and* accesses of the same address, and every
 *   access isolated from concurrent allocs/frees — a metadata state change
 *   racing with any operation on the address is flagged.
 *
 * The oracle in addrcheck_oracle.hpp replays the true interleaving and
 * provides ground truth; Theorem 6.1 (zero false negatives) is checked in
 * the test suite against both SC and TSO executions.
 */

#ifndef BUTTERFLY_LIFEGUARDS_ADDRCHECK_HPP
#define BUTTERFLY_LIFEGUARDS_ADDRCHECK_HPP

#include <array>
#include <unordered_map>
#include <vector>

#include "common/addr_set.hpp"
#include "butterfly/window.hpp"
#include "lifeguards/report.hpp"

namespace bfly {

/** Configuration shared by the butterfly lifeguard and the oracle. */
struct AddrCheckConfig
{
    /** Metadata granularity in bytes (1 = per-byte, 8 = per-word). */
    unsigned granularity = 8;
    /** Monitored address window (heap-only monitoring, as in Section 7.1:
     *  "we filter out stack accesses"). Events outside are ignored. */
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;

    Addr keyOf(Addr addr) const { return addr / granularity; }

    bool
    monitored(Addr addr) const
    {
        return addr >= heapBase && addr < heapLimit;
    }
};

/** Butterfly-analysis ADDRCHECK. Drive with WindowSchedule. */
class ButterflyAddrCheck : public AnalysisDriver
{
  public:
    /** Streaming-friendly: the driver only needs the thread count (block
     *  identities come from BlockView::first), so it can run over an
     *  EpochStream without ever materializing a layout. */
    ButterflyAddrCheck(std::size_t num_threads,
                       const AddrCheckConfig &config);
    ButterflyAddrCheck(const EpochLayout &layout,
                       const AddrCheckConfig &config)
        : ButterflyAddrCheck(layout.numThreads(), config)
    {}

    // AnalysisDriver hooks.
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    /**
     * ADDRCHECK's pass 2 and finalize consume only pass-1 summaries —
     * never the SOS that finalize advances, nor pass-2 results — so the
     * cycle model prices it relaxed: finalizeEpoch(l) need not wait for
     * pass 2 of epoch l.
     */
    bool finalizeAfterPass2() const override { return false; }

    /**
     * The isolation records pass2() commits for body block @p block, in
     * event order. It reads the wing tables of epochs l-1..l+1, so call
     * it only where pass 2 of the block may run.
     */
    std::vector<ErrorRecord> isolationRecords(const BlockView &block) const;

    /** All flagged events (one record per event). */
    const ErrorLog &errors() const { return errors_; }

    /** Current SOS: keys believed allocated 2+ epochs ago. */
    const AddrSet &sosNow() const { return sos_; }

    /** Metadata checks performed (cost-model feed). */
    std::uint64_t eventsChecked() const { return eventsChecked_; }
    std::uint64_t isolationViolations() const { return isolationViol_; }

    /** Newly-flagged events attributed to block (l, t). */
    std::uint64_t errorsInBlock(EpochId l, ThreadId t) const;

    /** |GEN| + |KILL| + |ACCESS| of block (l, t)'s pass-1 summary —
     *  the work the meet step performs per wing block. */
    std::uint64_t summarySize(EpochId l, ThreadId t) const;

    /** |GEN_l| + |KILL_l|: elements folded into the SOS for epoch l. */
    std::uint64_t sosUpdateWork(EpochId l) const;

  private:
    static constexpr std::size_t kWindow = 4; ///< ring depth (epochs)

    /**
     * Block (l, t)'s pass-1 key table, which is also its summary
     * s_{l,t}: one slot per monitored key the block touched, holding
     * the key's allocation state and what the block did to it. A key's
     * first touch asks the LSOS once and seeds the state with the
     * answer; the block's allocs and frees then update it, so a repeat
     * costs one probe. GEN_{l,t} (genEnd) is the keys whose last alloc
     * or free was an alloc, KILL_{l,t} (killEnd) those whose last was a
     * free. Linear probing over power-of-two arrays at most half full.
     * One table per ring slot, cleared in place for the next block.
     */
    struct KeyTable
    {
        static constexpr std::uint8_t kUsed = 1;      ///< slot holds a key
        static constexpr std::uint8_t kAllocated = 2; ///< current state
        static constexpr std::uint8_t kAllocAny = 4;  ///< allocated in block
        static constexpr std::uint8_t kFreeAny = 8;   ///< freed in block
        static constexpr std::uint8_t kAccess = 16;   ///< read or written
        static constexpr std::uint8_t kChanged = kAllocAny | kFreeAny;

        static bool
        genEnd(std::uint8_t slot)
        {
            return (slot & kChanged) && (slot & kAllocated);
        }

        static bool
        killEnd(std::uint8_t slot)
        {
            return (slot & kChanged) && !(slot & kAllocated);
        }

        /**
         * Clear the table for a block of epoch @p l. The slot arrays are
         * kept unless they hold several times what the previous block of
         * this ring slot needed; then they shrink to that need.
         */
        void reset(EpochId l);

        /** Index of the slot holding @p key, or of the free slot that
         *  would take it. */
        std::size_t find(Addr key) const;

        /** @p key's bits, or 0 if the block did not touch it. */
        std::uint8_t
        bitsOf(Addr key) const
        {
            return bits[find(key)];
        }

        /** Double the slot arrays, keeping every key. */
        void grow();

        /** Apply an alloc (@p alloc) or a free to slot bits @p slot,
         *  keeping the GEN and KILL counts. */
        void
        change(std::uint8_t &slot, bool alloc)
        {
            gen -= genEnd(slot) ? 1 : 0;
            kill -= killEnd(slot) ? 1 : 0;
            slot = static_cast<std::uint8_t>(
                alloc ? slot | kAllocAny | kAllocated
                      : (slot | kFreeAny) & ~kAllocated);
            ++(alloc ? gen : kill);
        }

        /** Slot keys and bits, kept apart: 9 bytes a slot instead of a
         *  padded 16, and a probe scans dense bytes. Bits 0 marks an
         *  empty slot. */
        std::vector<Addr> keys;
        std::vector<std::uint8_t> bits;
        std::size_t used = 0;   ///< keys in the table
        std::size_t gen = 0;    ///< |genEnd|
        std::size_t kill = 0;   ///< |killEnd|
        std::size_t access = 0; ///< |ACCESS_{l,t}|
        EpochId epoch = kNoEpoch;
    };

    /**
     * One epoch's wing table, built by its last pass-1 block: per key,
     * the thread whose blocks changed its state (allocAny, freeAny) and
     * the one that accessed it, each kNoThread if none and kSeveral if
     * several. Key k is in the wings of (l, t) iff a table of epochs
     * l-1..l+1 names an owner other than t. Linear probing over a
     * power-of-two array at most half full, rebuilt in place unless the
     * array is more than four times the epoch's need.
     */
    struct WingTable
    {
        struct Slot
        {
            Addr key = 0;
            ThreadId state = kNoThread;
            ThreadId access = kNoThread;
        };

        /** Index of the slot holding @p key, or of the free slot that
         *  would take it. */
        std::size_t find(Addr key) const;

        std::vector<Slot> slots;
        EpochId epoch = kNoEpoch; ///< epoch built into the table
    };

    /** Wing-table owner of a key touched by several threads. */
    static constexpr ThreadId kSeveral = kNoThread - 1;

    /** Key of block (l, t) in the per-block maps; unique for t < T. */
    std::uint64_t
    blockKey(EpochId l, ThreadId t) const
    {
        return l * tables_.size() + t;
    }

    /** Block (l, t)'s key table, or nullptr if its ring slot holds
     *  another block. */
    const KeyTable *tableIfValid(EpochId l, ThreadId t) const;

    /** The wing table of epoch @p l, or nullptr if its ring slot holds
     *  another epoch. */
    const WingTable *wingTableIfValid(EpochId l) const;

    /** Key membership in LSOS_{l,t} before any local delta. */
    bool lsosBaseContains(Addr key, EpochId l, ThreadId t) const;

    /** Expand an address range into monitored metadata keys. */
    void keysOf(Addr base, std::uint16_t size,
                std::vector<Addr> &out) const;

    /** Log @p rec, counting it against block (l, t) if it is new. */
    void report(EpochId l, ThreadId t, const ErrorRecord &rec);

    /** Build epoch @p l's wing table from its pass-1 key tables. */
    void buildWingTable(EpochId l);

    /** Whether key @p key of block (l, t)'s GEN_{l,t} is in GEN_l. */
    bool inEpochGen(Addr key, EpochId l, ThreadId t) const;

    AddrCheckConfig config_;

    /** Ring of per-epoch, per-thread key tables. */
    std::vector<std::array<KeyTable, kWindow>> tables_; ///< [t]
    std::size_t tableSlots_ = 0; ///< slots the key tables hold

    /** Ring of per-epoch wing tables, and the pass-1 blocks finished
     *  so far in the epoch each slot is collecting. */
    std::array<WingTable, kWindow> wingTables_;
    std::array<std::size_t, kWindow> pass1Done_{};

    AddrSet sos_; ///< SOS, advanced in finalizeEpoch

    ErrorLog errors_;
    std::unordered_map<std::uint64_t, std::uint64_t> errorsPerBlock_;
    std::unordered_map<std::uint64_t, std::uint64_t> summarySizes_;
    std::unordered_map<EpochId, std::uint64_t> sosWork_;
    std::uint64_t eventsChecked_ = 0;
    std::uint64_t isolationViol_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_ADDRCHECK_HPP
