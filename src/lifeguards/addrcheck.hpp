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

    /** Per-block pass-1 summary s_{l,t}. */
    struct BlockSummary
    {
        AddrSet genEnd;   ///< allocated at block end (net)
        AddrSet killEnd;  ///< freed at block end (net)
        AddrSet allocAny; ///< allocated anywhere in the block
        AddrSet freeAny;  ///< freed anywhere in the block
        AddrSet access;   ///< ACCESS_{l,t}: keys read or written
        EpochId epoch = kNoEpoch;
    };

    /**
     * One epoch's wing table, built by its last pass-1 block: per key,
     * the thread whose blocks changed its state (allocAny, freeAny) and
     * the one that accessed it, each kNoThread if none and kSeveral if
     * several. Key k is in the wings of (l, t) iff a table of epochs
     * l-1..l+1 names an owner other than t. Linear probing over a
     * power-of-two array at most half full, rebuilt in place.
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
        return l * summaries_.size() + t;
    }

    BlockSummary &slot(EpochId l, ThreadId t);
    const BlockSummary *slotIfValid(EpochId l, ThreadId t) const;

    /** Key membership in LSOS_{l,t} before any local delta. */
    bool lsosBaseContains(Addr key, EpochId l, ThreadId t) const;

    /** Expand an address range into monitored metadata keys. */
    void keysOf(Addr base, std::uint16_t size,
                std::vector<Addr> &out) const;

    /** Log @p rec, counting it against block (l, t) if it is new. */
    void report(EpochId l, ThreadId t, const ErrorRecord &rec);

    /** Build epoch @p l's wing table from its pass-1 summaries. */
    void buildWingTable(EpochId l);

    AddrCheckConfig config_;

    /** Ring of per-epoch, per-thread summaries. */
    std::vector<std::array<BlockSummary, kWindow>> summaries_; ///< [t]

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
