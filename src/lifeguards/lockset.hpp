/**
 * @file
 * LOCKSET: an Eraser-style data-race lifeguard adapted to butterfly
 * analysis — the first analysis in this repo that is *not* one of the
 * paper's own two, demonstrating the framework's generality claim.
 *
 * The classic algorithm maintains, per shared variable v, a candidate
 * set C(v) of locks that protected *every* access so far; C(v) running
 * empty while writes are involved flags a potential data race. Two
 * properties make it butterfly-friendly:
 *
 *  - lock state is thread-local: the set of locks a thread holds at an
 *    access depends only on that thread's own program order, which the
 *    per-thread event streams preserve exactly. Pass 1 summarizes each
 *    block's lock effect as a transfer function over the (unknown)
 *    epoch-entry lock mask, and finalizeEpoch chains entry states
 *    per-thread — so the butterfly computes the *exact* per-access
 *    lockset, independent of interleaving;
 *
 *  - candidate-set intersection is commutative and associative, so the
 *    cross-thread meet does not need the true interleaving. The only
 *    order-sensitive part of Eraser is the initialization (exclusive-
 *    phase) exemption, and there the butterfly is conservative: an
 *    access by thread t in epoch e stays exempt only while *no other
 *    thread* has touched the variable in any epoch <= e+1. Events two
 *    or more epochs later are provably after the access, so every
 *    access the sequential oracle intersects is also intersected here
 *    (zero false negatives); accesses that merely *might* be concurrent
 *    are intersected too (the H-dependent false positives, which shrink
 *    monotonically as epochs shrink because nested boundaries only
 *    remove would-be-concurrent pairs).
 *
 * Pass 2 of block (l, t) meets the wings: it resolves the block's
 * per-variable contribution against the entry lock state (published by
 * finalizeEpoch(l-1)) and classifies it exempt/shared using the
 * cumulative first/second-accessor state plus the epoch-(l+1) pass-1
 * summaries. finalizeEpoch(l) then folds the resolved contributions
 * into the per-variable candidate sets in canonical thread order and
 * emits DataRace reports deterministically — identical across every
 * scheduling mode by construction.
 *
 * Variables are tracked at one metadata key per access (keyOf(addr),
 * Eraser's fixed-granularity shadow word); reports use the canonical
 * granule address so records are 1:1 with racy variables. Locks map to
 * bits of a 64-bit mask via lockBit(); the oracle uses the identical
 * mapping, so aliasing (>64 distinct locks) degrades both sides the
 * same way and never produces a false negative relative to the oracle.
 *
 * This driver is *strict* (finalizeAfterPass2() == true): pass 2 reads
 * the entry lock states and cumulative accessor state that finalize
 * advances, and finalize(l) reads epoch-(l+1) pass-1 summaries.
 */

#ifndef BUTTERFLY_LIFEGUARDS_LOCKSET_HPP
#define BUTTERFLY_LIFEGUARDS_LOCKSET_HPP

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "butterfly/window.hpp"
#include "lifeguards/report.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** Configuration shared by the butterfly lifeguard and the oracle. */
struct LockSetConfig
{
    /** Shadow-word granularity: each access charges one variable key. */
    unsigned granularity = 8;
    /** Monitored data window; accesses outside are ignored. Lock
     *  identities are independent of this window. */
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;

    Addr keyOf(Addr addr) const { return addr / granularity; }

    bool
    monitored(Addr addr) const
    {
        return addr >= heapBase && addr < heapLimit;
    }

    /** Lock address -> bit in the 64-bit lock mask (shared with the
     *  oracle so aliasing is symmetric). */
    static std::uint64_t
    lockBit(Addr lock)
    {
        return 1ull << (lock % 64);
    }
};

/** Butterfly-analysis LOCKSET. Drive with WindowSchedule. */
class ButterflyLockSet : public AnalysisDriver
{
  public:
    /** Streaming-friendly: the driver only needs the thread count, so it
     *  can run over an EpochStream without materializing a layout. */
    ButterflyLockSet(std::size_t num_threads, const LockSetConfig &config);
    ButterflyLockSet(const EpochLayout &layout, const LockSetConfig &config)
        : ButterflyLockSet(layout.numThreads(), config)
    {}

    // AnalysisDriver hooks.
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    const ErrorLog &errors() const { return errors_; }

    /** Variables still in shared state with a live candidate set. */
    std::size_t trackedVariables() const { return keyState_.size(); }

  private:
    static constexpr std::size_t kWindow = 4; ///< ring depth (epochs)

    /**
     * Pass-1 per-variable fold of one block's accesses, as a per-bit
     * function of the epoch-entry lock mask E: the block's contribution
     * to the candidate intersection is (one | (E & pass)) — bit forced 1
     * when every access held the lock, inherited from E when no access
     * pinned it, 0 otherwise.
     */
    struct KeyAccess
    {
        std::uint64_t one = ~0ull;  ///< bits held at every access
        std::uint64_t pass = 0;     ///< bits inherited from entry state
        bool wrote = false;         ///< some access was a write
        InstrOffset first = 0;      ///< first access offset (attribution)
    };

    /** Contribution resolved by pass 2 against the entry lock state. */
    struct Resolved
    {
        Addr key = 0;
        std::uint64_t lockset = 0; ///< exact locks held across accesses
        std::uint64_t index = 0;   ///< global index of the first access
        bool wrote = false;
        bool exempt = false;       ///< still in the exclusive phase
    };

    /** Per-block state: pass-1 summary + pass-2 resolution. */
    struct BlockSummary
    {
        std::unordered_map<Addr, KeyAccess> keys;
        std::uint64_t setMask = 0;   ///< lock bits forced 1 at block exit
        std::uint64_t clearMask = 0; ///< lock bits forced 0 at block exit
        std::vector<Resolved> resolved; ///< pass 2, sorted by key
        EpochId epoch = kNoEpoch;       ///< pass-1 validity tag
    };

    /** Cross-epoch per-variable race state (finalize-owned; the seen_*
     *  fields are read by pass 2 between finalize quiescent points). */
    struct KeyState
    {
        ThreadId firstThread = 0;
        bool seen = false;          ///< some thread has accessed
        bool multi = false;         ///< >= 2 distinct threads accessed
        std::uint64_t candidate = ~0ull;
        bool shared = false;        ///< some contribution was folded
        bool sharedWrite = false;
        bool reported = false;
    };

    BlockSummary &slot(EpochId l, ThreadId t);
    const BlockSummary *slotIfValid(EpochId l, ThreadId t) const;

    /** Was the variable touched by a thread other than @p t in any epoch
     *  <= l+1? (Cumulative state covers epochs < nextAbsorb_; the ring
     *  covers the rest of the window.) */
    bool otherThreadSeen(Addr key, ThreadId t, EpochId l) const;

    LockSetConfig config_;

    std::vector<std::array<BlockSummary, kWindow>> summaries_; ///< [t]

    /** E_{l,t}: lock mask at entry of the epoch currently in pass 2;
     *  advanced by finalizeEpoch (single-writer). */
    std::vector<std::uint64_t> entry_;

    std::unordered_map<Addr, KeyState> keyState_; ///< finalize-owned
    EpochId nextAbsorb_ = 0; ///< next epoch to fold into accessor state

    ErrorLog errors_; ///< written only by finalizeEpoch
};

/** Exact sequential Eraser over the true (gseq) interleaving. */
class LockSetOracle
{
  public:
    explicit LockSetOracle(const LockSetConfig &config);

    void runOnTrace(const Trace &trace);
    void processOne(ThreadId tid, std::uint64_t index, const Event &e);

    const ErrorLog &errors() const { return errors_; }

  private:
    struct VarState
    {
        ThreadId firstThread = 0;
        bool seen = false;
        bool shared = false;        ///< second thread has arrived
        std::uint64_t candidate = ~0ull;
        bool sharedWrite = false;
        bool reported = false;
    };

    LockSetConfig config_;
    std::unordered_map<ThreadId, std::uint64_t> held_;
    std::unordered_map<Addr, VarState> vars_;
    ErrorLog errors_;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_LOCKSET_HPP
