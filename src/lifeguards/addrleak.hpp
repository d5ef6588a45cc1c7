/**
 * @file
 * ADDRLEAK: a pointer-value leak lifeguard built as a butterfly
 * taint analysis over heap addresses. An allocation site *taints* the
 * cell that receives the returned pointer; assignments propagate the
 * taint cell-to-cell; overwriting a cell with non-pointer data kills
 * it; and an Output event (the trace model's LOG/SEND sink) on a
 * still-tainted cell is a leak of an internal heap address to the
 * outside world — the classic infoleak bug class (heap-layout
 * disclosure defeating ASLR).
 *
 * The butterfly structure mirrors TAINTCHECK's "may" direction:
 *
 *  - pass 1 records each block's rewrite rules (gen at allocation,
 *    copy at assignment, kill at overwrite) and its Output checks —
 *    purely local, no metadata reads;
 *  - pass 2 resolves each check conservatively: the window may-set
 *    WM_l (everything that *might* be tainted given the SOS plus any
 *    rule in epochs l-1..l+1, closed under copies) feeds a per-check
 *    resolution that walks the thread's own preceding rules exactly
 *    and admits wing interference in between — "may be tainted" under
 *    *some* interleaving of the window flags the sink;
 *  - finalizeEpoch folds the epoch into the SOS with may-gen (each
 *    thread's LAST rule per cell, judged under WM — the epoch-final
 *    write is always some thread's last rule, and folding anything
 *    more keeps same-epoch gen-then-kill cells alive forever, which
 *    inverts FP(H) <= FP(4H)) and must-kill (every thread that wrote
 *    the cell ended on a kill).
 *
 * Zero false negatives: a true leak has a gen/copy chain to the sink
 * in the real interleaving; every link is either >= 2 epochs old
 * (hence folded into the SOS by the may-gen rule) or inside the
 * sink's window (hence in WM_l / the wing scan). False positives are
 * the usual butterfly over-approximation — chains that no real
 * interleaving executes — and shrink monotonically with the epoch
 * size, which the fuzzer's FpMonotonicity invariant checks.
 *
 * Like TAINTCHECK this driver is strict (finalizeAfterPass2() ==
 * true): pass 2 reads the SOS snapshot finalizeEpoch advances. Unlike
 * TAINTCHECK, the WM_l fixpoint pass 2 computes folds epoch l+1 rules
 * of EVERY thread, the body thread included.
 */

#ifndef BUTTERFLY_LIFEGUARDS_ADDRLEAK_HPP
#define BUTTERFLY_LIFEGUARDS_ADDRLEAK_HPP

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "butterfly/window.hpp"
#include "common/addr_set.hpp"
#include "lifeguards/report.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** Configuration shared by the butterfly lifeguard and the oracle. */
struct AddrLeakConfig
{
    /** Pointer-cell granularity (a stored pointer taints one cell). */
    unsigned granularity = 4;
    /** Cells tracked for pointer values; everything else is untainted. */
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;

    Addr keyOf(Addr addr) const { return addr / granularity; }

    bool
    monitored(Addr addr) const
    {
        return addr >= heapBase && addr < heapLimit;
    }
};

/** Butterfly-analysis ADDRLEAK. Drive with WindowSchedule. */
class ButterflyAddrLeak : public AnalysisDriver
{
  public:
    /** Streaming-friendly: the driver only needs the thread count, so it
     *  can run over an EpochStream without materializing a layout. */
    ButterflyAddrLeak(std::size_t num_threads, const AddrLeakConfig &config);
    ButterflyAddrLeak(const EpochLayout &layout, const AddrLeakConfig &config)
        : ButterflyAddrLeak(layout.numThreads(), config)
    {}

    // AnalysisDriver hooks.
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    const ErrorLog &errors() const { return errors_; }

    /** SOS after the last finalized epoch: cells that may hold a heap
     *  pointer (for the differential runner's state fingerprint). */
    const AddrSet &sosNow() const { return sosCur_; }

  private:
    static constexpr std::size_t kWindow = 4; ///< ring depth (epochs)

    enum class RuleKind : std::uint8_t { Gen, Kill, Copy };

    /** One shadow-cell rewrite in program order. */
    struct Rule
    {
        InstrOffset offset = 0;
        Addr dst = 0;
        std::array<Addr, 2> src{};
        std::uint8_t nsrc = 0;
        RuleKind kind = RuleKind::Kill;
    };

    /** One Output sink to resolve in pass 2. */
    struct Check
    {
        InstrOffset offset = 0;
        Addr addr = kNoAddr; ///< raw sink address (report attribution)
        Addr key = 0;
        std::uint16_t size = 0;
    };

    /** Per-block pass-1 summary. */
    struct BlockState
    {
        std::vector<Rule> rules;   ///< ascending by offset
        std::vector<Check> checks; ///< ascending by offset
        /** dst key -> ascending indices into rules (last = final write). */
        std::unordered_map<Addr, std::vector<std::size_t>> rulesByKey;
        EpochId epoch = kNoEpoch;
    };

    BlockState &slotRef(EpochId l, ThreadId t);
    const BlockState *slotIfValid(EpochId l, ThreadId t) const;

    /** True if @p rule may taint its destination given window may-set
     *  @p wm (gen always; copy iff some source may be tainted). */
    bool mayTaint(const Rule &rule, const AddrSet &wm) const;

    /** Compute WM_l (idempotent; any pass-2 block of epoch l or the
     *  finalize may be first to need it). */
    const AddrSet &ensureWindowMay(EpochId l);

    AddrLeakConfig config_;

    std::vector<std::array<BlockState, kWindow>> states_; ///< [t]

    /** Single-slot window may-set cache, keyed by epoch. */
    AddrSet windowMay_;
    EpochId windowMayEpoch_ = kNoEpoch;

    /** SOS double buffer: sosPrev_ = SOS_l while epoch l is in pass 2,
     *  sosCur_ = SOS_{l+1} (the TAINTCHECK idiom). */
    AddrSet sosPrev_;
    AddrSet sosCur_;

    ErrorLog errors_;
};

/** Exact sequential leak oracle over the true (gseq) interleaving. */
class AddrLeakOracle
{
  public:
    explicit AddrLeakOracle(const AddrLeakConfig &config);

    void runOnTrace(const Trace &trace);
    void processOne(ThreadId tid, std::uint64_t index, const Event &e);

    const ErrorLog &errors() const { return errors_; }

    /** Cells holding a heap pointer after the replayed prefix. */
    const AddrSet &tainted() const { return tainted_; }

  private:
    AddrLeakConfig config_;
    AddrSet tainted_;
    ErrorLog errors_;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_ADDRLEAK_HPP
