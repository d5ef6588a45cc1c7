/**
 * @file
 * Exact sequential ADDRCHECK over a serialized execution order.
 *
 * Two roles:
 *  - *oracle*: replay the true interleaving (events sorted by their global
 *    visibility sequence) and produce the ground-truth error set for
 *    false-positive / false-negative accounting;
 *  - *timesliced baseline*: the same sequential checker fed the round-robin
 *    merge a timesliced monitor would see (the paper's state of the art).
 */

#ifndef BUTTERFLY_LIFEGUARDS_ADDRCHECK_ORACLE_HPP
#define BUTTERFLY_LIFEGUARDS_ADDRCHECK_ORACLE_HPP

#include "common/shadow_memory.hpp"
#include "lifeguards/addrcheck.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** Sequential, exact ADDRCHECK. */
class AddrCheckOracle
{
  public:
    explicit AddrCheckOracle(const AddrCheckConfig &config);

    /**
     * Replay the trace in true execution order (by gseq), attributing
     * errors to (thread, per-thread program index).
     */
    void runOnTrace(const Trace &trace);

    /**
     * runOnTrace with the order already computed: @p order must be
     * @p trace's execution order (its gseqOrder(), or the order
     * interleave() emitted for it). Lets a caller that needs the order
     * for other stages too compute it once.
     */
    void runInOrder(const Trace &trace, const std::vector<GseqRef> &order);

    /**
     * Replay an explicit serialized order of (tid, per-thread index,
     * event) triples; used for the timesliced baseline and tests.
     */
    void processOne(ThreadId tid, std::uint64_t index, const Event &e);

    const ErrorLog &errors() const { return errors_; }

    /** Number of metadata checks performed (cost-model feed). */
    std::uint64_t eventsChecked() const { return eventsChecked_; }

    /** Memory-access events replayed (Event::isMemoryAccess): the
     *  denominator of the paper's Fig. 13, counted in the replay's own
     *  walk. */
    std::uint64_t memoryAccesses() const { return memoryAccesses_; }

  private:
    void checkKeys(ThreadId tid, std::uint64_t index, Addr base,
                   std::uint16_t size, bool want_allocated,
                   ErrorKind kind_if_bad);

    AddrCheckConfig config_;
    ShadowMemory<std::uint8_t> allocated_{0};
    ErrorLog errors_;
    std::uint64_t eventsChecked_ = 0;
    std::uint64_t memoryAccesses_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_ADDRCHECK_ORACLE_HPP
