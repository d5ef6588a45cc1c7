#include "lifeguards/addrcheck_oracle.hpp"

namespace bfly {

AddrCheckOracle::AddrCheckOracle(const AddrCheckConfig &config)
    : config_(config)
{}

void
AddrCheckOracle::checkKeys(ThreadId tid, std::uint64_t index, Addr base,
                           std::uint16_t size, bool want_allocated,
                           ErrorKind kind_if_bad)
{
    if (base == kNoAddr || !config_.monitored(base))
        return;
    const KeyRange keys = keyRange(base, size, config_.granularity);
    eventsChecked_ += keys.count();
    // One span walk instead of one shadow lookup per key. The log
    // coalesces repeated reports of the same event, so flagging the
    // event once is equivalent to the old per-key reporting.
    bool any_bad = false;
    allocated_.forEachInRange(keys.first, keys.count(), [&](std::uint8_t v) {
        any_bad |= (v != 0) != want_allocated;
    });
    if (any_bad)
        errors_.report(tid, index, base, kind_if_bad, size);
}

void
AddrCheckOracle::processOne(ThreadId tid, std::uint64_t index,
                            const Event &e)
{
    memoryAccesses_ += e.isMemoryAccess() ? 1 : 0;
    switch (e.kind) {
      case EventKind::Alloc: {
        checkKeys(tid, index, e.addr, e.size, false,
                  ErrorKind::DoubleAlloc);
        if (e.addr != kNoAddr && config_.monitored(e.addr)) {
            const KeyRange keys =
                keyRange(e.addr, e.size, config_.granularity);
            allocated_.setRange(keys.first, keys.count(), 1);
        }
        break;
      }
      case EventKind::Free: {
        checkKeys(tid, index, e.addr, e.size, true,
                  ErrorKind::UnallocatedFree);
        if (e.addr != kNoAddr && config_.monitored(e.addr)) {
            const KeyRange keys =
                keyRange(e.addr, e.size, config_.granularity);
            allocated_.setRange(keys.first, keys.count(), 0);
        }
        break;
      }
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Use:
        checkKeys(tid, index, e.addr, e.size, true,
                  ErrorKind::UnallocatedAccess);
        break;
      case EventKind::Assign: {
        checkKeys(tid, index, e.addr, e.size, true,
                  ErrorKind::UnallocatedAccess);
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n) {
            checkKeys(tid, index, srcs[n], e.size, true,
                      ErrorKind::UnallocatedAccess);
        }
        break;
      }
      default:
        break;
    }
}

void
AddrCheckOracle::runOnTrace(const Trace &trace)
{
    runInOrder(trace, trace.gseqOrder());
}

void
AddrCheckOracle::runInOrder(const Trace &trace,
                            const std::vector<GseqRef> &order)
{
    // Replay in true visibility order. Program indices stay
    // program-ordered even when a relaxed model made visibility order
    // differ (TSO store delay).
    for (const GseqRef &r : order)
        processOne(trace.threads[r.thread].tid, r.index, *r.event);
}

} // namespace bfly
