#include "lifeguards/taintcheck_oracle.hpp"

namespace bfly {

TaintCheckOracle::TaintCheckOracle(const TaintCheckConfig &config)
    : config_(config)
{}

bool
TaintCheckOracle::tainted(Addr addr) const
{
    return taint_.get(config_.keyOf(addr)) != 0;
}

void
TaintCheckOracle::processOne(ThreadId tid, std::uint64_t index,
                             const Event &e)
{
    auto set_range = [&](Addr base, std::uint16_t size, std::uint8_t v) {
        if (base == kNoAddr)
            return;
        keyRange(base, size, config_.granularity).forEach([&](Addr k) {
            taint_.set(k, v);
        });
    };

    switch (e.kind) {
      case EventKind::TaintSrc:
        set_range(e.addr, e.size, 1);
        break;
      case EventKind::Untaint:
      case EventKind::Write:
        set_range(e.addr, e.size, 0);
        break;
      case EventKind::Assign: {
        bool src_tainted = false;
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n)
            src_tainted |= taint_.get(config_.keyOf(srcs[n])) != 0;
        set_range(e.addr, e.size, src_tainted ? 1 : 0);
        break;
      }
      case EventKind::Use:
        if (tainted(e.addr))
            errors_.report(tid, index, e.addr, ErrorKind::TaintedUse);
        break;
      default:
        break;
    }
}

void
TaintCheckOracle::runOnTrace(const Trace &trace)
{
    for (const GseqRef &r : trace.gseqOrder())
        processOne(trace.threads[r.thread].tid, r.index, *r.event);
}

} // namespace bfly
