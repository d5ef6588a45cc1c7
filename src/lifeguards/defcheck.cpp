#include "lifeguards/defcheck.hpp"

namespace bfly {

namespace {

/** Keys of [base, base+size) that fall inside the monitored window. */
void
keysOf(const DefCheckConfig &cfg, Addr base, std::uint16_t size,
       std::vector<Addr> &out)
{
    out.clear();
    if (base == kNoAddr || !cfg.monitored(base))
        return;
    keyRange(base, size, cfg.granularity).forEach([&](Addr k) {
        out.push_back(k);
    });
}

/** The reaching-expressions instantiation: "key holds defined data". */
ExprExtractor
definedness(const DefCheckConfig &cfg)
{
    return [cfg](const Event &e) {
        ExprEffect eff;
        std::vector<Addr> keys;
        switch (e.kind) {
          case EventKind::Write:
          case EventKind::Assign:
          case EventKind::TaintSrc:
          case EventKind::Untaint:
            keysOf(cfg, e.addr, e.size, keys);
            eff.gens.assign(keys.begin(), keys.end());
            break;
          case EventKind::Alloc: // fresh memory holds garbage
          case EventKind::Free:
            keysOf(cfg, e.addr, e.size, keys);
            eff.kills.assign(keys.begin(), keys.end());
            break;
          default:
            break;
        }
        return eff;
    };
}

} // namespace

ButterflyDefCheck::ButterflyDefCheck(std::size_t num_threads,
                                     const DefCheckConfig &config)
    : config_(config), exprs_(num_threads, definedness(config))
{}

void
ButterflyDefCheck::pass1(const BlockView &block)
{
    exprs_.pass1(block);
}

void
ButterflyDefCheck::beginPass(EpochId l, bool second)
{
    exprs_.beginPass(l, second);
}

void
ButterflyDefCheck::pass2(const BlockView &block)
{
    exprs_.pass2(block);

    // The check layer: every read must find its keys defined along all
    // paths — membership in the generic analysis's IN_{l,t,i}.
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    // Buffer reports and commit once, so blocks stay safe to run
    // concurrently (DESIGN.md §6).
    std::vector<ErrorRecord> block_errors;
    std::vector<Addr> keys;
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        Addr read_addrs[3] = {kNoAddr, kNoAddr, kNoAddr};
        std::uint16_t size = e.size;
        switch (e.kind) {
          case EventKind::Read:
          case EventKind::Use:
            read_addrs[0] = e.addr;
            break;
          case EventKind::Assign:
            if (e.nsrc >= 1)
                read_addrs[0] = e.src0;
            if (e.nsrc >= 2)
                read_addrs[1] = e.src1;
            break;
          default:
            continue;
        }
        const ExprSet in = exprs_.inAt(l, t, i);
        for (Addr base : read_addrs) {
            if (base == kNoAddr)
                continue;
            keysOf(config_, base, size, keys);
            for (Addr k : keys) {
                if (!in.contains(k)) {
                    block_errors.push_back(ErrorRecord{
                        t, block.first + i, base,
                        ErrorKind::UninitializedRead, size});
                    break;
                }
            }
        }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    for (const ErrorRecord &rec : block_errors)
        errors_.report(rec);
}

void
ButterflyDefCheck::finalizeEpoch(EpochId l)
{
    exprs_.finalizeEpoch(l);
}

DefCheckOracle::DefCheckOracle(const DefCheckConfig &config)
    : config_(config)
{}

void
DefCheckOracle::processOne(ThreadId tid, std::uint64_t index,
                           const Event &e)
{
    std::vector<Addr> keys;
    auto set_range = [&](Addr base, std::uint16_t size,
                         std::uint8_t v) {
        keysOf(config_, base, size, keys);
        for (Addr k : keys)
            defined_.set(k, v);
    };
    auto check_range = [&](Addr base, std::uint16_t size) {
        keysOf(config_, base, size, keys);
        for (Addr k : keys) {
            if (defined_.get(k) == 0) {
                errors_.report(tid, index, base,
                               ErrorKind::UninitializedRead, size);
                return;
            }
        }
    };

    switch (e.kind) {
      case EventKind::Write:
      case EventKind::TaintSrc:
      case EventKind::Untaint:
        set_range(e.addr, e.size, 1);
        break;
      case EventKind::Assign: {
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n)
            check_range(srcs[n], e.size);
        set_range(e.addr, e.size, 1);
        break;
      }
      case EventKind::Alloc:
      case EventKind::Free:
        set_range(e.addr, e.size, 0);
        break;
      case EventKind::Read:
      case EventKind::Use:
        check_range(e.addr, e.size);
        break;
      default:
        break;
    }
}

void
DefCheckOracle::runOnTrace(const Trace &trace)
{
    for (const GseqRef &r : trace.gseqOrder())
        processOne(trace.threads[r.thread].tid, r.index, *r.event);
}

} // namespace bfly
