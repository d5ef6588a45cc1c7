#include "lifeguards/addrcheck.hpp"

#include <algorithm>
#include <bit>

#include "common/logging.hpp"
#include "telemetry/metrics.hpp"

namespace bfly {

namespace {

/** Pre-interned ADDRCHECK metric ids (one-time registration). */
struct AddrCheckTelemetry
{
    telemetry::MetricId eventsChecked;
    telemetry::MetricId isolationViolations;
    telemetry::MetricId errorsFlagged;
    telemetry::MetricId blocksCommitted;
    telemetry::MetricId summarySize; ///< histogram, per pass-1 block
    telemetry::MetricId sosSize;     ///< gauge, keys in the SOS

    static const AddrCheckTelemetry &
    get()
    {
        static const AddrCheckTelemetry m = [] {
            auto &r = telemetry::registry();
            AddrCheckTelemetry s;
            s.eventsChecked = r.counter("bfly.addrcheck.events_checked");
            s.isolationViolations =
                r.counter("bfly.addrcheck.isolation_violations");
            s.errorsFlagged = r.counter("bfly.addrcheck.errors_flagged");
            s.blocksCommitted =
                r.counter("bfly.addrcheck.blocks_committed");
            s.summarySize = r.histogram("bfly.addrcheck.summary_size");
            s.sosSize = r.gauge("bfly.addrcheck.sos_size");
            return s;
        }();
        return m;
    }
};

/** Per-block flush of the hot-path tallies (never per event). */
void
publishBlock(std::uint64_t checks, std::uint64_t isolation,
             std::uint64_t flagged)
{
    if (!telemetry::enabled())
        return;
    const AddrCheckTelemetry &m = AddrCheckTelemetry::get();
    auto &reg = telemetry::registry();
    reg.add(m.eventsChecked, checks);
    reg.add(m.isolationViolations, isolation);
    reg.add(m.errorsFlagged, flagged);
    reg.add(m.blocksCommitted);
}

} // namespace

ButterflyAddrCheck::ButterflyAddrCheck(std::size_t num_threads,
                                       const AddrCheckConfig &config)
    : config_(config), summaries_(num_threads)
{
    ensure(config_.granularity > 0, "granularity must be positive");
    ensure(num_threads < kSeveral,
           "thread ids must stay below the wing table's markers");
}

std::size_t
ButterflyAddrCheck::WingTable::find(Addr key) const
{
    // Multiplicative hashing: the product's upper 32 bits depend on all
    // lower key bits, so sequential and strided keys spread out.
    const std::size_t mask = slots.size() - 1;
    std::size_t i = (key * 0x9e3779b97f4a7c15ULL >> 32) & mask;
    while ((slots[i].state != kNoThread || slots[i].access != kNoThread) &&
           slots[i].key != key)
        i = (i + 1) & mask;
    return i;
}

ButterflyAddrCheck::BlockSummary &
ButterflyAddrCheck::slot(EpochId l, ThreadId t)
{
    return summaries_[t][l % kWindow];
}

const ButterflyAddrCheck::BlockSummary *
ButterflyAddrCheck::slotIfValid(EpochId l, ThreadId t) const
{
    const BlockSummary &s = summaries_[t][l % kWindow];
    return s.epoch == l ? &s : nullptr;
}

void
ButterflyAddrCheck::keysOf(Addr base, std::uint16_t size,
                           std::vector<Addr> &out) const
{
    out.clear();
    if (base == kNoAddr || !config_.monitored(base))
        return;
    keyRange(base, size, config_.granularity).forEach([&](Addr k) {
        out.push_back(k);
    });
}

bool
ButterflyAddrCheck::lsosBaseContains(Addr key, EpochId l, ThreadId t) const
{
    // LSOS_{l,t} = (GEN_{l-1,t} - U_{t'!=t} KILL_{l-2,t'})
    //              U (SOS_l - KILL_{l-1,t})         [Section 5.2 / 6.1]
    const BlockSummary *head =
        l >= 1 ? slotIfValid(l - 1, t) : nullptr;

    if (head && head->genEnd.contains(key)) {
        bool killed_by_l2 = false;
        if (l >= 2) {
            for (ThreadId u = 0; u < summaries_.size() && !killed_by_l2;
                 ++u) {
                if (u == t)
                    continue;
                const BlockSummary *w = slotIfValid(l - 2, u);
                if (w && w->killEnd.contains(key))
                    killed_by_l2 = true;
            }
        }
        if (!killed_by_l2)
            return true;
    }
    if (sos_.contains(key)) {
        if (!head || !head->killEnd.contains(key))
            return true;
    }
    return false;
}

void
ButterflyAddrCheck::report(EpochId l, ThreadId t, const ErrorRecord &rec)
{
    if (errors_.report(rec))
        ++errorsPerBlock_[blockKey(l, t)];
}

void
ButterflyAddrCheck::buildWingTable(EpochId l)
{
    std::size_t keys = 0;
    for (ThreadId u = 0; u < summaries_.size(); ++u)
        if (const BlockSummary *s = slotIfValid(l, u))
            keys += s->allocAny.size() + s->freeAny.size() +
                    s->access.size();
    WingTable &table = wingTables_[l % kWindow];
    // assign() keeps the slot array whenever it is large enough.
    table.slots.assign(std::bit_ceil(2 * keys + 1), WingTable::Slot{});
    table.epoch = l;
    auto mark = [&table](const AddrSet &set, ThreadId u, bool state) {
        for (Addr k : set) {
            WingTable::Slot &slot = table.slots[table.find(k)];
            slot.key = k;
            ThreadId &owner = state ? slot.state : slot.access;
            owner = owner == kNoThread || owner == u ? u : kSeveral;
        }
    };
    for (ThreadId u = 0; u < summaries_.size(); ++u) {
        if (const BlockSummary *s = slotIfValid(l, u)) {
            mark(s->allocAny, u, true);
            mark(s->freeAny, u, true);
            mark(s->access, u, false);
        }
    }
}

void
ButterflyAddrCheck::pass1(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockSummary &s = slot(l, t);
    s = BlockSummary{};
    s.epoch = l;

    std::uint64_t checks = 0;
    std::uint64_t flagged = 0;

    // Local allocation-state delta on top of the LSOS (key -> allocated?).
    std::unordered_map<Addr, bool> delta;
    auto contains = [&](Addr key) {
        auto it = delta.find(key);
        if (it != delta.end())
            return it->second;
        return lsosBaseContains(key, l, t);
    };
    auto flag = [&](std::uint64_t index, Addr addr, std::uint16_t size,
                    ErrorKind kind) {
        ++flagged;
        report(l, t, ErrorRecord{t, index, addr, kind, size});
    };

    std::vector<Addr> keys;
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        const std::uint64_t index = block.first + i;

        auto check_access = [&](Addr base, std::uint16_t size) {
            keysOf(base, size, keys);
            for (Addr k : keys) {
                ++checks;
                if (!contains(k))
                    flag(index, base, size,
                         ErrorKind::UnallocatedAccess);
                s.access.insert(k);
            }
        };

        switch (e.kind) {
          case EventKind::Alloc:
            keysOf(e.addr, e.size, keys);
            for (Addr k : keys) {
                ++checks;
                if (contains(k))
                    flag(index, e.addr, e.size, ErrorKind::DoubleAlloc);
                delta[k] = true;
                s.allocAny.insert(k);
                s.genEnd.insert(k);
                s.killEnd.erase(k);
            }
            break;

          case EventKind::Free:
            keysOf(e.addr, e.size, keys);
            for (Addr k : keys) {
                ++checks;
                if (!contains(k))
                    flag(index, e.addr, e.size,
                         ErrorKind::UnallocatedFree);
                delta[k] = false;
                s.freeAny.insert(k);
                s.killEnd.insert(k);
                s.genEnd.erase(k);
            }
            break;

          case EventKind::Read:
          case EventKind::Write:
          case EventKind::Use:
            check_access(e.addr, e.size);
            break;

          case EventKind::Assign: {
            check_access(e.addr, e.size);
            const Addr srcs[2] = {e.src0, e.src1};
            for (unsigned n = 0; n < e.nsrc; ++n)
                check_access(srcs[n], e.size);
            break;
          }

          default:
            break;
        }
    }

    const std::uint64_t summary =
        s.genEnd.size() + s.killEnd.size() + s.access.size();
    summarySizes_[blockKey(l, t)] = summary;
    eventsChecked_ += checks;
    if (telemetry::enabled())
        telemetry::registry().observe(AddrCheckTelemetry::get().summarySize,
                                      summary);
    publishBlock(checks, 0, flagged);

    // The epoch's last pass-1 block builds the epoch's wing table.
    if (++pass1Done_[l % kWindow] == summaries_.size()) {
        pass1Done_[l % kWindow] = 0;
        buildWingTable(l);
    }
}

void
ButterflyAddrCheck::pass2(const BlockView &block)
{
    const std::vector<ErrorRecord> records = isolationRecords(block);
    for (const ErrorRecord &rec : records)
        report(block.epoch, block.thread, rec);
    isolationViol_ += records.size();
    publishBlock(0, records.size(), records.size());
}

std::vector<ErrorRecord>
ButterflyAddrCheck::isolationRecords(const BlockView &block) const
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;

    // The wing tables of epochs l-1..l+1 (the last epoch has no l+1).
    const WingTable *tables[3] = {};
    std::size_t ntables = 0;
    for (EpochId w = l >= 1 ? l - 1 : 0; w <= l + 1; ++w)
        if (wingTables_[w % kWindow].epoch == w)
            tables[ntables++] = &wingTables_[w % kWindow];

    // A state change conflicts with another thread's alloc, free or
    // access of the key, an access only with an alloc or free.
    auto other = [t](ThreadId owner) {
        return owner != kNoThread && owner != t;
    };
    auto in_wings = [&](Addr k, bool state_change) {
        for (std::size_t i = 0; i < ntables; ++i) {
            const WingTable::Slot &s = tables[i]->slots[tables[i]->find(k)];
            if (other(s.state) || (state_change && other(s.access)))
                return true;
        }
        return false;
    };

    // Isolation check (Section 6.1): one record per conflicting
    // operation, at its first key in the wings.
    std::vector<ErrorRecord> records;
    std::vector<Addr> keys;
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        const std::uint64_t index = block.first + i;

        auto check = [&](Addr base, std::uint16_t size, bool state_change) {
            keysOf(base, size, keys);
            for (Addr k : keys) {
                if (in_wings(k, state_change)) {
                    records.push_back(ErrorRecord{
                        t, index, base, ErrorKind::NonIsolatedOp, size});
                    return;
                }
            }
        };

        switch (e.kind) {
          case EventKind::Alloc:
          case EventKind::Free:
            check(e.addr, e.size, true);
            break;
          case EventKind::Read:
          case EventKind::Write:
          case EventKind::Use:
            check(e.addr, e.size, false);
            break;
          case EventKind::Assign: {
            check(e.addr, e.size, false);
            const Addr srcs[2] = {e.src0, e.src1};
            for (unsigned n = 0; n < e.nsrc; ++n)
                check(srcs[n], e.size, false);
            break;
          }
          default:
            break;
        }
    }
    return records;
}

void
ButterflyAddrCheck::finalizeEpoch(EpochId l)
{
    const std::size_t nthreads = summaries_.size();

    // KILL_l = U_t KILL_{l,t}
    AddrSet kill_epoch;
    for (ThreadId t = 0; t < nthreads; ++t) {
        if (const BlockSummary *s = slotIfValid(l, t))
            kill_epoch.unionWith(s->killEnd);
    }

    // GEN_l: allocated by some thread, and every other thread
    // allocates-or-never-frees it across epochs l-1..l (Section 5.2).
    auto gen_span = [&](Addr key, ThreadId u) {
        const BlockSummary *cur = slotIfValid(l, u);
        if (cur && cur->genEnd.contains(key))
            return true;
        if (l >= 1) {
            const BlockSummary *prev = slotIfValid(l - 1, u);
            if (prev && prev->genEnd.contains(key) &&
                !(cur && cur->killEnd.contains(key))) {
                return true;
            }
        }
        return false;
    };
    auto not_kill_span = [&](Addr key, ThreadId u) {
        if (l >= 1) {
            const BlockSummary *prev = slotIfValid(l - 1, u);
            if (prev && prev->killEnd.contains(key))
                return false;
        }
        const BlockSummary *cur = slotIfValid(l, u);
        if (cur && cur->killEnd.contains(key))
            return false;
        return true;
    };

    AddrSet gen_epoch;
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockSummary *s = slotIfValid(l, t);
        if (!s)
            continue;
        for (Addr key : s->genEnd) {
            bool all_others = true;
            for (ThreadId u = 0; u < nthreads; ++u) {
                if (u == t)
                    continue;
                if (!gen_span(key, u) && !not_kill_span(key, u)) {
                    all_others = false;
                    break;
                }
            }
            if (all_others)
                gen_epoch.insert(key);
        }
    }

    sosWork_[l] = gen_epoch.size() + kill_epoch.size();

    // Single-writer SOS advance: SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l).
    sos_.subtract(kill_epoch);
    sos_.unionWith(gen_epoch);

    if (telemetry::enabled()) {
        telemetry::registry().set(AddrCheckTelemetry::get().sosSize,
                                  sos_.size());
    }
}

std::uint64_t
ButterflyAddrCheck::errorsInBlock(EpochId l, ThreadId t) const
{
    auto it = errorsPerBlock_.find(blockKey(l, t));
    return it == errorsPerBlock_.end() ? 0 : it->second;
}

std::uint64_t
ButterflyAddrCheck::summarySize(EpochId l, ThreadId t) const
{
    auto it = summarySizes_.find(blockKey(l, t));
    return it == summarySizes_.end() ? 0 : it->second;
}

std::uint64_t
ButterflyAddrCheck::sosUpdateWork(EpochId l) const
{
    auto it = sosWork_.find(l);
    return it == sosWork_.end() ? 0 : it->second;
}

} // namespace bfly
