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
    telemetry::MetricId lsosProbes;  ///< first touches of a key in a block
    telemetry::MetricId tableSlots;  ///< gauge, slots of the key tables
    telemetry::MetricId wingSlots;   ///< gauge, slots the wing tables hold

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
            s.lsosProbes = r.counter("bfly.addrcheck.lsos_probes");
            s.tableSlots = r.gauge("bfly.addrcheck.table_slots");
            s.wingSlots = r.gauge("bfly.addrcheck.wing_slots");
            return s;
        }();
        return m;
    }
};

/** Per-block flush of the hot-path tallies (never per event). */
void
publishBlock(std::uint64_t checks, std::uint64_t probes,
             std::uint64_t isolation, std::uint64_t flagged)
{
    if (!telemetry::enabled())
        return;
    const AddrCheckTelemetry &m = AddrCheckTelemetry::get();
    auto &reg = telemetry::registry();
    reg.add(m.eventsChecked, checks);
    reg.add(m.lsosProbes, probes);
    reg.add(m.isolationViolations, isolation);
    reg.add(m.errorsFlagged, flagged);
    reg.add(m.blocksCommitted);
}

/** Fewest slots a key table or a wing table holds. */
constexpr std::size_t kMinSlots = 16;

/** A key table keeps its slots at reset, and a wing table its slot
 *  array at a rebuild, while they are at most this many times what the
 *  previous block (or this epoch) needs. */
constexpr std::size_t kSlack = 4;

/** Linear-probing home of @p key in a power-of-two table. */
std::size_t
homeOf(Addr key, std::size_t mask)
{
    // Multiplicative hashing: the product's upper 32 bits depend on all
    // lower key bits, so sequential and strided keys spread out.
    return (key * 0x9e3779b97f4a7c15ULL >> 32) & mask;
}

} // namespace

ButterflyAddrCheck::ButterflyAddrCheck(std::size_t num_threads,
                                       const AddrCheckConfig &config)
    : config_(config), tables_(num_threads)
{
    ensure(config_.granularity > 0, "granularity must be positive");
    ensure(num_threads < kSeveral,
           "thread ids must stay below the wing table's markers");
}

void
ButterflyAddrCheck::KeyTable::reset(EpochId l)
{
    const std::size_t need = std::max(kMinSlots, std::bit_ceil(2 * used));
    if (bits.size() < kMinSlots || bits.size() > kSlack * need) {
        keys = std::vector<Addr>(need);
        bits = std::vector<std::uint8_t>(need);
    } else {
        std::fill(bits.begin(), bits.end(), 0);
    }
    used = gen = kill = access = 0;
    epoch = l;
}

std::size_t
ButterflyAddrCheck::KeyTable::find(Addr key) const
{
    const std::size_t mask = bits.size() - 1;
    std::size_t i = homeOf(key, mask);
    while (bits[i] && keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

void
ButterflyAddrCheck::KeyTable::grow()
{
    std::vector<Addr> old_keys(2 * keys.size());
    std::vector<std::uint8_t> old_bits(2 * bits.size());
    old_keys.swap(keys);
    old_bits.swap(bits);
    for (std::size_t j = 0; j < old_bits.size(); ++j) {
        if (old_bits[j]) {
            const std::size_t i = find(old_keys[j]);
            keys[i] = old_keys[j];
            bits[i] = old_bits[j];
        }
    }
}

std::size_t
ButterflyAddrCheck::WingTable::find(Addr key) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = homeOf(key, mask);
    while ((slots[i].state != kNoThread || slots[i].access != kNoThread) &&
           slots[i].key != key)
        i = (i + 1) & mask;
    return i;
}

const ButterflyAddrCheck::KeyTable *
ButterflyAddrCheck::tableIfValid(EpochId l, ThreadId t) const
{
    const KeyTable &table = tables_[t][l % kWindow];
    return table.epoch == l ? &table : nullptr;
}

const ButterflyAddrCheck::WingTable *
ButterflyAddrCheck::wingTableIfValid(EpochId l) const
{
    const WingTable &table = wingTables_[l % kWindow];
    return table.epoch == l ? &table : nullptr;
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
    const KeyTable *head = l >= 1 ? tableIfValid(l - 1, t) : nullptr;
    const std::uint8_t bits = head ? head->bitsOf(key) : 0;

    if (KeyTable::genEnd(bits)) {
        bool killed_by_l2 = false;
        if (l >= 2) {
            for (ThreadId u = 0; u < tables_.size() && !killed_by_l2; ++u) {
                if (u == t)
                    continue;
                const KeyTable *w = tableIfValid(l - 2, u);
                killed_by_l2 = w && KeyTable::killEnd(w->bitsOf(key));
            }
        }
        if (!killed_by_l2)
            return true;
    }
    return !KeyTable::killEnd(bits) && sos_.contains(key);
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
    for (ThreadId u = 0; u < tables_.size(); ++u)
        if (const KeyTable *s = tableIfValid(l, u))
            keys += s->used;
    WingTable &table = wingTables_[l % kWindow];
    // assign() keeps the slot array whenever it is large enough. Past
    // kSlack times the need it is given back, as a key table's is at
    // reset, so an allocation-heavy epoch does not pin its table; the
    // kMinSlots floor keeps small epochs from trading arrays back and
    // forth.
    const std::size_t need =
        std::max(kMinSlots, std::bit_ceil(2 * keys + 1));
    if (table.slots.capacity() > kSlack * need)
        table.slots = std::vector<WingTable::Slot>(need);
    else
        table.slots.assign(need, WingTable::Slot{});
    table.epoch = l;
    if (telemetry::enabled()) {
        std::size_t held = 0;
        for (const WingTable &w : wingTables_)
            held += w.slots.capacity();
        telemetry::registry().set(AddrCheckTelemetry::get().wingSlots, held);
    }
    for (ThreadId u = 0; u < tables_.size(); ++u) {
        const KeyTable *s = tableIfValid(l, u);
        if (!s)
            continue;
        auto mark = [u](ThreadId &owner) {
            owner = owner == kNoThread || owner == u ? u : kSeveral;
        };
        for (std::size_t i = 0; i < s->bits.size(); ++i) {
            if (!s->bits[i])
                continue;
            WingTable::Slot &slot = table.slots[table.find(s->keys[i])];
            slot.key = s->keys[i];
            if (s->bits[i] & KeyTable::kChanged)
                mark(slot.state);
            if (s->bits[i] & KeyTable::kAccess)
                mark(slot.access);
        }
    }
}

void
ButterflyAddrCheck::pass1(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    KeyTable &table = tables_[t][l % kWindow];
    const std::size_t slots_before = table.bits.size();
    table.reset(l);

    std::uint64_t checks = 0;
    std::uint64_t flagged = 0;

    // The slot bits of @p key. Pass 1 of (l, t) reads only key tables
    // (l-1, t) and (l-2, u != t) and the SOS, none of which changes
    // while the block runs, so the LSOS answer a key's first touch
    // caches stays valid for the whole block.
    auto touch = [&](Addr key) -> std::uint8_t & {
        std::size_t i = table.find(key);
        if (!table.bits[i]) {
            if (2 * (table.used + 1) > table.bits.size()) {
                table.grow();
                i = table.find(key);
            }
            table.keys[i] = key;
            table.bits[i] = lsosBaseContains(key, l, t)
                                ? KeyTable::kUsed | KeyTable::kAllocated
                                : KeyTable::kUsed;
            ++table.used;
        }
        return table.bits[i];
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
                std::uint8_t &bits = touch(k);
                if (!(bits & KeyTable::kAllocated))
                    flag(index, base, size,
                         ErrorKind::UnallocatedAccess);
                if (!(bits & KeyTable::kAccess)) {
                    bits |= KeyTable::kAccess;
                    ++table.access;
                }
            }
        };

        switch (e.kind) {
          case EventKind::Alloc:
            keysOf(e.addr, e.size, keys);
            for (Addr k : keys) {
                ++checks;
                std::uint8_t &bits = touch(k);
                if (bits & KeyTable::kAllocated)
                    flag(index, e.addr, e.size, ErrorKind::DoubleAlloc);
                table.change(bits, true);
            }
            break;

          case EventKind::Free:
            keysOf(e.addr, e.size, keys);
            for (Addr k : keys) {
                ++checks;
                std::uint8_t &bits = touch(k);
                if (!(bits & KeyTable::kAllocated))
                    flag(index, e.addr, e.size,
                         ErrorKind::UnallocatedFree);
                table.change(bits, false);
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

    const std::uint64_t summary = table.gen + table.kill + table.access;
    summarySizes_[blockKey(l, t)] = summary;
    eventsChecked_ += checks;
    tableSlots_ = tableSlots_ - slots_before + table.bits.size();
    if (telemetry::enabled()) {
        const AddrCheckTelemetry &m = AddrCheckTelemetry::get();
        telemetry::registry().observe(m.summarySize, summary);
        telemetry::registry().set(m.tableSlots, tableSlots_);
    }
    // Each key in the table was one first touch, so one LSOS probe.
    publishBlock(checks, table.used, 0, flagged);

    // The epoch's last pass-1 block builds the epoch's wing table.
    if (++pass1Done_[l % kWindow] == tables_.size()) {
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
    publishBlock(0, 0, records.size(), records.size());
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

bool
ButterflyAddrCheck::inEpochGen(Addr key, EpochId l, ThreadId t) const
{
    // GEN_l: allocated by some thread, and every other thread
    // allocates-or-never-frees it across epochs l-1..l (Section 5.2).
    //
    // Shortcut: the key is in allocAny(l, t), so the wing table of l
    // names t or kSeveral as its state owner. If it names t alone and
    // the table of l-1 names nobody or t, no other thread allocated or
    // freed it in l-1..l, so none killed it and the test holds.
    const WingTable *now = wingTableIfValid(l);
    const WingTable *prev = l >= 1 ? wingTableIfValid(l - 1) : nullptr;
    if (now && (l == 0 || prev) &&
        now->slots[now->find(key)].state == t) {
        const ThreadId before =
            prev ? prev->slots[prev->find(key)].state : kNoThread;
        if (before == kNoThread || before == t)
            return true;
    }

    for (ThreadId u = 0; u < tables_.size(); ++u) {
        if (u == t)
            continue;
        const KeyTable *cur = tableIfValid(l, u);
        const KeyTable *old = l >= 1 ? tableIfValid(l - 1, u) : nullptr;
        const std::uint8_t c = cur ? cur->bitsOf(key) : 0;
        const std::uint8_t p = old ? old->bitsOf(key) : 0;
        const bool gen_span = KeyTable::genEnd(c) ||
                              (KeyTable::genEnd(p) && !KeyTable::killEnd(c));
        const bool not_kill_span =
            !KeyTable::killEnd(p) && !KeyTable::killEnd(c);
        if (!gen_span && !not_kill_span)
            return false;
    }
    return true;
}

void
ButterflyAddrCheck::finalizeEpoch(EpochId l)
{
    std::size_t gen_keys = 0;
    std::size_t kill_keys = 0;
    for (ThreadId t = 0; t < tables_.size(); ++t) {
        if (const KeyTable *s = tableIfValid(l, t)) {
            gen_keys += s->gen;
            kill_keys += s->kill;
        }
    }

    // KILL_l = U_t KILL_{l,t}; GEN_l from each thread's GEN_{l,t}.
    AddrSet kill_epoch;
    AddrSet gen_epoch;
    kill_epoch.reserve(kill_keys);
    gen_epoch.reserve(gen_keys);
    for (ThreadId t = 0; t < tables_.size(); ++t) {
        const KeyTable *s = tableIfValid(l, t);
        if (!s)
            continue;
        for (std::size_t i = 0; i < s->bits.size(); ++i) {
            if (KeyTable::killEnd(s->bits[i]))
                kill_epoch.insert(s->keys[i]);
            else if (KeyTable::genEnd(s->bits[i]) &&
                     inEpochGen(s->keys[i], l, t))
                gen_epoch.insert(s->keys[i]);
        }
    }

    sosWork_[l] = gen_epoch.size() + kill_epoch.size();

    // Single-writer SOS advance: SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l).
    sos_.subtract(kill_epoch);
    sos_.reserve(sos_.size() + gen_epoch.size());
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
