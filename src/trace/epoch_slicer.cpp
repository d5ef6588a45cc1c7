#include "trace/epoch_slicer.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace bfly {

namespace {

/**
 * A trace's epoch boundaries in per-thread event indices with heartbeats
 * excluded, and where the trace's heartbeat markers fall among them.
 */
struct Boundaries
{
    std::size_t numEpochs = 0;
    /** starts[t][l]: index of block (l,t)'s first event; the last entry
     *  is the thread's event count. */
    std::vector<std::vector<std::size_t>> starts;
    /** markers[t]: for each marker of thread t, the number of events
     *  before it. Empty for a trace without markers. */
    std::vector<std::vector<std::size_t>> markers;
};

/**
 * The byGlobalSeq boundary table: block (l,t) holds the events whose
 * gseq falls in epoch l's bucket. Shared by EpochLayout::byGlobalSeq and
 * EpochStream so the streamed epoch structure is identical to the
 * layout's by construction.
 */
Boundaries
globalSeqBoundaries(const Trace &trace, std::size_t global_h)
{
    ensure(global_h > 0, "global epoch size must be positive");
    constexpr std::uint64_t kTop = ~std::uint64_t{0};
    Boundaries b;
    b.starts.resize(trace.threads.size());
    b.markers.resize(trace.threads.size());
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        // Epoch of event i = its gseq bucket, clamped non-decreasing so
        // the block stays contiguous when relaxed visibility reordered
        // gseq slightly out of program order. The bucket after the
        // current one starts at `next`, which saturates at kTop rather
        // than wrapping (g = gseq - 1 never reaches kTop).
        std::vector<std::size_t> &starts = b.starts[t];
        starts.push_back(0);
        std::uint64_t next = global_h;
        std::size_t i = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat) {
                b.markers[t].push_back(i);
                continue;
            }
            const std::uint64_t g = e.gseq > 0 ? e.gseq - 1 : 0;
            while (g >= next) {
                starts.push_back(i);
                next = next > kTop - global_h ? kTop : next + global_h;
            }
            ++i;
        }
        starts.push_back(i);
        b.numEpochs = std::max(b.numEpochs, starts.size() - 1);
    }
    return b;
}

/**
 * The fromHeartbeats boundary table: block (l,t) spans the events
 * between marker l-1 and marker l. Shared by EpochStream's heartbeat
 * mode so the streamed structure matches EpochLayout::fromHeartbeats by
 * construction.
 */
Boundaries
heartbeatBoundaries(const Trace &trace)
{
    Boundaries b;
    b.starts.resize(trace.threads.size());
    b.markers.resize(trace.threads.size());
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        std::vector<std::size_t> &starts = b.starts[t];
        starts.push_back(0);
        std::size_t i = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat) {
                starts.push_back(i);
                b.markers[t].push_back(i);
            } else {
                ++i;
            }
        }
        // Close the final (possibly heartbeat-less) block.
        starts.push_back(i);
        b.numEpochs = std::max(b.numEpochs, starts.size() - 1);
    }
    return b;
}

/** Pad every thread to @p num_epochs blocks with empty ones. */
void
padStarts(std::vector<std::vector<std::size_t>> &starts,
          std::size_t num_epochs)
{
    for (auto &s : starts) {
        const std::size_t end = s.back();
        s.resize(num_epochs + 1, end);
    }
}

/**
 * Rewrite a padded boundary table (every thread numEpochs+1 entries) to
 * the coalesced slicing: analyzed epoch i spans spans[i] consecutive
 * source epochs, so its block simply runs from the first merged source
 * epoch's start to the start right past the last one. Shared by
 * EpochLayout::coalescedFromHeartbeats and EpochStream's reslice path
 * so both sides realize the identical boundary table.
 */
void
coalesceStarts(std::vector<std::vector<std::size_t>> &starts,
               std::size_t num_epochs,
               std::span<const std::uint32_t> spans)
{
    std::size_t total = 0;
    for (const std::uint32_t k : spans) {
        ensure(k >= 1, "coalescing spans must be positive");
        total += k;
    }
    ensure(total == num_epochs,
           "coalescing spans must cover every source epoch exactly once");

    for (auto &s : starts) {
        std::vector<std::size_t> merged;
        merged.reserve(spans.size() + 1);
        std::size_t cum = 0;
        merged.push_back(s[0]);
        for (const std::uint32_t k : spans) {
            cum += k;
            merged.push_back(s[cum]);
        }
        s = std::move(merged);
    }
}

/** Where a block lies among its thread's events, markers included. */
struct RawExtent
{
    std::size_t offset = 0; ///< index of the block's first event
    bool straddles = false; ///< a marker falls between two of its events
};

/**
 * Locate the block of events [begin, end) (heartbeats excluded) of a
 * thread whose markers sit at @p markers: every marker at or before
 * begin precedes the block's first event, so the block starts that many
 * events later in the thread's stored vector. (In a heartbeat slicing,
 * block l starts begin + l events in.)
 */
RawExtent
locate(std::span<const std::size_t> markers, std::size_t begin,
       std::size_t end)
{
    const auto after = std::upper_bound(markers.begin(), markers.end(), begin);
    return {begin + static_cast<std::size_t>(after - markers.begin()),
            after != markers.end() && *after < end};
}

/** Append the @p n events from raw[offset] on to @p out, markers
 *  dropped. */
void
copyFiltered(std::span<const Event> raw, std::size_t offset, std::size_t n,
             std::vector<Event> &out)
{
    for (std::size_t k = offset; n > 0; ++k) {
        if (raw[k].kind != EventKind::Heartbeat) {
            out.push_back(raw[k]);
            --n;
        }
    }
}

} // namespace

EpochLayout::EpochLayout(const Trace &trace, std::size_t num_epochs,
                         std::vector<std::vector<std::size_t>> starts,
                         const std::vector<std::vector<std::size_t>> &markers)
    : numEpochs_(num_epochs), starts_(std::move(starts)),
      extents_(starts_.size()), copies_(starts_.size())
{
    padStarts(starts_, numEpochs_);
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        tids_.push_back(trace.threads[t].tid);
        raw_.emplace_back(trace.threads[t].events);
        extents_[t].reserve(numEpochs_);
        for (EpochId l = 0; l < numEpochs_; ++l) {
            const std::size_t begin = starts_[t][l];
            const std::size_t end = starts_[t][l + 1];
            const RawExtent at = locate(markers[t], begin, end);
            if (at.straddles) {
                extents_[t].push_back({copies_[t].size(), true});
                copyFiltered(raw_[t], at.offset, end - begin, copies_[t]);
            } else {
                extents_[t].push_back({at.offset, false});
            }
        }
    }
}

EpochLayout
EpochLayout::fromHeartbeats(const Trace &trace)
{
    Boundaries b = heartbeatBoundaries(trace);
    return EpochLayout(trace, b.numEpochs, std::move(b.starts), b.markers);
}

EpochLayout
EpochLayout::coalescedFromHeartbeats(const Trace &trace,
                                     std::span<const std::uint32_t> spans)
{
    Boundaries b = heartbeatBoundaries(trace);
    // The coalescing transform needs the padded table.
    padStarts(b.starts, b.numEpochs);
    coalesceStarts(b.starts, b.numEpochs, spans);
    return EpochLayout(trace, spans.size(), std::move(b.starts), b.markers);
}

EpochLayout
EpochLayout::uniform(const Trace &trace, std::size_t h)
{
    ensure(h > 0, "uniform epoch size must be positive");
    Boundaries b;
    b.starts.resize(trace.threads.size());
    b.markers.resize(trace.threads.size());
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        std::size_t n = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat)
                b.markers[t].push_back(n);
            else
                ++n;
        }
        for (std::size_t pos = 0; ; pos += h) {
            b.starts[t].push_back(std::min(pos, n));
            if (pos >= n)
                break;
        }
        b.numEpochs = std::max(b.numEpochs, b.starts[t].size() - 1);
    }
    return EpochLayout(trace, b.numEpochs, std::move(b.starts), b.markers);
}

EpochLayout
EpochLayout::byGlobalSeq(const Trace &trace, std::size_t global_h)
{
    Boundaries b = globalSeqBoundaries(trace, global_h);
    return EpochLayout(trace, b.numEpochs, std::move(b.starts), b.markers);
}

EpochLayout
EpochLayout::byGlobalSeqSkewed(const Trace &trace, std::size_t global_h,
                               std::size_t max_skew, std::uint64_t seed)
{
    ensure(global_h > 0, "global epoch size must be positive");
    ensure(max_skew < global_h,
           "heartbeat skew must be below the epoch size (the paper "
           "sizes epochs to absorb delivery skew)");

    // Delivery delay of heartbeat k at thread t, deterministic in seed.
    auto skew_of = [&](std::size_t t, EpochId k) -> std::uint64_t {
        if (max_skew == 0)
            return 0;
        Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (t + 1)) ^
                (0xc2b2ae3d27d4eb4full * (k + 1)));
        return rng.below(max_skew + 1);
    };

    Boundaries b;
    b.starts.resize(trace.threads.size());
    b.markers.resize(trace.threads.size());
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        std::vector<std::size_t> &starts = b.starts[t];
        starts.push_back(0);
        EpochId current = 0;
        // Boundary of epoch k at thread t: heartbeat k's nominal time
        // k*global_h plus its delivery delay.
        auto boundary = [&](EpochId k) {
            return static_cast<std::uint64_t>(k) * global_h +
                   skew_of(t, k);
        };
        std::size_t i = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat) {
                b.markers[t].push_back(i);
                continue;
            }
            const std::uint64_t g = e.gseq > 0 ? e.gseq - 1 : 0;
            while (g >= boundary(current + 1)) {
                starts.push_back(i);
                ++current;
            }
            ++i;
        }
        starts.push_back(i);
        b.numEpochs = std::max(b.numEpochs, starts.size() - 1);
    }
    return EpochLayout(trace, b.numEpochs, std::move(b.starts), b.markers);
}

BlockView
EpochLayout::block(EpochId l, ThreadId t) const
{
    ensure(t < starts_.size(), "thread id out of range");
    ensure(l < numEpochs_, "epoch id out of range");
    const std::size_t begin = starts_[t][l];
    const std::size_t size = starts_[t][l + 1] - begin;
    const Extent &at = extents_[t][l];
    const std::span<const Event> store =
        at.copied ? std::span<const Event>(copies_[t]) : raw_[t];
    return BlockView{l, tids_[t], store.subspan(at.offset, size), begin};
}

std::vector<BlockView>
EpochLayout::epoch(EpochId l) const
{
    std::vector<BlockView> blocks;
    blocks.reserve(starts_.size());
    for (ThreadId t = 0; t < starts_.size(); ++t)
        blocks.push_back(block(l, t));
    return blocks;
}

EpochStream::EpochStream(const Trace &trace, Config config)
{
    ensure(config.windowEpochs >= 4,
           "EpochStream window must hold at least 4 epochs (body, both "
           "wings, and the epoch being admitted)");
    Boundaries b = config.fromHeartbeats
                       ? heartbeatBoundaries(trace)
                       : globalSeqBoundaries(trace, config.globalH);
    numEpochs_ = b.numEpochs;
    starts_ = std::move(b.starts);
    markers_ = std::move(b.markers);
    // Pad every thread's boundary table to the same epoch count, exactly
    // as the EpochLayout constructor does.
    padStarts(starts_, numEpochs_);
    sourceEpochs_ = numEpochs_;

    if (config.reslice && numEpochs_ > 0) {
        // Consult the policy once per group, in leader order. Each call
        // may sample live pressure, so the merge width can change from
        // group to group — the "h changes mid-stream" the adaptive
        // service advertises via EpochHint frames. Merging whole source
        // epochs keeps every realized boundary a heartbeat boundary, so
        // the 3-epoch window invariants hold on the coarsened slicing
        // exactly as they did on the source slicing.
        std::vector<std::size_t> epoch_events(numEpochs_, 0);
        for (const auto &s : starts_)
            for (std::size_t l = 0; l < numEpochs_; ++l)
                epoch_events[l] += s[l + 1] - s[l];

        std::size_t leader = 0;
        while (leader < numEpochs_) {
            std::size_t k = config.reslice(leader, epoch_events);
            k = std::clamp<std::size_t>(k, 1, numEpochs_ - leader);
            spans_.push_back(static_cast<std::uint32_t>(k));
            leader += k;
        }
        coalesceStarts(starts_, numEpochs_, spans_);
        numEpochs_ = spans_.size();
    }

    for (const ThreadTrace &t : trace.threads) {
        tids_.push_back(t.tid);
        raw_.emplace_back(t.events);
    }

    const std::size_t T = trace.threads.size();
    cells_.resize(config.windowEpochs);
    for (Cell &c : cells_)
        c.events.resize(T);
}

void
EpochStream::acquire(EpochId l)
{
    ensure(l == nextAcquire_, "epochs must be acquired in order");
    ensure(l < numEpochs_, "epoch id out of range");
    Cell &cell = cellOf(l);
    ensure(cell.epoch == kNoEpoch,
           "EpochStream ring cell still resident (retire the oldest "
           "epoch before admitting a new one)");

    // A block that straddles a marker is copied into the cell's buffer,
    // sized first so that the spans into it stay valid; every other
    // block is a span of the trace's events.
    const std::size_t T = starts_.size();
    std::size_t straddling = 0;
    for (std::size_t t = 0; t < T; ++t)
        if (locate(markers_[t], starts_[t][l], starts_[t][l + 1]).straddles)
            straddling += starts_[t][l + 1] - starts_[t][l];
    cell.copies.reserve(straddling);
    for (std::size_t t = 0; t < T; ++t) {
        const std::size_t begin = starts_[t][l];
        const std::size_t n = starts_[t][l + 1] - begin;
        const RawExtent at = locate(markers_[t], begin, begin + n);
        if (at.straddles) {
            const std::size_t from = cell.copies.size();
            copyFiltered(raw_[t], at.offset, n, cell.copies);
            cell.events[t] =
                std::span<const Event>(cell.copies).subspan(from, n);
        } else {
            cell.events[t] = raw_[t].subspan(at.offset, n);
        }
    }
    copiedEvents_ += straddling;
    cell.epoch = l;
    ++nextAcquire_;
    peakResident_ = std::max(peakResident_, ++resident_);
}

BlockView
EpochStream::block(EpochId l, ThreadId t) const
{
    ensure(t < starts_.size(), "thread id out of range");
    const Cell &cell = cellOf(l);
    ensure(cell.epoch == l, "block() requires a resident epoch");
    return BlockView{l, tids_[t], cell.events[t], starts_[t][l]};
}

void
EpochStream::retire(EpochId l)
{
    ensure(l == nextRetire_, "epochs must be retired in order");
    Cell &cell = cellOf(l);
    ensure(cell.epoch == l, "retire() of a non-resident epoch");
    cell.epoch = kNoEpoch;
    // Keep the buffer's capacity: the ring reuses it for the epoch that
    // lands in this cell windowEpochs later.
    std::fill(cell.events.begin(), cell.events.end(),
              std::span<const Event>());
    cell.copies.clear();
    ++nextRetire_;
    --resident_;
}

} // namespace bfly
