#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/logging.hpp"

namespace bfly {

std::size_t
ThreadTrace::instructionCount() const
{
    std::size_t n = 0;
    for (const Event &e : events) {
        if (e.kind != EventKind::Heartbeat)
            ++n;
    }
    return n;
}

std::size_t
ThreadTrace::memoryAccessCount() const
{
    std::size_t n = 0;
    for (const Event &e : events) {
        if (e.isMemoryAccess())
            ++n;
    }
    return n;
}

std::size_t
Trace::instructionCount() const
{
    std::size_t n = 0;
    for (const ThreadTrace &t : threads)
        n += t.instructionCount();
    return n;
}

std::size_t
Trace::memoryAccessCount() const
{
    std::size_t n = 0;
    for (const ThreadTrace &t : threads)
        n += t.memoryAccessCount();
    return n;
}

std::vector<GseqRef>
Trace::gseqOrder() const
{
    // Calls f on every non-heartbeat event, in thread-then-index order.
    const auto each_event = [this](auto &&f) {
        for (std::size_t t = 0; t < threads.size(); ++t) {
            std::uint32_t index = 0;
            for (const Event &e : threads[t].events)
                if (e.kind != EventKind::Heartbeat)
                    f(GseqRef{&e, static_cast<ThreadId>(t), index++});
        }
    };
    std::size_t n = 0;
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t hi = 0;
    each_event([&](const GseqRef &r) {
        ++n;
        lo = std::min(lo, r.event->gseq);
        hi = std::max(hi, r.event->gseq);
    });
    ensure(n <= std::numeric_limits<std::uint32_t>::max(),
           "too many events for 32-bit instruction indices");

    // Digits of about log2(2n) bits, so the counters cost no more than
    // the refs. The first scatter reads the threads directly; the
    // buffers alternate so that the last one lands in `order`.
    const unsigned bits = n > 0 ? std::bit_width(hi - lo) : 0;
    const unsigned width = std::min(
        std::max(bits, 1u),
        std::max(8u, static_cast<unsigned>(std::bit_width(n)) + 1));
    const unsigned passes = std::max(1u, (bits + width - 1) / width);
    std::vector<std::uint32_t> count(std::size_t{1} << width);
    const auto scatter = [&](unsigned pass, auto &&each,
                             std::vector<GseqRef> &dst) {
        const auto digit = [&](const GseqRef &r) {
            return static_cast<std::size_t>(
                (r.event->gseq - lo) >> (pass * width) &
                ((std::uint64_t{1} << width) - 1));
        };
        std::fill(count.begin(), count.end(), 0);
        each([&](const GseqRef &r) { ++count[digit(r)]; });
        std::exclusive_scan(count.begin(), count.end(), count.begin(), 0u);
        each([&](const GseqRef &r) { dst[count[digit(r)]++] = r; });
    };
    std::vector<GseqRef> order(n);
    std::vector<GseqRef> other(passes > 1 ? n : 0);
    std::vector<GseqRef> *dst = passes % 2 ? &order : &other;
    scatter(0, each_event, *dst);
    for (unsigned p = 1; p < passes; ++p) {
        const std::vector<GseqRef> &src = *dst;
        dst = dst == &order ? &other : &order;
        scatter(
            p, [&src](auto &&f) { std::for_each(src.begin(), src.end(), f); },
            *dst);
    }
    return order;
}

std::vector<std::pair<ThreadId, Event>>
Trace::serializedRoundRobin(std::size_t quantum) const
{
    std::vector<std::pair<ThreadId, Event>> merged;
    std::vector<std::size_t> cursor(threads.size(), 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t t = 0; t < threads.size(); ++t) {
            const auto &events = threads[t].events;
            for (std::size_t q = 0; q < quantum && cursor[t] < events.size();
                 ++cursor[t]) {
                const Event &e = events[cursor[t]];
                if (e.kind != EventKind::Heartbeat) {
                    merged.emplace_back(threads[t].tid, e);
                    ++q;
                }
                progress = true;
            }
        }
    }
    return merged;
}

} // namespace bfly
