#include "telemetry/trace_span.hpp"

#include <algorithm>
#include <bit>

namespace bfly::telemetry {

namespace {

/** Logical tid of this thread; kUnassigned until first use. */
constexpr std::uint16_t kUnassignedTid = 0xFFFF;
thread_local std::uint16_t t_logicalTid = kUnassignedTid;

/**
 * Logical tids: never-used ones in ascending order, then those of
 * threads that exited. A thread takes one on its first span and gives it
 * back when it exits, so a process that starts a pool per session (as
 * runSession does) keeps a bounded set of tids. The ring and the events
 * of an exited thread stay; the next thread to take its tid appends to
 * them, still one writer at a time. The mutex orders the old owner's
 * last push before the new owner's first.
 */
class TidAllocator
{
  public:
    std::uint16_t
    take()
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (!free_.empty()) {
            const std::uint16_t tid = free_.back();
            free_.pop_back();
            return tid;
        }
        // Beyond kMaxTids live threads we keep handing out kMaxTids;
        // ringFor() rejects it and counts the events as dropped rather
        // than sharing a ring (which would break single-writer).
        if (next_ < SpanTracer::kMaxTids)
            return next_++;
        return SpanTracer::kMaxTids;
    }

    void
    give(std::uint16_t tid)
    {
        if (tid >= SpanTracer::kMaxTids)
            return;
        std::lock_guard<std::mutex> guard(mutex_);
        free_.push_back(tid);
    }

  private:
    std::mutex mutex_;
    std::uint16_t next_ = 0;
    std::vector<std::uint16_t> free_;
};

/** Never destroyed: threads may exit after static destructors ran. */
TidAllocator &
tids()
{
    static TidAllocator *a = new TidAllocator;
    return *a;
}

/** Gives this thread's tid back when the thread exits. */
struct TidRelease
{
    ~TidRelease()
    {
        if (t_logicalTid != kUnassignedTid)
            tids().give(t_logicalTid);
    }
};

} // namespace

SpanTracer::SpanTracer(std::size_t ring_capacity)
    : capacity_(std::bit_ceil(std::max<std::size_t>(ring_capacity, 16))),
      epoch_(std::chrono::steady_clock::now()), rings_(kMaxTids)
{
}

SpanTracer::~SpanTracer()
{
    for (auto &slot : rings_)
        delete slot.load();
}

std::uint32_t
SpanTracer::internName(std::string_view name)
{
    return names_.intern(name);
}

std::uint16_t
SpanTracer::currentTid()
{
    if (t_logicalTid == kUnassignedTid) {
        // Constructed on first use only, so the fast path above touches
        // no thread_local with a destructor.
        static thread_local TidRelease release;
        (void)release;
        t_logicalTid = tids().take();
    }
    return t_logicalTid;
}

SpanTracer::Ring *
SpanTracer::ringFor(std::uint16_t tid)
{
    if (tid >= kMaxTids)
        return nullptr;
    Ring *r = rings_[tid].load(std::memory_order_acquire);
    if (r)
        return r;
    std::lock_guard<std::mutex> guard(mutex_);
    r = rings_[tid].load(std::memory_order_acquire);
    if (!r) {
        r = new Ring(capacity_);
        rings_[tid].store(r, std::memory_order_release);
    }
    return r;
}

void
SpanTracer::push(const TraceEvent &event)
{
    Ring *r = ringFor(event.tid);
    if (!r) {
        droppedTidless_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    const std::uint64_t head = r->head.load(std::memory_order_relaxed);
    r->buf[head & (capacity_ - 1)] = event;
    r->head.store(head + 1, std::memory_order_release);
}

void
SpanTracer::complete(std::uint32_t name, std::uint64_t ts,
                     std::uint64_t dur, std::uint8_t pid,
                     std::uint16_t tid, std::uint32_t arg_name,
                     std::uint64_t arg_value)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.ts = ts;
    e.dur = dur;
    e.argValue = arg_value;
    e.name = name;
    e.argName = arg_name;
    e.tid = tid;
    e.pid = pid;
    push(e);
}

std::vector<ResolvedEvent>
SpanTracer::collect() const
{
    std::vector<ResolvedEvent> out;
    for (std::uint16_t tid = 0; tid < kMaxTids; ++tid) {
        const Ring *r = rings_[tid].load(std::memory_order_acquire);
        if (!r)
            continue;
        const std::uint64_t head = r->head.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(head, capacity_);
        for (std::uint64_t k = head - n; k < head; ++k) {
            const TraceEvent &e = r->buf[k & (capacity_ - 1)];
            ResolvedEvent res;
            res.name = names_.lookup(e.name);
            res.hasArg = e.argName != kNoMetric;
            if (res.hasArg)
                res.argName = names_.lookup(e.argName);
            res.ts = e.ts;
            res.dur = e.dur;
            res.argValue = e.argValue;
            res.tid = e.tid;
            res.pid = e.pid;
            out.push_back(std::move(res));
        }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ResolvedEvent &a, const ResolvedEvent &b) {
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         return a.ts < b.ts;
                     });
    return out;
}

std::uint64_t
SpanTracer::dropped() const
{
    std::uint64_t total = droppedTidless_.load(std::memory_order_relaxed);
    for (std::uint16_t tid = 0; tid < kMaxTids; ++tid) {
        const Ring *r = rings_[tid].load(std::memory_order_acquire);
        if (!r)
            continue;
        const std::uint64_t head = r->head.load(std::memory_order_acquire);
        if (head > capacity_)
            total += head - capacity_;
    }
    return total;
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> guard(mutex_);
    for (auto &slot : rings_) {
        Ring *r = slot.load(std::memory_order_acquire);
        if (r)
            r->head.store(0, std::memory_order_release);
    }
    droppedTidless_.store(0, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now();
}

SpanTracer &
tracer()
{
    static SpanTracer *t = new SpanTracer;
    return *t;
}

// ---------------------------------------------------------------- TraceSpan

TraceSpan::TraceSpan(std::string_view name)
{
    if (!enabled())
        return;
    SpanTracer &t = tracer();
    name_ = t.internName(name);
    start_ = t.nowNs();
    active_ = true;
}

TraceSpan::TraceSpan(std::string_view name, std::string_view arg_name,
                     std::uint64_t arg_value)
{
    if (!enabled())
        return;
    SpanTracer &t = tracer();
    name_ = t.internName(name);
    argName_ = t.internName(arg_name);
    argValue_ = arg_value;
    start_ = t.nowNs();
    active_ = true;
}

TraceSpan::TraceSpan(std::uint32_t name_id, std::uint32_t arg_name_id,
                     std::uint64_t arg_value)
{
    if (!enabled())
        return;
    name_ = name_id;
    argName_ = arg_name_id;
    argValue_ = arg_value;
    start_ = tracer().nowNs();
    active_ = true;
}

TraceSpan::~TraceSpan()
{
    if (!active_)
        return;
    SpanTracer &t = tracer();
    const std::uint64_t end = t.nowNs();
    t.complete(name_, start_, end > start_ ? end - start_ : 0,
               SpanTracer::kWallPid, SpanTracer::currentTid(), argName_,
               argValue_);
}

} // namespace bfly::telemetry
