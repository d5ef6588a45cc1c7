#include "trace/log_codec.hpp"

#include "common/logging.hpp"

namespace bfly {

namespace {

/** Opcode layout: kind(4) | size-follows(1) | nsrc(2) | unused(1). */
constexpr std::uint8_t kKindMask = 0x0f;
constexpr std::uint8_t kSizeFlag = 0x10;
constexpr unsigned kNsrcShift = 5;

/** SiteSummary count cap: a hostile varint may not claim more elided
 *  events than any real trace could hold (2^48 ~ 280 trillion). */
constexpr std::uint64_t kMaxSummaryCount = (1ull << 48) - 1;

/** Default size per kind (encoded only when it differs). */
std::uint16_t
defaultSize(EventKind kind)
{
    switch (kind) {
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Assign:
      case EventKind::TaintSrc:
      case EventKind::Untaint:
        return 8;
      case EventKind::Output:
        return 8;
      case EventKind::Use:
        return 1;
      default:
        return 0;
    }
}

bool
hasAddress(EventKind kind)
{
    switch (kind) {
      case EventKind::Heartbeat:
      case EventKind::Barrier:
      case EventKind::Nop:
      case EventKind::SiteSummary: // custom payload: site + count varints
        return false;
      default:
        return true;
    }
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

} // namespace

void
LogEncoder::putVarint(std::uint64_t v)
{
    while (v >= 0x80) {
        bytes_.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    bytes_.push_back(static_cast<std::uint8_t>(v));
}

void
LogEncoder::putSignedDelta(Addr addr)
{
    // Subtract unsigned: the difference wraps instead of overflowing,
    // and read as two's complement it is the signed delta.
    putVarint(zigzag(static_cast<std::int64_t>(addr - lastAddr_)));
    lastAddr_ = addr;
}

void
LogEncoder::encode(const Event &e)
{
    const auto kind = static_cast<std::uint8_t>(e.kind);
    ensure(kind <= kKindMask, "event kind does not fit the opcode");

    if (e.kind == EventKind::SiteSummary) {
        ensure(e.summaryCount() >= 1 &&
                   e.summaryCount() <= kMaxSummaryCount,
               "site summary count out of range");
        bytes_.push_back(kind); // no size flag, no sources
        putVarint(e.site);
        putVarint(e.summaryCount());
        ++count_;
        return;
    }

    std::uint8_t opcode =
        kind | (static_cast<std::uint8_t>(e.nsrc) << kNsrcShift);
    const bool size_follows =
        hasAddress(e.kind) && e.size != defaultSize(e.kind);
    if (size_follows)
        opcode |= kSizeFlag;
    bytes_.push_back(opcode);

    if (hasAddress(e.kind)) {
        ensure(e.addr != kNoAddr, "addressed event without address");
        putSignedDelta(e.addr);
        if (size_follows)
            putVarint(e.size);
        if (e.nsrc >= 1)
            putSignedDelta(e.src0);
        if (e.nsrc >= 2)
            putSignedDelta(e.src1);
    }
    ++count_;
}

const char *
decodeStatusName(DecodeStatus status)
{
    switch (status) {
      case DecodeStatus::Ok:
        return "ok";
      case DecodeStatus::NeedMore:
        return "need-more";
      case DecodeStatus::Corrupt:
        return "corrupt";
    }
    return "?";
}

DecodeStatus
LogDecoder::getVarint(std::uint64_t &v)
{
    v = 0;
    unsigned shift = 0;
    for (;;) {
        if (pos_ >= bytes_.size())
            return DecodeStatus::NeedMore;
        const std::uint8_t b = bytes_[pos_++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return DecodeStatus::Ok;
        shift += 7;
        if (shift >= 64)
            return DecodeStatus::Corrupt; // overlong varint
    }
}

DecodeStatus
LogDecoder::getSignedDelta(Addr &out)
{
    std::uint64_t raw = 0;
    const DecodeStatus status = getVarint(raw);
    if (status != DecodeStatus::Ok)
        return status;
    // Add unsigned, so a hostile delta wraps instead of overflowing.
    lastAddr_ += static_cast<Addr>(unzigzag(raw));
    out = lastAddr_;
    return DecodeStatus::Ok;
}

DecodeStatus
LogDecoder::tryDecode(Event &out)
{
    const std::size_t saved_pos = pos_;
    const Addr saved_addr = lastAddr_;
    auto fail = [&](DecodeStatus status) {
        pos_ = saved_pos;
        lastAddr_ = saved_addr;
        return status;
    };

    if (done())
        return DecodeStatus::NeedMore;
    const std::uint8_t opcode = bytes_[pos_++];
    Event e;
    e.kind = static_cast<EventKind>(opcode & kKindMask);
    if ((opcode & kKindMask) >
        static_cast<std::uint8_t>(EventKind::SiteSummary))
        return fail(DecodeStatus::Corrupt); // hole in the kind space
    e.nsrc = static_cast<std::uint8_t>(opcode >> kNsrcShift) & 0x3;
    if (e.nsrc > 2)
        return fail(DecodeStatus::Corrupt); // encoder emits 0..2 only
    e.size = defaultSize(e.kind);

    if (e.kind == EventKind::SiteSummary) {
        // Summaries carry no size flag or sources; the payload is two
        // varints (site id, elided-event count), both range-checked so
        // a hostile log can neither overflow the 32-bit site id nor
        // claim an absurd count.
        if ((opcode & kSizeFlag) || e.nsrc != 0)
            return fail(DecodeStatus::Corrupt);
        std::uint64_t site = 0, count = 0;
        DecodeStatus status = getVarint(site);
        if (status != DecodeStatus::Ok)
            return fail(status);
        if (site > 0xFFFFFFFFull)
            return fail(DecodeStatus::Corrupt); // site id is 32-bit
        status = getVarint(count);
        if (status != DecodeStatus::Ok)
            return fail(status);
        if (count == 0 || count > kMaxSummaryCount)
            return fail(DecodeStatus::Corrupt);
        e.site = static_cast<std::uint32_t>(site);
        e.src0 = count;
        out = e;
        return DecodeStatus::Ok;
    }

    if (!hasAddress(e.kind)) {
        // Addressless opcodes carry no payload; the encoder never sets
        // the size flag or a source count on them.
        if ((opcode & kSizeFlag) || e.nsrc != 0)
            return fail(DecodeStatus::Corrupt);
        out = e;
        return DecodeStatus::Ok;
    }

    DecodeStatus status = getSignedDelta(e.addr);
    if (status != DecodeStatus::Ok)
        return fail(status);
    if (opcode & kSizeFlag) {
        std::uint64_t size = 0;
        status = getVarint(size);
        if (status != DecodeStatus::Ok)
            return fail(status);
        if (size > 0xFFFF)
            return fail(DecodeStatus::Corrupt); // size is 16-bit
        e.size = static_cast<std::uint16_t>(size);
    }
    if (e.nsrc >= 1) {
        status = getSignedDelta(e.src0);
        if (status != DecodeStatus::Ok)
            return fail(status);
    }
    if (e.nsrc >= 2) {
        status = getSignedDelta(e.src1);
        if (status != DecodeStatus::Ok)
            return fail(status);
    }
    out = e;
    return DecodeStatus::Ok;
}

Event
LogDecoder::decode()
{
    ensure(!done(), "decode past the end of the event log");
    Event e;
    const DecodeStatus status = tryDecode(e);
    ensure(status == DecodeStatus::Ok,
           status == DecodeStatus::NeedMore
               ? "truncated event in log"
               : "corrupt event in log");
    return e;
}

// --------------------------------------------------------- ChunkedLogDecoder

void
ChunkedLogDecoder::feed(std::span<const std::uint8_t> bytes)
{
    // Drop the decoded prefix before growing; keeps the buffer sized to
    // one partial event plus the newest chunk.
    if (consumed_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

DecodeStatus
ChunkedLogDecoder::next(Event &out)
{
    if (corrupt_)
        return DecodeStatus::Corrupt;
    LogDecoder dec(std::span<const std::uint8_t>(buffer_.data() + consumed_,
                                                 buffer_.size() - consumed_));
    dec.restore(lastAddr_);
    const DecodeStatus status = dec.tryDecode(out);
    switch (status) {
      case DecodeStatus::Ok:
        consumed_ += dec.pos();
        lastAddr_ = dec.lastAddr();
        ++eventsDecoded_;
        break;
      case DecodeStatus::Corrupt:
        corrupt_ = true;
        break;
      case DecodeStatus::NeedMore:
        break;
    }
    return status;
}

std::vector<std::uint8_t>
encodeEvents(const std::vector<Event> &events)
{
    LogEncoder enc;
    for (const Event &e : events)
        enc.encode(e);
    return enc.bytes();
}

std::vector<Event>
decodeEvents(std::span<const std::uint8_t> bytes)
{
    LogDecoder dec(bytes);
    std::vector<Event> events;
    while (!dec.done())
        events.push_back(dec.decode());
    return events;
}

Trace
withHeartbeatMarkers(const Trace &trace, const EpochLayout &layout)
{
    Trace out;
    out.threads.resize(trace.numThreads());
    for (ThreadId t = 0; t < trace.numThreads(); ++t) {
        out.threads[t].tid = trace.threads[t].tid;
        auto &events = out.threads[t].events;
        for (EpochId l = 0; l < layout.numEpochs(); ++l) {
            const BlockView block = layout.block(l, t);
            events.insert(events.end(), block.events.begin(),
                          block.events.end());
            if (l + 1 < layout.numEpochs())
                events.push_back(Event::heartbeat());
        }
    }
    return out;
}

namespace {
constexpr std::uint32_t kLogMagic = 0xb77e72f1; // "butterfly" log
}

bool
saveTrace(const Trace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    auto put32 = [&](std::uint32_t v) {
        std::fwrite(&v, sizeof v, 1, f);
    };
    put32(kLogMagic);
    put32(static_cast<std::uint32_t>(trace.numThreads()));
    for (const ThreadTrace &tt : trace.threads) {
        const auto bytes = encodeEvents(tt.events);
        put32(tt.tid);
        put32(static_cast<std::uint32_t>(bytes.size()));
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    }
    return std::fclose(f) == 0;
}

Trace
loadTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open trace file: " + path);
    auto get32 = [&]() {
        std::uint32_t v = 0;
        if (std::fread(&v, sizeof v, 1, f) != 1)
            fatal("truncated trace file: " + path);
        return v;
    };
    if (get32() != kLogMagic)
        fatal("not a butterfly trace file: " + path);
    Trace trace;
    const std::uint32_t nthreads = get32();
    trace.threads.resize(nthreads);
    for (std::uint32_t t = 0; t < nthreads; ++t) {
        trace.threads[t].tid = get32();
        const std::uint32_t len = get32();
        std::vector<std::uint8_t> bytes(len);
        if (len && std::fread(bytes.data(), 1, len, f) != len)
            fatal("truncated trace file: " + path);
        trace.threads[t].events = decodeEvents(bytes);
    }
    std::fclose(f);
    return trace;
}

} // namespace bfly
