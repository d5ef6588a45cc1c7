#include "service/wire.hpp"

#include <cstring>

namespace bfly::service {

namespace {

/** Per-frame sanity caps: a hostile count can never drive a large
 *  allocation (the frame cap bounds the bytes; these bound the element
 *  counts claimed by a length prefix before the elements are read). */
constexpr std::uint64_t kMaxRecordsPerFrame = 1u << 16;
constexpr std::uint64_t kMaxSosPerFrame = 1u << 17;
constexpr std::uint64_t kMaxSpansPerFrame = 1u << 16;

/** Bounds-checked little-endian / varint writer. */
struct Writer
{
    std::vector<std::uint8_t> out;

    void putU8(std::uint8_t v) { out.push_back(v); }

    void
    putU32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    putVarint(std::uint64_t v)
    {
        while (v >= 0x80) {
            out.push_back(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        out.push_back(static_cast<std::uint8_t>(v));
    }

    void
    putBytes(std::span<const std::uint8_t> bytes)
    {
        out.insert(out.end(), bytes.begin(), bytes.end());
    }
};

/** Bounds-checked reader over one untrusted payload. */
struct Reader
{
    std::span<const std::uint8_t> bytes;
    std::size_t pos = 0;

    std::size_t remaining() const { return bytes.size() - pos; }

    bool
    getU8(std::uint8_t &v)
    {
        if (remaining() < 1)
            return false;
        v = bytes[pos++];
        return true;
    }

    bool
    getU32(std::uint32_t &v)
    {
        if (remaining() < 4)
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(bytes[pos++]) << (8 * i);
        return true;
    }

    bool
    getU64(std::uint64_t &v)
    {
        if (remaining() < 8)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * i);
        return true;
    }

    bool
    getVarint(std::uint64_t &v)
    {
        v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (remaining() < 1)
                return false;
            const std::uint8_t b = bytes[pos++];
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                return true;
        }
        return false; // overlong varint
    }
};

DecodeStatus
statusOf(bool ok, const Reader &r, bool require_drained = true)
{
    if (!ok)
        return DecodeStatus::Corrupt;
    if (require_drained && r.remaining() != 0)
        return DecodeStatus::Corrupt; // trailing garbage
    return DecodeStatus::Ok;
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::SessionOpen: return "SessionOpen";
      case FrameType::SessionAccept: return "SessionAccept";
      case FrameType::LogChunk: return "LogChunk";
      case FrameType::TraceEnd: return "TraceEnd";
      case FrameType::Heartbeat: return "Heartbeat";
      case FrameType::Busy: return "Busy";
      case FrameType::Reject: return "Reject";
      case FrameType::ErrorReport: return "ErrorReport";
      case FrameType::Sos: return "Sos";
      case FrameType::Summary: return "Summary";
      case FrameType::EpochHint: return "EpochHint";
    }
    return "?";
}

void
appendFrame(std::vector<std::uint8_t> &out, FrameType type,
            std::span<const std::uint8_t> payload)
{
    out.push_back(static_cast<std::uint8_t>(type));
    const auto n = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    out.insert(out.end(), payload.begin(), payload.end());
}

void
FrameParser::feed(std::span<const std::uint8_t> bytes)
{
    if (consumed_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

DecodeStatus
FrameParser::next(Frame &out)
{
    if (corrupt_)
        return DecodeStatus::Corrupt;
    const std::size_t avail = buffer_.size() - consumed_;
    if (avail < kFrameHeaderBytes)
        return DecodeStatus::NeedMore;
    const std::uint8_t *p = buffer_.data() + consumed_;
    const std::uint8_t type = p[0];
    if (type < static_cast<std::uint8_t>(FrameType::SessionOpen) ||
        type > static_cast<std::uint8_t>(FrameType::EpochHint)) {
        corrupt_ = true;
        return DecodeStatus::Corrupt;
    }
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(p[1 + i]) << (8 * i);
    if (len > kMaxFramePayload) {
        corrupt_ = true;
        return DecodeStatus::Corrupt;
    }
    if (avail < kFrameHeaderBytes + len)
        return DecodeStatus::NeedMore;
    out.type = static_cast<FrameType>(type);
    out.payload.assign(p + kFrameHeaderBytes, p + kFrameHeaderBytes + len);
    consumed_ += kFrameHeaderBytes + len;
    return DecodeStatus::Ok;
}

// ---------------------------------------------------------------- payloads

std::vector<std::uint8_t>
encodeSessionOpen(const SessionSpec &spec)
{
    Writer w;
    w.putU8(kWireVersion);
    w.putU8(spec.lifeguard);
    w.putU8(spec.memModel);
    w.putU8(0); // reserved flags
    w.putVarint(spec.numThreads);
    w.putVarint(spec.granularity);
    w.putVarint(spec.globalH);
    w.putVarint(spec.windowEpochs);
    w.putU64(spec.heapBase);
    w.putU64(spec.heapLimit);
    w.putU64(spec.planFingerprint);
    return std::move(w.out);
}

DecodeStatus
decodeSessionOpen(std::span<const std::uint8_t> payload, SessionSpec &out)
{
    Reader r{payload};
    std::uint8_t version = 0, flags = 0;
    std::uint64_t threads = 0, gran = 0, h = 0, window = 0;
    const bool ok = r.getU8(version) && r.getU8(out.lifeguard) &&
                    r.getU8(out.memModel) && r.getU8(flags) &&
                    r.getVarint(threads) && r.getVarint(gran) &&
                    r.getVarint(h) && r.getVarint(window) &&
                    r.getU64(out.heapBase) && r.getU64(out.heapLimit) &&
                    r.getU64(out.planFingerprint);
    if (statusOf(ok, r) != DecodeStatus::Ok)
        return DecodeStatus::Corrupt;
    if (version != kWireVersion || threads == 0 || threads > 1u << 16 ||
        gran == 0 || gran > 4096 || window < 4 || window > 1024)
        return DecodeStatus::Corrupt;
    out.numThreads = static_cast<std::uint32_t>(threads);
    out.granularity = static_cast<std::uint32_t>(gran);
    out.globalH = h;
    out.windowEpochs = static_cast<std::uint32_t>(window);
    return DecodeStatus::Ok;
}

std::vector<std::uint8_t>
encodeSessionAccept(const SessionAcceptInfo &info)
{
    Writer w;
    w.putVarint(info.sessionId);
    w.putVarint(info.queueBytesHint);
    return std::move(w.out);
}

DecodeStatus
decodeSessionAccept(std::span<const std::uint8_t> payload,
                    SessionAcceptInfo &out)
{
    Reader r{payload};
    const bool ok = r.getVarint(out.sessionId) &&
                    r.getVarint(out.queueBytesHint);
    return statusOf(ok, r);
}

std::vector<std::uint8_t>
encodeChunk(const ChunkHeader &header, std::span<const std::uint8_t> log)
{
    Writer w;
    w.putVarint(header.seq);
    w.putVarint(header.tid);
    w.putBytes(log);
    return std::move(w.out);
}

DecodeStatus
decodeChunk(std::span<const std::uint8_t> payload, ChunkHeader &out,
            std::span<const std::uint8_t> &log)
{
    Reader r{payload};
    std::uint64_t tid = 0;
    if (!r.getVarint(out.seq) || !r.getVarint(tid) || tid > 1u << 16)
        return DecodeStatus::Corrupt;
    out.tid = static_cast<std::uint32_t>(tid);
    log = payload.subspan(r.pos);
    return DecodeStatus::Ok;
}

std::vector<std::uint8_t>
encodeTraceEnd(std::uint64_t seq)
{
    Writer w;
    w.putVarint(seq);
    return std::move(w.out);
}

DecodeStatus
decodeTraceEnd(std::span<const std::uint8_t> payload, std::uint64_t &seq)
{
    Reader r{payload};
    return statusOf(r.getVarint(seq), r);
}

std::vector<std::uint8_t>
encodeBusy(const BusyInfo &info)
{
    Writer w;
    w.putU8(static_cast<std::uint8_t>(info.reason));
    w.putVarint(info.seq);
    w.putVarint(info.retryMs);
    return std::move(w.out);
}

DecodeStatus
decodeBusy(std::span<const std::uint8_t> payload, BusyInfo &out)
{
    Reader r{payload};
    std::uint8_t reason = 0;
    const bool ok =
        r.getU8(reason) && r.getVarint(out.seq) && r.getVarint(out.retryMs);
    if (statusOf(ok, r) != DecodeStatus::Ok || reason < 1 || reason > 2)
        return DecodeStatus::Corrupt;
    out.reason = static_cast<BusyReason>(reason);
    return DecodeStatus::Ok;
}

std::vector<std::uint8_t>
encodeReject(const RejectInfo &info)
{
    Writer w;
    w.putU8(static_cast<std::uint8_t>(info.code));
    w.putVarint(info.message.size());
    w.putBytes({reinterpret_cast<const std::uint8_t *>(
                    info.message.data()),
                info.message.size()});
    return std::move(w.out);
}

DecodeStatus
decodeReject(std::span<const std::uint8_t> payload, RejectInfo &out)
{
    Reader r{payload};
    std::uint8_t code = 0;
    std::uint64_t len = 0;
    if (!r.getU8(code) || !r.getVarint(len) || code < 1 || code > 6 ||
        len > r.remaining())
        return DecodeStatus::Corrupt;
    out.code = static_cast<RejectCode>(code);
    out.message.assign(
        reinterpret_cast<const char *>(payload.data() + r.pos),
        static_cast<std::size_t>(len));
    r.pos += static_cast<std::size_t>(len);
    return statusOf(true, r);
}

std::vector<std::uint8_t>
encodeErrorReport(std::span<const ErrorRecord> records)
{
    Writer w;
    w.putVarint(records.size());
    for (const ErrorRecord &rec : records) {
        w.putVarint(rec.tid);
        w.putVarint(rec.index);
        w.putU8(static_cast<std::uint8_t>(rec.kind));
        w.putVarint(rec.size);
        w.putU64(rec.addr);
    }
    return std::move(w.out);
}

DecodeStatus
decodeErrorReport(std::span<const std::uint8_t> payload,
                  std::vector<ErrorRecord> &out)
{
    Reader r{payload};
    std::uint64_t count = 0;
    if (!r.getVarint(count) || count > kMaxRecordsPerFrame)
        return DecodeStatus::Corrupt;
    out.reserve(out.size() + static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        ErrorRecord rec;
        std::uint64_t tid = 0, size = 0;
        std::uint8_t kind = 0;
        if (!r.getVarint(tid) || !r.getVarint(rec.index) ||
            !r.getU8(kind) || !r.getVarint(size) || !r.getU64(rec.addr) ||
            tid > 1u << 16 || size > 0xFFFF ||
            kind > static_cast<std::uint8_t>(ErrorKind::AddrLeak))
            return DecodeStatus::Corrupt;
        rec.tid = static_cast<ThreadId>(tid);
        rec.kind = static_cast<ErrorKind>(kind);
        rec.size = static_cast<std::uint16_t>(size);
        out.push_back(rec);
    }
    return statusOf(true, r);
}

std::vector<std::uint8_t>
encodeSos(std::span<const Addr> addrs)
{
    Writer w;
    w.putVarint(addrs.size());
    for (Addr a : addrs)
        w.putU64(a);
    return std::move(w.out);
}

DecodeStatus
decodeSos(std::span<const std::uint8_t> payload, std::vector<Addr> &out)
{
    Reader r{payload};
    std::uint64_t count = 0;
    if (!r.getVarint(count) || count > kMaxSosPerFrame)
        return DecodeStatus::Corrupt;
    out.reserve(out.size() + static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        Addr a = 0;
        if (!r.getU64(a))
            return DecodeStatus::Corrupt;
        out.push_back(a);
    }
    return statusOf(true, r);
}

std::vector<std::uint8_t>
encodeSummary(const SummaryInfo &info)
{
    Writer w;
    w.putU8(static_cast<std::uint8_t>(info.status));
    w.putVarint(info.epochs);
    w.putVarint(info.events);
    w.putVarint(info.recordsTotal);
    w.putVarint(info.sosTotal);
    w.putVarint(info.busyCount);
    w.putVarint(info.peakResidentEpochs);
    w.putU64(info.fingerprint);
    w.putU64(info.planFingerprint);
    w.putVarint(info.summaryEvents);
    return std::move(w.out);
}

DecodeStatus
decodeSummary(std::span<const std::uint8_t> payload, SummaryInfo &out)
{
    Reader r{payload};
    std::uint8_t status = 0;
    const bool ok = r.getU8(status) && r.getVarint(out.epochs) &&
                    r.getVarint(out.events) &&
                    r.getVarint(out.recordsTotal) &&
                    r.getVarint(out.sosTotal) &&
                    r.getVarint(out.busyCount) &&
                    r.getVarint(out.peakResidentEpochs) &&
                    r.getU64(out.fingerprint) &&
                    r.getU64(out.planFingerprint) &&
                    r.getVarint(out.summaryEvents);
    if (statusOf(ok, r) != DecodeStatus::Ok || status > 1)
        return DecodeStatus::Corrupt;
    out.status = static_cast<SummaryStatus>(status);
    return DecodeStatus::Ok;
}

std::vector<std::uint8_t>
encodeEpochHint(const EpochHintInfo &info)
{
    Writer w;
    w.putVarint(info.effectiveH);
    w.putVarint(info.spans.size());
    for (const std::uint32_t k : info.spans)
        w.putVarint(k);
    return std::move(w.out);
}

DecodeStatus
decodeEpochHint(std::span<const std::uint8_t> payload, EpochHintInfo &out)
{
    Reader r{payload};
    std::uint64_t count = 0;
    if (!r.getVarint(out.effectiveH) || !r.getVarint(count) ||
        count > kMaxSpansPerFrame)
        return DecodeStatus::Corrupt;
    out.spans.reserve(out.spans.size() + static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t k = 0;
        // A span merges at least one source epoch, and a frame-sized
        // bound keeps a hostile varint from claiming absurd widths.
        if (!r.getVarint(k) || k == 0 || k > 1u << 20)
            return DecodeStatus::Corrupt;
        out.spans.push_back(static_cast<std::uint32_t>(k));
    }
    return statusOf(true, r);
}

} // namespace bfly::service
