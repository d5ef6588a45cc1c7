#include "service/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "trace/log_codec.hpp"

namespace bfly::service {

namespace {

/** One LogChunk in flight: which thread's stream, which byte range. */
struct ChunkItem
{
    std::uint32_t tid;
    std::span<const std::uint8_t> log;
};

} // namespace

MonitorClient::MonitorClient(ClientConfig config) : config_(config) {}

MonitorClient::~MonitorClient()
{
    close();
}

void
MonitorClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    parser_ = FrameParser();
}

bool
MonitorClient::connectUnix(const std::string &path)
{
    close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        close();
        return false;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    return true;
}

bool
MonitorClient::connectTcp(std::uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    return true;
}

bool
MonitorClient::sendAll(const std::vector<std::uint8_t> &bytes,
                       std::string &error)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd_, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            error = "send failed (connection lost)";
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
MonitorClient::pump(bool block, std::string &error)
{
    if (block) {
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, config_.ioTimeoutMs);
        if (ready == 0) {
            error = "timed out waiting for server";
            return false;
        }
        if (ready < 0) {
            error = "poll failed";
            return false;
        }
    }
    std::uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
            parser_.feed({buf, static_cast<std::size_t>(n)});
            if (static_cast<std::size_t>(n) < sizeof(buf))
                return true;
            continue;
        }
        if (n == 0) {
            error = "server closed the connection";
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true; // nothing pending right now
        if (errno == EINTR)
            continue;
        error = "recv failed";
        return false;
    }
}

RunResult
MonitorClient::run(const SessionSpec &spec, const Trace &marked_trace)
{
    RunResult result;
    if (fd_ < 0) {
        result.error = "not connected";
        return result;
    }

    // A send failure usually means the server rejected us and closed;
    // the Reject frame explaining why is still sitting in our receive
    // buffer. Surface it instead of the bare "connection lost".
    auto salvageReject = [&] {
        std::string ignored;
        (void)pump(false, ignored);
        Frame frame;
        while (parser_.next(frame) == DecodeStatus::Ok) {
            if (frame.type != FrameType::Reject)
                continue;
            RejectInfo reject;
            decodeReject(frame.payload, reject);
            result.overloaded = reject.code == RejectCode::Overload;
            result.error = "rejected: " + reject.message;
            return;
        }
    };

    // Encode each thread's stream and carve it into chunk items. The
    // spans view the encoded vectors, which must outlive the send loop.
    std::vector<std::vector<std::uint8_t>> encoded;
    encoded.reserve(marked_trace.numThreads());
    for (const ThreadTrace &thread : marked_trace.threads) {
        encoded.push_back(encodeEvents(thread.events));
        result.logBytesSent += encoded.back().size();
    }

    std::vector<ChunkItem> items;
    const std::size_t chunk =
        std::min(std::max<std::size_t>(config_.chunkBytes, 16),
                 kMaxFramePayload - 64);
    for (std::uint32_t tid = 0; tid < encoded.size(); ++tid) {
        const auto &bytes = encoded[tid];
        for (std::size_t off = 0; off < bytes.size(); off += chunk) {
            const std::size_t n = std::min(chunk, bytes.size() - off);
            items.push_back({tid, {bytes.data() + off, n}});
        }
    }

    if (!sendAll(encodeFramed(FrameType::SessionOpen,
                              encodeSessionOpen(spec)),
                 result.error)) {
        salvageReject();
        return result;
    }

    // Go-back-N send loop: cursor runs over the chunk items plus the
    // trailing TraceEnd (same sequence space). A Busy frame rewinds the
    // cursor; everything the server received out of sequence after the
    // shed was silently dropped, so resending is always safe.
    std::uint64_t cursor = 0;
    const std::uint64_t endSeq = items.size();
    bool allSent = false;

    for (;;) {
        if (!allSent) {
            if (cursor < endSeq) {
                const ChunkItem &item = items[cursor];
                const auto payload =
                    encodeChunk({cursor, item.tid}, item.log);
                if (!sendAll(encodeFramed(FrameType::LogChunk, payload),
                             result.error)) {
                    salvageReject();
                    return result;
                }
                ++cursor;
            } else {
                if (!sendAll(encodeFramed(FrameType::TraceEnd,
                                          encodeTraceEnd(endSeq)),
                             result.error)) {
                    salvageReject();
                    return result;
                }
                allSent = true;
            }
        }

        // While still sending, only drain what is already queued (Busy /
        // Reject arrive asynchronously); once everything is out, block
        // for the report.
        if (!pump(allSent, result.error))
            return result;

        Frame frame;
        for (;;) {
            const DecodeStatus status = parser_.next(frame);
            if (status == DecodeStatus::NeedMore)
                break;
            if (status == DecodeStatus::Corrupt) {
                result.error = "corrupt frame stream from server";
                return result;
            }
            switch (frame.type) {
              case FrameType::SessionAccept: {
                SessionAcceptInfo accept;
                if (decodeSessionAccept(frame.payload, accept) !=
                    DecodeStatus::Ok) {
                    result.error = "bad SessionAccept frame";
                    return result;
                }
                result.sessionId = accept.sessionId;
                break;
              }
              case FrameType::Heartbeat:
                break;
              case FrameType::Busy: {
                BusyInfo busy;
                if (decodeBusy(frame.payload, busy) != DecodeStatus::Ok) {
                    result.error = "bad Busy frame";
                    return result;
                }
                if (++result.busyRetries > config_.maxBusyRetries) {
                    result.error = "server overloaded (Busy retry cap)";
                    return result;
                }
                cursor = busy.seq;
                allSent = false;
                if (busy.retryMs > 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(busy.retryMs));
                break;
              }
              case FrameType::Reject: {
                RejectInfo reject;
                decodeReject(frame.payload, reject);
                result.overloaded = reject.code == RejectCode::Overload;
                result.error = "rejected: " + reject.message;
                return result;
              }
              case FrameType::ErrorReport: {
                std::vector<ErrorRecord> records;
                if (decodeErrorReport(frame.payload, records) !=
                    DecodeStatus::Ok) {
                    result.error = "bad ErrorReport frame";
                    return result;
                }
                result.report.records.insert(result.report.records.end(),
                                             records.begin(),
                                             records.end());
                break;
              }
              case FrameType::Sos: {
                std::vector<Addr> addrs;
                if (decodeSos(frame.payload, addrs) != DecodeStatus::Ok) {
                    result.error = "bad Sos frame";
                    return result;
                }
                result.report.sos.insert(result.report.sos.end(),
                                         addrs.begin(), addrs.end());
                break;
              }
              case FrameType::EpochHint: {
                EpochHintInfo hint;
                hint.spans = std::move(result.epochSpans);
                if (decodeEpochHint(frame.payload, hint) !=
                    DecodeStatus::Ok) {
                    result.error = "bad EpochHint frame";
                    return result;
                }
                result.epochSpans = std::move(hint.spans);
                result.effectiveH = hint.effectiveH;
                // Echo the frame back verbatim: the server counts which
                // tenants consumed the sizing hint. Best-effort — the
                // server may already have closed after the Summary, and
                // the hint is advisory, so a failed echo is not a
                // session failure.
                std::string echo_error;
                (void)sendAll(encodeFramed(FrameType::EpochHint,
                                           frame.payload),
                              echo_error);
                break;
              }
              case FrameType::Summary: {
                if (decodeSummary(frame.payload, result.summary) !=
                    DecodeStatus::Ok) {
                    result.error = "bad Summary frame";
                    return result;
                }
                result.report.fingerprint = result.summary.fingerprint;
                result.report.epochs = result.summary.epochs;
                result.report.events = result.summary.events;
                result.report.peakResidentEpochs =
                    result.summary.peakResidentEpochs;
                result.ok = true;
                return result;
              }
              default:
                result.error = "unexpected frame from server";
                return result;
            }
        }
    }
}

std::vector<std::uint8_t>
encodeFramed(FrameType type, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(payload.size() + kFrameHeaderBytes);
    appendFrame(out, type, payload);
    return out;
}

} // namespace bfly::service
