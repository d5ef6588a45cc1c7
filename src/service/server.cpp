#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hpp"
#include "lifeguards/registry.hpp"

namespace bfly::service {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kRecordsPerFrame = 4096;
constexpr std::size_t kSosPerFrame = 8192;
constexpr std::size_t kSpansPerFrame = 8192;
/** How long a drained connection whose report carried EpochHint frames
 *  stays open waiting for the client's advisory echo. Bounded: a client
 *  that neither echoes nor closes costs one linger, not a leak. */
constexpr std::int64_t kEchoLingerMs = 250;

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::size_t
defaultWorkers(std::size_t configured)
{
    if (configured > 0)
        return configured;
    const std::size_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 2;
}

} // namespace

MonitorServer::MonitorServer(ServerConfig config)
    : config_(std::move(config)), pool_(defaultWorkers(config_.workers))
{
}

MonitorServer::~MonitorServer()
{
    stop();
    releaseMux();
}

void
MonitorServer::releaseMux()
{
    mux_.reset();
    for (int &fd : wakeFds_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

void
MonitorServer::wake()
{
    if (wakeFds_[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakeFds_[1], &byte, 1);
    }
}

bool
MonitorServer::start()
{
    if (started_)
        return true;

    if (!config_.unixPath.empty()) {
        unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (unixFd_ < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.unixPath.size() >= sizeof(addr.sun_path))
            return false;
        std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(config_.unixPath.c_str());
        if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(unixFd_, 64) != 0)
            return false;
        setNonBlocking(unixFd_);
    }

    if (config_.tcp) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd_ < 0)
            return false;
        const int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(config_.tcpPort);
        if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(tcpFd_, 64) != 0)
            return false;
        socklen_t len = sizeof(addr);
        if (::getsockname(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
                          &len) == 0)
            boundTcpPort_ = ntohs(addr.sin_port);
        setNonBlocking(tcpFd_);
    }

    // (Re)build the mux and its wake pipe. Releasing an old mux first
    // drains any jobs a previous run left in flight.
    releaseMux();
    if (::pipe(wakeFds_) != 0)
        return false;
    setNonBlocking(wakeFds_[0]);
    setNonBlocking(wakeFds_[1]);
    mux_ = std::make_unique<SessionMux>(pool_, config_.mux,
                                        [this] { wake(); });

    stop_.store(false, std::memory_order_release);
    thread_ = std::thread([this] { loop(); });
    started_ = true;
    return true;
}

void
MonitorServer::stop()
{
    if (!started_)
        return;
    stop_.store(true, std::memory_order_release);
    wake();
    thread_.join();
    started_ = false;

    for (auto &[fd, conn] : connections_)
        ::close(fd);
    connections_.clear();
    sessionToFd_.clear();
    // The wake pipe and the mux stay until the next start() or
    // destruction: in-flight mux jobs may still wake us, and the
    // counters must survive a stop() for the CLI exit stats.
    for (int *fd : {&unixFd_, &tcpFd_}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
}

void
MonitorServer::loop()
{
    std::vector<pollfd> fds;
    while (!stop_.load(std::memory_order_acquire)) {
        fds.clear();
        fds.push_back({wakeFds_[0], POLLIN, 0});
        if (unixFd_ >= 0)
            fds.push_back({unixFd_, POLLIN, 0});
        if (tcpFd_ >= 0)
            fds.push_back({tcpFd_, POLLIN, 0});
        const std::size_t firstConn = fds.size();
        for (auto &[fd, conn] : connections_) {
            short events = POLLIN;
            if (conn.out.size() > conn.outPos)
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
        }

        const int timeout = config_.idleTimeoutMs > 0
                                ? std::min(100, config_.idleTimeoutMs)
                                : 100;
        const int ready = ::poll(fds.data(), fds.size(), timeout);
        if (stop_.load(std::memory_order_acquire))
            break;
        if (ready < 0)
            continue; // EINTR

        if (fds[0].revents & POLLIN) {
            char buf[256];
            while (::read(wakeFds_[0], buf, sizeof(buf)) > 0) {
            }
        }
        // Always drain completions: the pipe is only a wake hint.
        drainCompletions();

        for (std::size_t i = 1; i < firstConn; ++i)
            if (fds[i].revents & POLLIN)
                acceptAll(fds[i].fd);

        std::vector<int> doomed;
        for (std::size_t i = firstConn; i < fds.size(); ++i) {
            auto it = connections_.find(fds[i].fd);
            if (it == connections_.end())
                continue;
            Connection &conn = it->second;
            if (fds[i].revents & (POLLERR | POLLNVAL)) {
                doomed.push_back(conn.fd);
                continue;
            }
            // POLLHUP often arrives together with POLLIN when the peer
            // wrote its last frames and closed in one breath; the bytes
            // are still buffered in the kernel, so read first and let
            // handleReadable's EOF path parse them (a final EpochHint
            // echo rides ahead of the FIN). Doom on a bare HUP only.
            if (fds[i].revents & POLLIN)
                handleReadable(conn);
            else if (fds[i].revents & POLLHUP) {
                doomed.push_back(conn.fd);
                continue;
            }
            if (fds[i].revents & POLLOUT)
                flush(conn);
            const bool drained = conn.out.size() == conn.outPos;
            if (conn.fd < 0 || (conn.wantClose && drained) ||
                (conn.lingerUntilMs != 0 && drained &&
                 nowMs() >= conn.lingerUntilMs))
                doomed.push_back(it->first);
        }
        for (int fd : doomed)
            closeConnection(fd, true);

        if (config_.idleTimeoutMs > 0)
            checkIdle();

        // The ladder ticks here, so a Shed rung entered under abuse can
        // recover even after the abusive sessions are gone.
        mux_->tickController();
    }
}

void
MonitorServer::acceptAll(int listen_fd)
{
    for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        Connection conn;
        conn.fd = fd;
        conn.lastActivityMs = nowMs();
        connections_.emplace(fd, std::move(conn));
    }
}

void
MonitorServer::handleReadable(Connection &conn)
{
    std::uint8_t buf[kReadChunk];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n == 0) {
            // Peer closed: anything not yet completed is abandoned, but
            // bytes that rode ahead of the EOF (a final EpochHint echo)
            // still get parsed below.
            conn.wantClose = true;
            conn.out.clear();
            conn.outPos = 0;
            break;
        }
        if (n < 0)
            break; // EAGAIN (or a real error surfacing via poll later)
        conn.lastActivityMs = nowMs();
        conn.parser.feed({buf, static_cast<std::size_t>(n)});
        if (static_cast<std::size_t>(n) < sizeof(buf))
            break;
    }

    Frame frame;
    for (;;) {
        const DecodeStatus status = conn.parser.next(frame);
        if (status == DecodeStatus::NeedMore)
            return;
        if (status == DecodeStatus::Corrupt) {
            const auto payload = encodeReject(
                {RejectCode::Protocol, "unparseable frame stream"});
            sendFrame(conn, FrameType::Reject, payload);
            conn.wantClose = true;
            return;
        }
        handleFrame(conn, frame);
        if (conn.wantClose)
            return;
    }
}

void
MonitorServer::handleFrame(Connection &conn, const Frame &frame)
{
    auto reject = [&](RejectCode code, const char *message) {
        const auto payload = encodeReject({code, message});
        sendFrame(conn, FrameType::Reject, payload);
        conn.wantClose = true;
    };

    switch (frame.type) {
      case FrameType::SessionOpen: {
        if (conn.open) {
            reject(RejectCode::Protocol, "session already open");
            return;
        }
        SessionSpec spec;
        if (decodeSessionOpen(frame.payload, spec) != DecodeStatus::Ok ||
            !findLifeguard(spec.lifeguard) || spec.memModel > 1) {
            reject(RejectCode::Protocol, "bad SessionOpen");
            return;
        }
        if (mux_->shedNewSessions()) {
            // Top rung of the graduated ladder: the server is saturated
            // past what coarser epochs, Partial summaries and Busy
            // back-pressure can absorb, so new tenants are turned away
            // while existing ones drain.
            shed_.fetch_add(1, std::memory_order_relaxed);
            reject(RejectCode::Overload, "server shedding load");
            return;
        }
        RejectInfo refused;
        conn.sessionId = mux_->open(spec, refused);
        if (conn.sessionId == 0) {
            if (refused.code == RejectCode::Overload)
                shed_.fetch_add(1, std::memory_order_relaxed);
            reject(refused.code, refused.message.c_str());
            return;
        }
        conn.open = true;
        sessionToFd_[conn.sessionId] = conn.fd;
        const auto payload = encodeSessionAccept(
            {conn.sessionId, config_.mux.sessionQueueBytes});
        sendFrame(conn, FrameType::SessionAccept, payload);
        return;
      }
      case FrameType::LogChunk: {
        if (!conn.open) {
            reject(RejectCode::Protocol, "chunk before SessionOpen");
            return;
        }
        ChunkHeader header;
        std::span<const std::uint8_t> log;
        if (decodeChunk(frame.payload, header, log) != DecodeStatus::Ok) {
            reject(RejectCode::Protocol, "bad LogChunk");
            return;
        }
        BusyInfo busy;
        RejectInfo why;
        switch (
            mux_->submitChunk(conn.sessionId, header, log, busy, why)) {
          case Admission::Accepted:
          case Admission::Ignored:
            return;
          case Admission::Busy: {
            ++conn.busyCount;
            busySent_.fetch_add(1, std::memory_order_relaxed);
            const auto payload = encodeBusy(busy);
            sendFrame(conn, FrameType::Busy, payload);
            return;
          }
          case Admission::Rejected: {
            const auto payload = encodeReject(why);
            sendFrame(conn, FrameType::Reject, payload);
            conn.wantClose = true;
            failed_.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
        return;
      }
      case FrameType::TraceEnd: {
        if (!conn.open) {
            reject(RejectCode::Protocol, "TraceEnd before SessionOpen");
            return;
        }
        std::uint64_t seq = 0;
        if (decodeTraceEnd(frame.payload, seq) != DecodeStatus::Ok) {
            reject(RejectCode::Protocol, "bad TraceEnd");
            return;
        }
        BusyInfo busy;
        RejectInfo why;
        switch (mux_->submitTraceEnd(conn.sessionId, seq, busy, why)) {
          case Admission::Accepted:
            conn.traceEnded = true;
            return;
          case Admission::Rejected: {
            const auto payload = encodeReject(why);
            sendFrame(conn, FrameType::Reject, payload);
            conn.wantClose = true;
            return;
          }
          default:
            return;
        }
      }
      case FrameType::Heartbeat:
        sendFrame(conn, FrameType::Heartbeat, {});
        return;
      case FrameType::EpochHint: {
        // The client echoing our advisory epoch-sizing frame back; count
        // it (which tenants consumed the hint) and move on. The payload
        // is advisory either way, so a stale or garbled echo is not a
        // protocol error. If the connection was lingering for exactly
        // this, the linger is over.
        hintEchoes_.fetch_add(1, std::memory_order_relaxed);
        if (conn.lingerUntilMs != 0)
            conn.wantClose = true;
        return;
      }
      default:
        reject(RejectCode::Protocol, "unexpected frame type");
        return;
    }
}

void
MonitorServer::drainCompletions()
{
    for (SessionResult &result : mux_->drainCompleted()) {
        {
            std::lock_guard<std::mutex> lock(metricsMutex_);
            lastSessionMetrics_ = result.metrics;
        }
        auto it = sessionToFd_.find(result.sessionId);
        if (it == sessionToFd_.end())
            continue; // connection already gone
        auto cit = connections_.find(it->second);
        sessionToFd_.erase(it);
        if (cit == connections_.end())
            continue;
        Connection &conn = cit->second;
        if (result.failed) {
            failed_.fetch_add(1, std::memory_order_relaxed);
            const auto payload = encodeReject(result.reject);
            sendFrame(conn, FrameType::Reject, payload);
            conn.wantClose = true;
        } else {
            completed_.fetch_add(1, std::memory_order_relaxed);
            if (result.planFingerprint != 0)
                elisionSessions_.fetch_add(1, std::memory_order_relaxed);
            summaryEvents_.fetch_add(result.summaryEvents,
                                     std::memory_order_relaxed);
            sendReport(conn, result);
            if (result.realizedSpans.empty())
                conn.wantClose = true;
            else
                conn.lingerUntilMs = nowMs() + kEchoLingerMs;
        }
        flush(conn);
    }
}

void
MonitorServer::sendReport(Connection &conn, const SessionResult &result)
{
    const RemoteReport &report = result.report;
    // Frames that would overrun the outbound cap are dropped and the
    // Summary downgraded to Partial: the slow-client path. The Summary
    // itself always fits (the cap is clamped far above one frame).
    const std::size_t cap =
        std::max<std::size_t>(config_.maxOutboundBytes, 4096);

    auto room = [&](std::size_t bytes) {
        return conn.out.size() - conn.outPos + bytes + kFrameHeaderBytes <=
               cap - 1024; // reserve space for the Summary frame
    };

    // Adaptive runs advertise the realized epoch slicing first, so the
    // client can rebuild the bit-identical reference layout before the
    // records arrive. Purely advisory: a client that does not know the
    // frame skips it.
    if (!result.realizedSpans.empty()) {
        std::uint64_t effective_h = 1;
        for (const std::uint32_t k : result.realizedSpans)
            effective_h = std::max<std::uint64_t>(effective_h, k);
        for (std::size_t i = 0; i < result.realizedSpans.size();
             i += kSpansPerFrame) {
            const std::size_t n = std::min(
                kSpansPerFrame, result.realizedSpans.size() - i);
            EpochHintInfo hint;
            hint.effectiveH = effective_h;
            hint.spans.assign(result.realizedSpans.begin() +
                                  static_cast<std::ptrdiff_t>(i),
                              result.realizedSpans.begin() +
                                  static_cast<std::ptrdiff_t>(i + n));
            const auto payload = encodeEpochHint(hint);
            if (!room(payload.size()))
                break; // advisory — never worth truncating the report for
            sendFrame(conn, FrameType::EpochHint, payload);
        }
    }

    // A session degraded to Partial ships only the Summary (the
    // fingerprint still witnesses the full analysis): the report body is
    // the expensive part of a slow tenant's egress.
    bool truncated = result.degradePartial;

    for (std::size_t i = 0;
         !truncated && i < report.records.size();
         i += kRecordsPerFrame) {
        const std::size_t n =
            std::min(kRecordsPerFrame, report.records.size() - i);
        const auto payload = encodeErrorReport(
            {report.records.data() + i, n});
        if (!room(payload.size())) {
            truncated = true;
            break;
        }
        sendFrame(conn, FrameType::ErrorReport, payload);
    }
    if (!truncated) {
        for (std::size_t i = 0; i < report.sos.size(); i += kSosPerFrame) {
            const std::size_t n =
                std::min(kSosPerFrame, report.sos.size() - i);
            const auto payload = encodeSos({report.sos.data() + i, n});
            if (!room(payload.size())) {
                truncated = true;
                break;
            }
            sendFrame(conn, FrameType::Sos, payload);
        }
    }

    SummaryInfo summary;
    summary.status =
        truncated ? SummaryStatus::Partial : SummaryStatus::Complete;
    summary.epochs = report.epochs;
    summary.events = report.events;
    summary.recordsTotal = report.records.size();
    summary.sosTotal = report.sos.size();
    summary.busyCount = conn.busyCount;
    summary.peakResidentEpochs = report.peakResidentEpochs;
    summary.fingerprint = report.fingerprint;
    summary.planFingerprint = result.planFingerprint;
    summary.summaryEvents = result.summaryEvents;
    const auto payload = encodeSummary(summary);
    sendFrame(conn, FrameType::Summary, payload);
    if (truncated)
        partial_.fetch_add(1, std::memory_order_relaxed);
}

void
MonitorServer::sendFrame(Connection &conn, FrameType type,
                         std::span<const std::uint8_t> payload)
{
    appendFrame(conn.out, type, payload);
    flush(conn);
}

void
MonitorServer::flush(Connection &conn)
{
    while (conn.outPos < conn.out.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.out.data() + conn.outPos,
                   conn.out.size() - conn.outPos, MSG_NOSIGNAL);
        if (n <= 0)
            break; // EAGAIN: poll() will raise POLLOUT
        conn.outPos += static_cast<std::size_t>(n);
    }
    if (conn.outPos == conn.out.size()) {
        conn.out.clear();
        conn.outPos = 0;
    } else if (conn.outPos > kReadChunk) {
        conn.out.erase(conn.out.begin(),
                       conn.out.begin() +
                           static_cast<std::ptrdiff_t>(conn.outPos));
        conn.outPos = 0;
    }
}

void
MonitorServer::closeConnection(int fd, bool abort_session)
{
    auto it = connections_.find(fd);
    if (it == connections_.end())
        return;
    Connection &conn = it->second;
    if (conn.open && abort_session) {
        // Abort is a no-op for sessions the mux already completed.
        mux_->abort(conn.sessionId);
        sessionToFd_.erase(conn.sessionId);
    }
    ::close(fd);
    connections_.erase(it);
}

void
MonitorServer::checkIdle()
{
    const std::int64_t now = nowMs();
    std::vector<int> doomed;
    for (auto &[fd, conn] : connections_) {
        // After an accepted TraceEnd the server owes the client its
        // report; the outbound cap and the echo linger bound the rest.
        if (conn.wantClose || conn.traceEnded)
            continue;
        if (now - conn.lastActivityMs > config_.idleTimeoutMs) {
            const auto payload = encodeReject(
                {RejectCode::Timeout, "session idle too long"});
            sendFrame(conn, FrameType::Reject, payload);
            conn.wantClose = true;
            if (conn.out.size() == conn.outPos)
                doomed.push_back(fd);
        }
    }
    for (int fd : doomed)
        closeConnection(fd, true);
}

std::uint64_t
MonitorServer::sessionsCompleted() const
{
    return completed_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::sessionsFailed() const
{
    return failed_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::busySent() const
{
    return busySent_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::partialReports() const
{
    return partial_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::sessionsShed() const
{
    return shed_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::hintEchoes() const
{
    return hintEchoes_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::elisionSessions() const
{
    return elisionSessions_.load(std::memory_order_relaxed);
}

std::uint64_t
MonitorServer::summaryEventsSeen() const
{
    return summaryEvents_.load(std::memory_order_relaxed);
}

std::size_t
MonitorServer::globalBytes() const
{
    return mux_ ? mux_->globalBytes() : 0;
}

std::size_t
MonitorServer::activeSessions() const
{
    return mux_ ? mux_->activeSessions() : 0;
}

DegradeLevel
MonitorServer::degradeLevel() const
{
    return mux_ ? mux_->degradeLevel() : DegradeLevel::Normal;
}

telemetry::RegistrySnapshot
MonitorServer::lastSessionMetrics() const
{
    std::lock_guard<std::mutex> lock(metricsMutex_);
    return lastSessionMetrics_;
}

} // namespace bfly::service

