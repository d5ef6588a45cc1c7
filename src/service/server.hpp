/**
 * @file
 * MonitorServer: the multi-tenant butterfly monitoring daemon.
 *
 * One reactor thread owns a poll loop, a wake pipe, every connection
 * and the SessionMux, which does all heavy work (decode, analysis) on
 * the shared WorkerPool. Completions cross back through the mux's queue
 * and the self-pipe, and the loop streams ErrorReport/Sos/Summary
 * frames to the client. The loop only moves bytes between sockets and
 * the pool; the pool's workers are where the CPU goes.
 *
 * Failure modes are explicit, never silent:
 *  - over-budget chunk          -> Busy frame (client rewinds, go-back-N)
 *  - oversized / corrupt / bad  -> Reject frame, session dropped
 *  - slow client (outbound cap) -> truncated report, final Summary frame
 *    with status=Partial, then disconnect
 *  - idle client (timeout set)  -> Reject(Timeout), session aborted; a
 *    client waiting for its report after TraceEnd is not idle
 */

#ifndef BUTTERFLY_SERVICE_SERVER_HPP
#define BUTTERFLY_SERVICE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.hpp"
#include "service/session_mux.hpp"
#include "service/wire.hpp"
#include "telemetry/metrics.hpp"

namespace bfly::service {

struct ServerConfig
{
    /** Unix-domain socket path ("" = no UDS listener). */
    std::string unixPath;
    /** Enable the TCP listener (loopback only). */
    bool tcp = false;
    /** TCP port; 0 = ephemeral (read back via tcpPort()). */
    std::uint16_t tcpPort = 0;
    /** Worker pool size; 0 = hardware concurrency. */
    std::size_t workers = 0;
    /** Admission control and shedding knobs. */
    MuxConfig mux;
    /** Outbound backlog cap per connection: a report that does not fit
     *  is truncated and closed with Summary{status=Partial} — the
     *  slow-client disconnect path. */
    std::size_t maxOutboundBytes = 8 * 1024 * 1024;
    /** Disconnect sessions whose client has sent nothing for longer than
     *  this before its TraceEnd (0 = disabled). */
    int idleTimeoutMs = 0;
};

class MonitorServer
{
  public:
    explicit MonitorServer(ServerConfig config);
    ~MonitorServer();

    MonitorServer(const MonitorServer &) = delete;
    MonitorServer &operator=(const MonitorServer &) = delete;

    /** Bind + listen + spawn the reactor loop. False on bind failure. */
    bool start();

    /** Stop accepting, drop connections, join the reactor loop. */
    void stop();

    /** Bound TCP port (valid after start() when tcp is enabled). */
    std::uint16_t tcpPort() const { return boundTcpPort_; }

    // Observability (test + CLI surface).
    std::uint64_t sessionsCompleted() const;
    std::uint64_t sessionsFailed() const;
    std::uint64_t busySent() const;
    std::uint64_t partialReports() const;
    std::uint64_t sessionsShed() const;
    std::uint64_t hintEchoes() const;
    std::uint64_t elisionSessions() const;
    std::uint64_t summaryEventsSeen() const;
    std::size_t globalBytes() const;
    std::size_t activeSessions() const;
    /** Rung of the adaptive degradation ladder (Normal when not
     *  adaptive). */
    DegradeLevel degradeLevel() const;

    /** Telemetry snapshot of the most recently completed session's
     *  private registry (multi-tenancy observability). */
    telemetry::RegistrySnapshot lastSessionMetrics() const;

  private:
    struct Connection
    {
        int fd = -1;
        FrameParser parser;
        std::vector<std::uint8_t> out;
        std::size_t outPos = 0;
        bool wantClose = false; ///< close once the out buffer drains
        /** Nonzero: the report carried EpochHint frames, so hold the
         *  drained connection open until this deadline to harvest the
         *  client's advisory echo (loopback clients lose the race
         *  against an immediate close). Peer close or the echo itself
         *  ends the linger early. */
        std::int64_t lingerUntilMs = 0;
        bool open = false;      ///< SessionOpen accepted
        /** TraceEnd accepted: the client owes the server nothing more,
         *  so it is never idle while its report is built. */
        bool traceEnded = false;
        std::uint64_t sessionId = 0;
        std::uint64_t busyCount = 0;
        std::int64_t lastActivityMs = 0;
    };

    void loop();
    void acceptAll(int listen_fd);
    void handleReadable(Connection &conn);
    void handleFrame(Connection &conn, const Frame &frame);
    void flush(Connection &conn);
    void drainCompletions();
    void sendReport(Connection &conn, const SessionResult &result);
    void sendFrame(Connection &conn, FrameType type,
                   std::span<const std::uint8_t> payload);
    void closeConnection(int fd, bool abort_session);
    void checkIdle();
    void wake();
    /** Destroy the mux (draining its in-flight jobs, which may still
     *  wake the loop), then close the wake pipe. */
    void releaseMux();

    ServerConfig config_;
    int unixFd_ = -1;
    int tcpFd_ = -1;
    std::uint16_t boundTcpPort_ = 0;
    int wakeFds_[2] = {-1, -1};

    WorkerPool pool_;
    std::unique_ptr<SessionMux> mux_;
    std::thread thread_;

    std::map<int, Connection> connections_;    ///< loop thread only
    std::map<std::uint64_t, int> sessionToFd_; ///< loop thread only

    // Written by the loop thread, read by any.
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::atomic<std::uint64_t> busySent_{0};
    std::atomic<std::uint64_t> partial_{0};
    std::atomic<std::uint64_t> shed_{0};
    std::atomic<std::uint64_t> hintEchoes_{0};
    /** v4: sessions that declared a nonzero plan fingerprint. */
    std::atomic<std::uint64_t> elisionSessions_{0};
    /** v4: SiteSummary events decoded across completed sessions. */
    std::atomic<std::uint64_t> summaryEvents_{0};

    std::atomic<bool> stop_{false};
    bool started_ = false;

    mutable std::mutex metricsMutex_;
    telemetry::RegistrySnapshot lastSessionMetrics_;
};

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_SERVER_HPP
