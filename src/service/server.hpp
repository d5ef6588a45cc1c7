/**
 * @file
 * MonitorServer: the multi-tenant butterfly monitoring daemon.
 *
 * The server is a set of N independent *reactors*. Each reactor thread
 * owns a poll loop, a wake pipe, its connection map and a private
 * SessionMux shard — which does all heavy work (decode, analysis) on
 * the shared WorkerPool. Completions cross back through
 * the shard's queue and the reactor's self-pipe, and the owning loop
 * streams ErrorReport/Sos/Summary frames to the client. Because every
 * socket and session lives on exactly one reactor, the hot path has no
 * cross-reactor locks at all; reactors touch each other only through
 * the accept handoff queue and the shared budget pool.
 *
 * Session placement: reactor 0 polls the shared Unix/TCP listeners.
 * Every accepted connection is preassigned a server-global session id
 * and routed to shard hash(id) % N — adopted locally or handed to the
 * target reactor through a mutex-protected handoff queue plus a wake.
 * With tcpReusePort, each reactor additionally owns its own
 * SO_REUSEPORT TCP listener and the kernel spreads accepts directly
 * (ids stay globally unique; placement is then the kernel's choice).
 *
 * Budgets: the configured global byte budget is sliced evenly across
 * the shards. The slices rebalance through a BudgetPool — a pressured
 * shard steals spare bytes before shedding Busy{GlobalBudget}, an idle
 * reactor donates its excess on the loop tick — so a single hot shard
 * can grow toward the whole budget while sum(slices) + spare stays
 * constant (see session_mux.hpp).
 *
 * Failure modes are explicit, never silent:
 *  - over-budget chunk          -> Busy frame (client rewinds, go-back-N)
 *  - oversized / corrupt / bad  -> Reject frame, session dropped
 *  - slow client (outbound cap) -> truncated report, final Summary frame
 *    with status=Partial, then disconnect
 *  - idle client (timeout set)  -> Reject(Timeout), session aborted
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
    /** Reactor shards; each owns a poll loop and a SessionMux slice of
     *  the byte budget. 0 is treated as 1 (the classic single loop). */
    std::size_t shards = 1;
    /** With tcp and shards > 1: give every reactor its own SO_REUSEPORT
     *  listener so the kernel spreads accepts without a handoff hop. */
    bool tcpReusePort = false;
    /** Admission control and shedding knobs. globalBudgetBytes is the
     *  whole-server budget; it is sliced across shards. */
    MuxConfig mux;
    /** Outbound backlog cap per connection: a report that does not fit
     *  is truncated and closed with Summary{status=Partial} — the
     *  slow-client disconnect path. */
    std::size_t maxOutboundBytes = 8 * 1024 * 1024;
    /** Disconnect sessions idle for longer than this (0 = disabled). */
    int idleTimeoutMs = 0;
};

/** One shard's observability snapshot (all counters monotonic except
 *  the byte gauges). */
struct ShardStats
{
    std::size_t shard = 0;
    std::uint64_t sessionsAssigned = 0; ///< connections adopted
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t busySent = 0;
    std::uint64_t partialReports = 0;
    std::size_t globalBytes = 0;     ///< bytes accounted right now
    std::size_t activeSessions = 0;  ///< open sessions right now
    std::size_t budgetBytes = 0;     ///< current (rebalanced) slice
    std::uint64_t budgetSteals = 0;
    std::size_t budgetStolenBytes = 0;
    std::size_t budgetDonatedBytes = 0;
    std::uint64_t sessionsShed = 0;  ///< SessionOpens refused (Overload)
    std::uint64_t hintEchoes = 0;    ///< EpochHint frames echoed back
    DegradeLevel degradeLevel = DegradeLevel::Normal;
};

class MonitorServer
{
  public:
    explicit MonitorServer(ServerConfig config);
    ~MonitorServer();

    MonitorServer(const MonitorServer &) = delete;
    MonitorServer &operator=(const MonitorServer &) = delete;

    /** Bind + listen + spawn the reactor loops. False on bind failure. */
    bool start();

    /** Stop accepting, drop connections, join every reactor loop. */
    void stop();

    /** Bound TCP port (valid after start() when tcp is enabled). */
    std::uint16_t tcpPort() const { return boundTcpPort_; }

    /** Reactor count actually running (>= 1 once started). */
    std::size_t shards() const { return reactors_.size(); }

    /** Shard a session id maps to on the shared-listener path. Exposed
     *  so tests can pick ids that collide on / span shards. */
    static std::size_t shardOfSession(std::uint64_t session_id,
                                      std::size_t shards);

    // Observability (test + CLI surface); sums over all shards.
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

    /** Per-shard counters (index == shard). */
    std::vector<ShardStats> shardStats() const;

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
        std::uint64_t sessionId = 0;
        /** Server-global id preassigned at accept; becomes sessionId
         *  when the SessionOpen frame arrives. */
        std::uint64_t assignedId = 0;
        std::uint64_t busyCount = 0;
        std::int64_t lastActivityMs = 0;
    };

    /** One event-loop shard. Everything except the handoff queue and
     *  the atomics is owned by its loop thread alone. */
    struct Reactor
    {
        std::size_t index = 0;
        int wakeFds[2] = {-1, -1};
        int tcpFd = -1; ///< own SO_REUSEPORT listener, else -1
        std::unique_ptr<SessionMux> mux;
        std::thread thread;

        std::map<int, Connection> connections;    ///< loop thread only
        std::map<std::uint64_t, int> sessionToFd; ///< loop thread only

        /** Accepted fds routed here by another reactor. */
        std::mutex handoffMutex;
        std::vector<std::pair<int, std::uint64_t>> handoff;

        std::atomic<std::uint64_t> assigned{0};
        std::atomic<std::uint64_t> completed{0};
        std::atomic<std::uint64_t> failed{0};
        std::atomic<std::uint64_t> busySent{0};
        std::atomic<std::uint64_t> partial{0};
        std::atomic<std::uint64_t> shed{0};
        std::atomic<std::uint64_t> hintEchoes{0};
        /** v4: sessions that declared a nonzero plan fingerprint. */
        std::atomic<std::uint64_t> elisionSessions{0};
        /** v4: SiteSummary events decoded across completed sessions. */
        std::atomic<std::uint64_t> summaryEvents{0};
    };

    void reactorLoop(Reactor &r);
    void acceptAll(Reactor &r, int listen_fd);
    void adoptConnection(Reactor &r, int fd, std::uint64_t assigned_id);
    void adoptHandoffs(Reactor &r);
    void handleReadable(Reactor &r, Connection &conn);
    void handleFrame(Reactor &r, Connection &conn, const Frame &frame);
    void flush(Connection &conn);
    void drainCompletions(Reactor &r);
    void sendReport(Reactor &r, Connection &conn,
                    const SessionResult &result);
    void sendFrame(Connection &conn, FrameType type,
                   std::span<const std::uint8_t> payload);
    void closeConnection(Reactor &r, int fd, bool abort_session);
    void checkIdle(Reactor &r);
    void wake(Reactor &r);

    ServerConfig config_;
    int unixFd_ = -1;
    int tcpFd_ = -1; ///< shared listener (reactor 0 polls it)
    std::uint16_t boundTcpPort_ = 0;

    WorkerPool pool_;
    BudgetPool budgetPool_;
    std::vector<std::unique_ptr<Reactor>> reactors_;
    std::atomic<std::uint64_t> nextSessionId_{1};

    std::atomic<bool> stop_{false};
    bool started_ = false;

    mutable std::mutex metricsMutex_;
    telemetry::RegistrySnapshot lastSessionMetrics_;
};

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_SERVER_HPP
