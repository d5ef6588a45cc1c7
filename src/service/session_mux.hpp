/**
 * @file
 * Session multiplexer: runs concurrent monitoring sessions on the
 * shared WorkerPool with bounded ingest and explicit load shedding.
 *
 * Each session owns a bounded queue of raw log chunks (the service's
 * counterpart of the LBA log buffer: the network is the producer, the
 * decode pump the consumer). The event loop enqueues accepted chunks and a pump task —
 * one in flight per session, running on the shared pool — drains the
 * queue through a per-thread ChunkedLogDecoder into the session's
 * decoded trace. When the queue is at capacity, or the server-wide byte
 * budget (queued + decoded bytes across all sessions) is exhausted, the
 * chunk is shed with a Busy outcome and the client rewinds (go-back-N).
 * A session whose own footprint exceeds its hard cap is rejected
 * outright — that is not a transient condition, so retrying would
 * livelock.
 *
 * After TraceEnd drains, an analysis job on the same pool walks the
 * window schedule over a streaming EpochStream (at most two resident
 * epochs), inside the session's telemetry registry. Completion
 * results cross back to the event loop through a mutex-protected queue
 * plus a caller-supplied wake callback (the server writes a self-pipe).
 *
 * Threading contract: open/submit/abort are called only from the
 * server's event loop thread; pump and analysis tasks run on the pool;
 * per-session state is guarded by the session's mutex, the session map
 * by the mux's, and the byte budget is atomic.
 */

#ifndef BUTTERFLY_SERVICE_SESSION_MUX_HPP
#define BUTTERFLY_SERVICE_SESSION_MUX_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/worker_pool.hpp"
#include "service/analyzer.hpp"
#include "service/epoch_controller.hpp"
#include "service/wire.hpp"
#include "telemetry/metrics.hpp"

namespace bfly::service {

struct MuxConfig
{
    /** Per-session ingest queue watermark: a chunk is admitted while the
     *  queued bytes are below this (overshoot by at most one chunk),
     *  shed with Busy otherwise. */
    std::size_t sessionQueueBytes = 256 * 1024;
    /** Server-wide budget over queued + decoded bytes of all sessions. */
    std::size_t globalBudgetBytes = 64 * 1024 * 1024;
    /** Hard per-session footprint cap; exceeding it is a Reject, not a
     *  Busy (the client's data simply does not fit). Clamped to the
     *  global budget. */
    std::size_t maxSessionBytes = 16 * 1024 * 1024;
    /** Hard cap on decoded events per session. */
    std::size_t maxSessionEvents = 1u << 22;
    /** Backoff hint carried in Busy frames. */
    std::uint64_t busyRetryMs = 2;
    /** Test hook: delay (ms) before the pump decodes each chunk, making
     *  queue-full shedding deterministic in back-pressure tests. */
    int debugPumpDelayMs = 0;
    /** Adaptive epoch sizing + graduated admission: per-session and
     *  server-wide EpochControllers replace the single queue-watermark
     *  cliff with the grow-h → Partial → Busy → Shed ladder, and the
     *  realized epoch spans are surfaced in SessionResult so the server
     *  can advertise them (EpochHint). Off by default — the legacy
     *  admission path is untouched when false. */
    bool adaptive = false;
    /** Test/chaos hook: ignore telemetry and cycle the coalescing width
     *  1→2→4→8 per epoch group, guaranteeing several h-changes within
     *  every session regardless of load (the differential harness then
     *  proves bit-identity across every adaptation point). */
    bool adaptiveForceCycle = false;
    /** Ladder thresholds and the size-driven coalescing target. */
    ControllerConfig controller;
};

/** Verdict of one admission attempt. */
enum class Admission : std::uint8_t {
    Accepted, ///< chunk applied (in sequence, within budget)
    Ignored,  ///< out-of-sequence duplicate/flood; silently dropped
    Busy,     ///< shed; client must rewind to busy.seq and retry
    Rejected, ///< session is over; reject carries the reason
};

/** What a finished session hands back to the event loop. */
struct SessionResult
{
    std::uint64_t sessionId = 0;
    bool failed = false;
    RejectInfo reject;   ///< valid when failed
    RemoteReport report; ///< valid when !failed
    /** Realized per-epoch source spans (adaptive runs; empty = source
     *  slicing). The server forwards these in EpochHint frames. */
    std::vector<std::uint32_t> realizedSpans;
    /** How often the realized merge width changed mid-stream. */
    std::uint64_t hChanges = 0;
    /** v4: the client's declared ElisionPlan fingerprint (echo). */
    std::uint64_t planFingerprint = 0;
    /** v4: SiteSummary events decoded from this session's log. */
    std::uint64_t summaryEvents = 0;
    /** Session degraded to Partial: ship only the Summary fingerprint. */
    bool degradePartial = false;
    /** Snapshot of the session's private telemetry registry. */
    telemetry::RegistrySnapshot metrics;
};

class SessionMux
{
  public:
    struct Session; ///< defined in session_mux.cpp

    /**
     * @param wake  called (possibly from a pool thread) after a result
     *              is queued; must be async-signal-ish cheap.
     */
    SessionMux(WorkerPool &pool, const MuxConfig &config,
               std::function<void()> wake);
    /** Drains all in-flight pump/analysis tasks before returning. */
    ~SessionMux();

    SessionMux(const SessionMux &) = delete;
    SessionMux &operator=(const SessionMux &) = delete;

    /**
     * Budget charge for @p n decoded events. The pump makes one
     * accounting call per drained chunk with the *net* delta — this
     * charge minus the raw-byte credit — so admission math and tests
     * must agree on the per-event footprint; the assert pins it.
     */
    static constexpr std::size_t
    decodedEventBytes(std::size_t n)
    {
        static_assert(sizeof(Event) == 40,
                      "Event grew: retune SessionMux byte budgets");
        return n * sizeof(Event);
    }

    /**
     * Budget charge for the state a session's shape buys before it sends
     * a single event, held from open() until the session ends: per
     * thread, the decoder, the decoded vector and the lifeguard's
     * summary slots, plus one EpochStream block per ring slot. Sized
     * from the server's VmHWM growth over empty 8 192-thread sessions
     * when a ring slot held a 24 B vector per thread (now a 16 B span):
     * ADDRCHECK, the largest, grew 2 318 B per thread at a 4-epoch ring
     * and 4 257 B at 64 epochs, i.e. 2 189 B plus 32 B per ring slot;
     * TAINTCHECK 1 312 B and 3 264 B. decodeSessionOpen's
     * limits (65 536 threads, 1 024 epochs) keep the product below 2^32.
     */
    static constexpr std::size_t
    sessionStateBytes(const SessionSpec &spec)
    {
        constexpr std::size_t kPerThread = 2304;
        constexpr std::size_t kPerRingSlot = 32;
        return std::size_t{spec.numThreads} *
               (kPerThread + std::size_t{spec.windowEpochs} * kPerRingSlot);
    }

    /**
     * Widest session admitted. Pass 2's wing loops visit every other
     * thread's block for every block, so an empty session's analysis
     * grows with the square of the thread count whatever its byte
     * charge: empty TAINTCHECK, the slowest, took 3-5 ms at 1 024
     * threads, 13 ms at 2 048, 306 ms at 6 898 and 20 s at 65 536.
     */
    static constexpr std::uint32_t kMaxSessionThreads = 1024;

    /**
     * Admit a new session, charging sessionStateBytes(spec) against the
     * global budget until it ends. @return its id, or 0 with @p reject
     * filled: TooLarge when the session is wider than kMaxSessionThreads
     * or its charge alone exceeds maxSessionBytes; Overload (transient)
     * when the charge does not fit what the budget has left. Opens never
     * over-commit: a session holds its charge until it ends, so charges
     * past the budget would leave every session Busy on every chunk.
     */
    std::uint64_t open(const SessionSpec &spec, RejectInfo &reject);

    /** Admission + enqueue of one log chunk. On Busy fills @p busy, on
     *  Rejected fills @p reject (and the session is gone). */
    Admission submitChunk(std::uint64_t session_id,
                          const ChunkHeader &header,
                          std::span<const std::uint8_t> log,
                          BusyInfo &busy, RejectInfo &reject);

    /** Admission of the end-of-trace marker (same sequence space). */
    Admission submitTraceEnd(std::uint64_t session_id, std::uint64_t seq,
                             BusyInfo &busy, RejectInfo &reject);

    /** Connection died: drop the session and free its budget. */
    void abort(std::uint64_t session_id);

    /** Results completed since the last drain (any order). */
    std::vector<SessionResult> drainCompleted();

    /** Bytes currently accounted against the global budget. */
    std::size_t globalBytes() const;

    /** Sessions currently open (excludes completed/aborted). */
    std::size_t activeSessions() const;

    /** Server-wide degradation rung (Normal when not adaptive). */
    DegradeLevel degradeLevel() const;

    /** True when the adaptive ladder says new sessions must be shed
     *  (the server answers SessionOpen with RejectCode::Overload). */
    bool shedNewSessions() const;

    /** Event-loop idle tick for the server-wide ladder: feed it a
     *  sample built from the current budget occupancy. Without this a
     *  ladder that escalated to Shed while its last sessions drained
     *  would never observe another admission sample — and so never
     *  recover. Rate-limited internally to one sample per 100ms; no-op
     *  when not adaptive. */
    void tickController();

  private:
    static void pumpTrampoline(void *ctx, std::size_t);
    void pump(const std::shared_ptr<Session> &session);
    static void analysisTrampoline(void *ctx, std::size_t);
    void analyze(const std::shared_ptr<Session> &session);

    /** Queue the analysis job if the session is ready for it. Caller
     *  holds the session mutex. */
    void maybeScheduleAnalysis(const std::shared_ptr<Session> &session);

    /** Fail the session from a pool task and publish the result. */
    void failSession(const std::shared_ptr<Session> &session,
                     RejectCode code, std::string message);

    void publish(SessionResult result);

    std::shared_ptr<Session> find(std::uint64_t session_id);
    void erase(std::uint64_t session_id);

    /** Accounted bytes over the global budget: a ladder sample. */
    double budgetFraction() const;

    WorkerPool &pool_;
    MuxConfig config_;
    std::function<void()> wake_;

    /** Server-wide ladder fed by every session's admission samples.
     *  Guarded by its own mutex (taken after a session mutex, never
     *  before — the only nesting order used). */
    mutable std::mutex controllerMutex_;
    EpochController controller_;
    std::chrono::steady_clock::time_point lastCtlTick_{};

    mutable std::mutex mutex_; ///< guards sessions_ and nextId_
    std::unordered_map<std::uint64_t, std::shared_ptr<Session>> sessions_;
    std::uint64_t nextId_ = 1;

    std::atomic<std::size_t> globalBytes_{0};

    std::mutex completedMutex_;
    std::vector<SessionResult> completed_;

    /** Completion domain of all pump/analysis tasks this mux submitted. */
    TaskGroup jobs_;
};

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_SESSION_MUX_HPP
