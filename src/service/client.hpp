/**
 * @file
 * MonitorClient: blocking client library for the monitoring service.
 *
 * A client encodes a heartbeat-marked trace with the log codec, streams
 * it as sequence-numbered LogChunk frames, and obeys the server's
 * go-back-N flow control: on a Busy frame it rewinds to the rejected
 * sequence number, backs off for the suggested interval and resends
 * (the server silently ignores everything out of sequence, so resending
 * is always safe). After TraceEnd it collects the streamed
 * ErrorReport/Sos frames and the final Summary into a RemoteReport that
 * can be compared bit-for-bit against an in-process run.
 */

#ifndef BUTTERFLY_SERVICE_CLIENT_HPP
#define BUTTERFLY_SERVICE_CLIENT_HPP

#include <cstdint>
#include <string>

#include "service/analyzer.hpp"
#include "service/wire.hpp"
#include "trace/trace.hpp"

namespace bfly::service {

struct ClientConfig
{
    /** Target log bytes per LogChunk frame. */
    std::size_t chunkBytes = 32 * 1024;
    /** Poll timeout while waiting for server frames. */
    int ioTimeoutMs = 30000;
    /** Give up after this many Busy rewinds (overload, not progress). */
    std::uint64_t maxBusyRetries = 100000;
};

/** Outcome of one remote monitoring run. */
struct RunResult
{
    bool ok = false;       ///< Summary received (Complete or Partial)
    std::string error;     ///< human-readable failure (when !ok)
    SummaryInfo summary;   ///< final frame (valid when ok)
    RemoteReport report;   ///< records/sos/fingerprint as streamed
    std::uint64_t busyRetries = 0; ///< Busy rewinds survived
    /** The session was refused with RejectCode::Overload — the server's
     *  degradation ladder is shedding new sessions. Retry-later
     *  semantics, distinct from a conformance failure. */
    bool overloaded = false;
    std::uint64_t sessionId = 0; ///< id from SessionAccept (0 if none)
    /** Realized epoch slicing advertised in EpochHint frames (adaptive
     *  servers only; empty = source slicing). Feeding these to
     *  EpochLayout::coalescedFromHeartbeats rebuilds the exact layout
     *  the server analyzed. */
    std::vector<std::uint32_t> epochSpans;
    std::uint64_t effectiveH = 1;  ///< headline width from EpochHint
    /** Encoded log bytes streamed for this session (before go-back-N
     *  resends) — the bytes-on-the-wire a static ElisionPlan saves. */
    std::uint64_t logBytesSent = 0;

    /** How often the realized epoch width changed mid-stream. */
    std::uint64_t
    hChanges() const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 1; i < epochSpans.size(); ++i)
            if (epochSpans[i] != epochSpans[i - 1])
                ++n;
        return n;
    }
};

/** One frame (header + payload) as a contiguous byte vector. */
std::vector<std::uint8_t>
encodeFramed(FrameType type, const std::vector<std::uint8_t> &payload);

class MonitorClient
{
  public:
    explicit MonitorClient(ClientConfig config = {});
    ~MonitorClient();

    MonitorClient(const MonitorClient &) = delete;
    MonitorClient &operator=(const MonitorClient &) = delete;

    bool connectUnix(const std::string &path);
    bool connectTcp(std::uint16_t port);
    void close();
    bool connected() const { return fd_ >= 0; }

    /**
     * Run one full session over the open connection: open, stream
     * @p marked_trace (which must already carry heartbeat epoch markers,
     * see withHeartbeatMarkers), collect the report. The connection is
     * single-session: the server closes it after the Summary.
     */
    RunResult run(const SessionSpec &spec, const Trace &marked_trace);

  private:
    bool sendAll(const std::vector<std::uint8_t> &bytes,
                 std::string &error);
    /** Pull socket bytes into the parser. @p block waits ioTimeoutMs.
     *  @return false on timeout/EOF/error (fills @p error). */
    bool pump(bool block, std::string &error);

    ClientConfig config_;
    int fd_ = -1;
    FrameParser parser_;
};

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_CLIENT_HPP
