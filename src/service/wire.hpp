/**
 * @file
 * Length-prefixed binary wire protocol of the monitoring service.
 *
 * Every frame is [u8 type][u32 LE payload length][payload]; the payload
 * length is capped (kMaxFramePayload) so a malicious length can never
 * drive an allocation. Log bytes inside LogChunk frames reuse the
 * log_codec per-thread framing verbatim — the service adds only session
 * multiplexing, flow control and report streaming on top.
 *
 * Everything that arrives from a socket is untrusted: every decode path
 * here is bounds-checked and returns DecodeStatus (shared with the log
 * codec) instead of asserting. A Corrupt result means the connection is
 * beyond recovery and must be dropped; NeedMore means the frame or field
 * is split across reads and the caller should feed more bytes.
 *
 * Flow control is go-back-N on a per-session chunk sequence number: the
 * server applies chunks strictly in sequence order, answers an
 * over-budget chunk with Busy{seq} and silently discards everything
 * until the client rewinds and resends from that seq. One Busy per shed
 * event, no per-chunk acks on the accept path.
 */

#ifndef BUTTERFLY_SERVICE_WIRE_HPP
#define BUTTERFLY_SERVICE_WIRE_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lifeguards/report.hpp"
#include "trace/log_codec.hpp"

namespace bfly::service {

/** Protocol revision carried in SessionOpen. v2 added a reactor count
 *  to SessionAccept; v3 added the EpochHint frame (advisory epoch-sizing
 *  feedback — a peer that does not understand it may simply skip it)
 *  and RejectCode::Overload; v4 added the elision-plan fingerprint to
 *  SessionOpen (the client declares which static ElisionPlan its log
 *  was generated under, 0 = none) and its echo plus the decoded
 *  SiteSummary count to Summary, so both ends can assert they agree on
 *  what was elided; v5 dropped the reactor count from SessionAccept
 *  again, since the server runs one reactor (servers reject other
 *  versions, so both ends move together — the repo ships client and
 *  server from one tree). */
inline constexpr std::uint8_t kWireVersion = 5;

/** Hard cap on one frame's payload (bounds every inbound allocation). */
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

/** Frame header size: u8 type + u32 LE length. */
inline constexpr std::size_t kFrameHeaderBytes = 5;

enum class FrameType : std::uint8_t {
    SessionOpen = 1,  ///< client->server: open a monitoring session
    SessionAccept,    ///< server->client: session admitted
    LogChunk,         ///< client->server: encoded log bytes for one thread
    TraceEnd,         ///< client->server: no more chunks; analyze
    Heartbeat,        ///< either direction: keepalive, echoed by server
    Busy,             ///< server->client: chunk shed, rewind and retry
    Reject,           ///< server->client: fatal; session is over
    ErrorReport,      ///< server->client: a batch of error records
    Sos,              ///< server->client: a batch of final-SOS addresses
    Summary,          ///< server->client: final frame of a session
    EpochHint,        ///< v3, advisory: server->client: realized epoch
                      ///< sizing (effective h + per-epoch source spans);
                      ///< clients echo it back so the server can tell
                      ///< which tenants consumed the hint
};

const char *frameTypeName(FrameType type);

/** Why the server shed a chunk (Busy frames). */
enum class BusyReason : std::uint8_t {
    SessionQueueFull = 1, ///< this session's ingest queue is at capacity
    GlobalBudget = 2,     ///< the server-wide byte budget is exhausted
};

/** Why the server terminated a session (Reject frames). */
enum class RejectCode : std::uint8_t {
    Protocol = 1,   ///< malformed or out-of-state frame
    TooLarge = 2,   ///< session exceeded its hard event/byte cap
    CorruptLog = 3, ///< log bytes failed to decode
    Internal = 4,   ///< server-side failure
    Timeout = 5,    ///< client went silent / stopped reading
    Overload = 6,   ///< v3: server shedding new sessions; retry later
};

/** How a session ended (Summary frames). */
enum class SummaryStatus : std::uint8_t {
    Complete = 0, ///< full report delivered
    Partial = 1,  ///< report truncated (slow client / outbound cap)
};

/** One decoded frame: type + owned payload bytes. */
struct Frame
{
    FrameType type = FrameType::Heartbeat;
    std::vector<std::uint8_t> payload;
};

/** Append one frame (header + payload) to @p out. */
void appendFrame(std::vector<std::uint8_t> &out, FrameType type,
                 std::span<const std::uint8_t> payload);

/**
 * Incremental frame splitter over an untrusted byte stream. feed()
 * appends raw socket bytes; next() yields complete frames. Corrupt
 * (unknown type or oversized length) is sticky.
 */
class FrameParser
{
  public:
    void feed(std::span<const std::uint8_t> bytes);
    DecodeStatus next(Frame &out);

    std::size_t pendingBytes() const { return buffer_.size() - consumed_; }

  private:
    std::vector<std::uint8_t> buffer_;
    std::size_t consumed_ = 0;
    bool corrupt_ = false;
};

// ---------------------------------------------------------------- payloads

/** What a client asks the server to monitor (SessionOpen). */
struct SessionSpec
{
    std::uint8_t lifeguard = 0;   ///< Lifeguard (lifeguards/registry.hpp)
    std::uint8_t memModel = 0;    ///< 0 = SC, 1 = TSO (taint termination)
    std::uint32_t numThreads = 1; ///< per-thread log streams to expect
    std::uint32_t granularity = 8;
    std::uint64_t heapBase = 0;
    std::uint64_t heapLimit = 0;
    std::uint64_t globalH = 64;      ///< diagnostic; slicing uses markers
    std::uint32_t windowEpochs = 4;  ///< EpochStream ring size
    /** v4: fingerprint of the ElisionPlan the log was generated under
     *  (staticpass::ElisionPlan::fingerprint(); 0 = no elision). The
     *  server echoes it in Summary so a mismatch is detectable. */
    std::uint64_t planFingerprint = 0;
};

struct SessionAcceptInfo
{
    std::uint64_t sessionId = 0;
    std::uint64_t queueBytesHint = 0; ///< server's per-session queue cap
};

/** LogChunk header; the log bytes follow in the same payload. */
struct ChunkHeader
{
    std::uint64_t seq = 0; ///< session-wide chunk sequence number
    std::uint32_t tid = 0; ///< which per-thread stream the bytes extend
};

struct BusyInfo
{
    BusyReason reason = BusyReason::SessionQueueFull;
    std::uint64_t seq = 0;     ///< first sequence number to resend
    std::uint64_t retryMs = 1; ///< suggested backoff
};

struct RejectInfo
{
    RejectCode code = RejectCode::Protocol;
    std::string message;
};

/**
 * Realized epoch sizing of a session (EpochHint frames). `spans[i]` is
 * how many source (marker-delimited) epochs were merged into analyzed
 * epoch i; `effectiveH` is the advisory headline number (the largest
 * realized merge width). A session's spans may arrive split over
 * several frames; clients concatenate them in order.
 */
struct EpochHintInfo
{
    std::uint64_t effectiveH = 1;
    std::vector<std::uint32_t> spans;
};

struct SummaryInfo
{
    SummaryStatus status = SummaryStatus::Complete;
    std::uint64_t epochs = 0;
    std::uint64_t events = 0;
    std::uint64_t recordsTotal = 0; ///< records found (>= records sent)
    std::uint64_t sosTotal = 0;
    std::uint64_t busyCount = 0;    ///< sheds this session survived
    std::uint64_t peakResidentEpochs = 0;
    std::uint64_t fingerprint = 0;  ///< dataflow fingerprint
    /** v4: echo of SessionSpec::planFingerprint. */
    std::uint64_t planFingerprint = 0;
    /** v4: SiteSummary events decoded from the session's log — the
     *  server-observed evidence of elision on the wire. */
    std::uint64_t summaryEvents = 0;
};

std::vector<std::uint8_t> encodeSessionOpen(const SessionSpec &spec);
std::vector<std::uint8_t> encodeSessionAccept(const SessionAcceptInfo &info);
std::vector<std::uint8_t> encodeChunk(const ChunkHeader &header,
                                      std::span<const std::uint8_t> log);
std::vector<std::uint8_t> encodeTraceEnd(std::uint64_t seq);
std::vector<std::uint8_t> encodeBusy(const BusyInfo &info);
std::vector<std::uint8_t> encodeReject(const RejectInfo &info);
std::vector<std::uint8_t>
encodeErrorReport(std::span<const ErrorRecord> records);
std::vector<std::uint8_t> encodeSos(std::span<const Addr> addrs);
std::vector<std::uint8_t> encodeSummary(const SummaryInfo &info);
std::vector<std::uint8_t> encodeEpochHint(const EpochHintInfo &info);

DecodeStatus decodeSessionOpen(std::span<const std::uint8_t> payload,
                               SessionSpec &out);
DecodeStatus decodeSessionAccept(std::span<const std::uint8_t> payload,
                                 SessionAcceptInfo &out);
/** On Ok, @p log views the log bytes inside @p payload (not a copy). */
DecodeStatus decodeChunk(std::span<const std::uint8_t> payload,
                         ChunkHeader &out,
                         std::span<const std::uint8_t> &log);
DecodeStatus decodeTraceEnd(std::span<const std::uint8_t> payload,
                            std::uint64_t &seq);
DecodeStatus decodeBusy(std::span<const std::uint8_t> payload,
                        BusyInfo &out);
DecodeStatus decodeReject(std::span<const std::uint8_t> payload,
                          RejectInfo &out);
DecodeStatus decodeErrorReport(std::span<const std::uint8_t> payload,
                               std::vector<ErrorRecord> &out);
DecodeStatus decodeSos(std::span<const std::uint8_t> payload,
                       std::vector<Addr> &out);
DecodeStatus decodeSummary(std::span<const std::uint8_t> payload,
                           SummaryInfo &out);
/** On Ok, the decoded spans are *appended* to out.spans (frames chain). */
DecodeStatus decodeEpochHint(std::span<const std::uint8_t> payload,
                             EpochHintInfo &out);

} // namespace bfly::service

#endif // BUTTERFLY_SERVICE_WIRE_HPP
