/**
 * @file
 * bfly_loadgen: conformance + load driver for the monitoring service.
 *
 *   bfly_loadgen [--unix PATH | --tcp PORT] --sessions N --traces M
 *                [--seed S] [--chunk-bytes B] [--json FILE] [--quiet]
 *                [--adaptive] [--chaos --budget-sec T]
 *
 * Replays TraceFuzzer cases across N concurrent client connections,
 * cycling all six lifeguards. Every remote report is checked
 * bit-for-bit (error records, SOS addresses, dataflow fingerprint)
 * against an in-process reference run of the same trace; any divergence
 * is a conformance failure. When no endpoint is given, an in-process
 * MonitorServer is spun up on a private Unix socket, so the tool is
 * self-contained for CI smoke runs.
 *
 * --adaptive (in-process server only) turns on the server's online
 * epoch-sizing ladder *and* the deterministic force-cycle policy, which
 * re-slices every session through epoch widths 1,2,4,8,... — at least
 * three h-changes per session. The server advertises the realized
 * slicing in EpochHint frames; the local reference is then rebuilt over
 * exactly those boundaries (EpochLayout::coalescedFromHeartbeats), so
 * every report must still be bit-identical. Any divergence at an
 * adaptation point is a conformance failure.
 *
 * --chaos turns the run into a time-budgeted soak: workers keep issuing
 * sessions until --budget-sec expires, and each iteration randomly
 * picks a well-behaved conformance run, a conformance run whose trace
 * carries clock-skewed heartbeat markers (extra/duplicate markers in one
 * thread; the local reference is computed over the *same* skewed trace,
 * so bit-identity must still hold), a mid-stream client kill (raw
 * socket, SessionOpen + a dangling LogChunk, then an abrupt close with
 * no TraceEnd), connect/disconnect churn, a budget hog (a session that
 * parks megabytes of decoded events with no TraceEnd, pressuring the
 * server's byte budget while peers run conformance cases), or a TraceEnd
 * flood (one valid chunk, then dozens of out-of-sequence TraceEnd
 * frames the server must Ignore). The server must shed the abusive
 * sessions without perturbing any concurrent conformance run. Chaos
 * mode shrinks the in-process server's budget so hogs genuinely bite,
 * and samples its own RSS to expose steady-state memory growth.
 *
 * Emits a JSON throughput/latency summary (stdout and optionally
 * --json FILE); session latency is also recorded into the telemetry
 * registry ("loadgen.session.latency_us").
 *
 * Exit status: 0 on full conformance, 1 on any mismatch or failed
 * session, 2 on usage errors, including a numeric flag whose value is
 * not a whole decimal number in range.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fuzz/trace_fuzzer.hpp"
#include "parse_number.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/log_codec.hpp"

using namespace bfly;
using namespace bfly::service;

namespace {

struct Options
{
    std::string unixPath;
    bool tcp = false;
    std::uint16_t tcpPort = 0;
    std::size_t sessions = 4;
    std::size_t traces = 50;
    std::uint64_t seed = 1;
    std::size_t chunkBytes = 32 * 1024;
    std::string jsonPath;
    bool quiet = false;
    bool chaos = false;
    std::uint64_t budgetSec = 30;
    bool adaptive = false; ///< in-process server only
};

struct Tally
{
    std::atomic<std::uint64_t> traces{0};
    std::atomic<std::uint64_t> mismatches{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> busyRetries{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> records{0};
    std::atomic<std::uint64_t> partials{0};
    /** Encoded log bytes shipped across all conformance sessions. */
    std::atomic<std::uint64_t> logBytes{0};
    // adaptive: epoch-width changes observed across all EpochHint spans
    std::atomic<std::uint64_t> hChanges{0};
    // chaos-only counters
    std::atomic<std::uint64_t> kills{0};
    std::atomic<std::uint64_t> churns{0};
    std::atomic<std::uint64_t> skews{0};
    std::atomic<std::uint64_t> hogs{0};
    std::atomic<std::uint64_t> floods{0};
    /** Sessions refused with RejectCode::Overload — the shed rung doing
     *  its job under chaos pressure, not a conformance failure. */
    std::atomic<std::uint64_t> sheds{0};
};

void
usage(std::ostream &out)
{
    out << "usage: bfly_loadgen [options]\n"
        << "  --unix PATH      connect to a Unix-domain socket\n"
        << "  --tcp PORT       connect to loopback TCP\n"
        << "                   (neither: in-process server is started)\n"
        << "  --sessions N     concurrent client connections (default 4)\n"
        << "  --traces M       total fuzzer traces to replay (default 50)\n"
        << "  --seed S|from-run-id  fuzzer seed (from-run-id derives\n"
        << "                   it from $GITHUB_RUN_ID, else the clock)\n"
        << "  --chunk-bytes B  log bytes per LogChunk (default 32768)\n"
        << "  --json FILE      also write the JSON summary to FILE\n"
        << "  --quiet          only print the JSON summary\n"
        << "  --adaptive       in-process server: adaptive epoch sizing\n"
        << "                   with the force-cycle policy; references\n"
        << "                   are rebuilt over the advertised slicing\n"
        << "  --chaos          soak mode: mix conformance runs with\n"
        << "                   client kills, connect churn, skewed\n"
        << "                   heartbeats, budget hogs and TraceEnd\n"
        << "                   floods until the budget expires\n"
        << "  --budget-sec T   chaos wall-clock budget (default 30)\n"
        << "  --help           print this help and exit 0\n";
}

SessionSpec
specFor(const fuzz::FuzzCase &fuzz_case, const Trace &trace,
        std::uint64_t trace_index)
{
    const Lifeguard lg =
        kAllLifeguards[trace_index % std::size(kAllLifeguards)];
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(lg);
    spec.memModel = fuzz_case.model == MemModel::TSO ? 1 : 0;
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = lifeguardEntry(lg).defaultGranularity;
    spec.heapBase = fuzz_case.heapBase;
    spec.heapLimit = fuzz_case.heapLimit;
    spec.globalH = fuzz_case.globalH;
    spec.windowEpochs = 4;
    return spec;
}

/** Approximate percentile of a log-scale histogram: upper bound of the
 *  bucket where the cumulative count crosses @p q. */
std::uint64_t
histPercentile(const telemetry::HistogramSnapshot &h, double q)
{
    if (h.count == 0)
        return 0;
    const std::uint64_t target =
        static_cast<std::uint64_t>(q * static_cast<double>(h.count));
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < telemetry::HistogramSnapshot::kBuckets; ++b) {
        seen += h.buckets[b];
        if (seen > target)
            return std::uint64_t{1} << (b + 1);
    }
    return h.max;
}

/**
 * Clock-skew @p marked in place: one randomly chosen thread gains 1-3
 * extra Heartbeat markers at random positions (possibly adjacent to an
 * existing marker, i.e. a duplicate, which yields an empty block). The
 * slicing stays well defined — markers are positional — it just shifts
 * that thread's tail blocks into later epochs relative to its peers.
 */
void
skewHeartbeats(Trace &marked, std::mt19937_64 &rng)
{
    if (marked.numThreads() == 0)
        return;
    auto &events = marked.threads[rng() % marked.numThreads()].events;
    const std::size_t extra = 1 + rng() % 3;
    for (std::size_t k = 0; k < extra; ++k) {
        const std::size_t pos = events.empty() ? 0 : rng() % events.size();
        events.insert(events.begin() + static_cast<std::ptrdiff_t>(pos),
                      Event::heartbeat());
    }
}

/**
 * One full conformance iteration: generate case @p index, run it
 * remotely, compare bit-for-bit against the local reference. With
 * @p skew, the heartbeat-marked trace is clock-skewed first and the
 * reference recomputed over the skewed trace's own marker slicing.
 * Against an adaptive server the reference is computed *after* the
 * remote run, over the realized slicing the server advertised in its
 * EpochHint frames — so bit-identity is demanded across every online
 * h-change, whatever the controller decided.
 */
void
runConformanceCase(const Options &opt, fuzz::TraceFuzzer &fuzzer,
                   std::uint64_t index, bool skew, std::mt19937_64 &rng,
                   Tally &tally, std::mutex &log_mutex,
                   telemetry::MetricsRegistry &reg,
                   telemetry::MetricId latency)
{
    const fuzz::FuzzCase fuzz_case =
        fuzzer.generate(opt.seed * 1000003 + index);
    const Trace trace = fuzz_case.materialize();
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);
    const SessionSpec spec = specFor(fuzz_case, trace, index);

    Trace marked = withHeartbeatMarkers(trace, layout);
    if (skew) {
        skewHeartbeats(marked, rng);
        tally.skews.fetch_add(1);
    }

    ClientConfig ccfg;
    ccfg.chunkBytes = opt.chunkBytes;
    MonitorClient client(ccfg);
    const bool connected = opt.tcp ? client.connectTcp(opt.tcpPort)
                                   : client.connectUnix(opt.unixPath);
    if (!connected) {
        tally.failures.fetch_add(1);
        std::lock_guard<std::mutex> lock(log_mutex);
        std::cerr << "loadgen: case " << index << ": connect failed\n";
        return;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const RunResult remote = client.run(spec, marked);
    const auto dt = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    reg.observe(latency, static_cast<std::uint64_t>(dt.count()));

    tally.traces.fetch_add(1);
    tally.busyRetries.fetch_add(remote.busyRetries);
    tally.events.fetch_add(trace.instructionCount());
    tally.logBytes.fetch_add(remote.logBytesSent);

    if (!remote.ok) {
        if (remote.overloaded) {
            // Shed by the degradation ladder: retry-later semantics.
            tally.sheds.fetch_add(1);
            return;
        }
        tally.failures.fetch_add(1);
        std::lock_guard<std::mutex> lock(log_mutex);
        std::cerr << "loadgen: case " << index << " ("
                  << fuzz_case.scenario << ", "
                  << lifeguardName(static_cast<Lifeguard>(spec.lifeguard))
                  << (skew ? ", skewed" : "")
                  << "): session failed: " << remote.error << "\n";
        return;
    }
    if (remote.summary.status == SummaryStatus::Partial)
        tally.partials.fetch_add(1);
    tally.hChanges.fetch_add(remote.hChanges());

    // Local reference over the realized slicing. An adaptive server
    // advertises its (possibly re-sliced) epoch spans; rebuilding the
    // coalesced layout from the same marked trace reproduces the exact
    // boundaries it analyzed. Without hints the source slicing stands.
    RemoteReport local;
    if (!remote.epochSpans.empty()) {
        std::uint64_t spanned = 0;
        for (const std::uint32_t k : remote.epochSpans)
            spanned += k;
        const EpochLayout source = EpochLayout::fromHeartbeats(marked);
        if (spanned != source.numEpochs()) {
            tally.mismatches.fetch_add(1);
            std::lock_guard<std::mutex> lock(log_mutex);
            std::cerr << "loadgen: case " << index
                      << ": EpochHint spans cover " << spanned
                      << " source epochs, trace has "
                      << source.numEpochs() << "\n";
            return;
        }
        local = analyzeReference(
            spec, marked,
            EpochLayout::coalescedFromHeartbeats(marked,
                                                 remote.epochSpans));
    } else if (skew) {
        // The skewed markers *are* the epoch structure now; the
        // reference must follow the same slicing the server saw.
        local = analyzeReference(spec, marked,
                                 EpochLayout::fromHeartbeats(marked));
    } else {
        local = analyzeReference(spec, trace, layout);
    }
    tally.records.fetch_add(local.records.size());

    // A Partial summary means the record/sos stream was cut (slow-client
    // truncation or the Partial degrade rung); the fingerprint still
    // witnesses the full analysis, so conformance falls back to it.
    const bool partial = remote.summary.status == SummaryStatus::Partial;
    const bool conformant =
        partial ? remote.report.fingerprint == local.fingerprint &&
                      remote.report.epochs == local.epochs
                : remote.report.identical(local);
    if (!conformant) {
        tally.mismatches.fetch_add(1);
        std::lock_guard<std::mutex> lock(log_mutex);
        std::cerr << "loadgen: case " << index << " ("
                  << fuzz_case.scenario << ", "
                  << lifeguardName(static_cast<Lifeguard>(spec.lifeguard))
                  << (skew ? ", skewed" : "")
                  << "): REPORT MISMATCH remote{records="
                  << remote.report.records.size()
                  << " sos=" << remote.report.sos.size()
                  << " fp=" << remote.report.fingerprint
                  << " epochs=" << remote.report.epochs
                  << "} local{records=" << local.records.size()
                  << " sos=" << local.sos.size()
                  << " fp=" << local.fingerprint
                  << " epochs=" << local.epochs << "}\n";
    }
}

/** Raw client socket, bypassing MonitorClient, for misbehaving peers. */
int
rawConnect(const Options &opt)
{
    if (opt.tcp) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(opt.tcpPort);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opt.unixPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sendRaw(int fd, const std::vector<std::uint8_t> &bytes, std::size_t limit)
{
    std::size_t off = 0;
    const std::size_t n = std::min(bytes.size(), limit);
    while (off < n) {
        // MSG_NOSIGNAL: the server dropping an abusive peer mid-write
        // must surface as EPIPE here, not kill the whole soak.
        const ssize_t w =
            ::send(fd, bytes.data() + off, n - off, MSG_NOSIGNAL);
        if (w <= 0)
            return; // server already dropped us; that is fine
        off += static_cast<std::size_t>(w);
    }
}

/**
 * Mid-stream kill: open a session, stream a dangling LogChunk (and,
 * half the time, a truncated frame header on top), then close the
 * socket with no TraceEnd. The server must reap the session without
 * disturbing concurrent well-behaved ones.
 */
void
midStreamKill(const Options &opt, fuzz::TraceFuzzer &fuzzer,
              std::uint64_t index, std::mt19937_64 &rng, Tally &tally)
{
    const int fd = rawConnect(opt);
    if (fd < 0)
        return; // connect-refused under churn is not a conformance event
    const fuzz::FuzzCase fuzz_case =
        fuzzer.generate(opt.seed * 1000003 + index);
    const Trace trace = fuzz_case.materialize();
    const SessionSpec spec = specFor(fuzz_case, trace, index);

    sendRaw(fd, encodeFramed(FrameType::SessionOpen, encodeSessionOpen(spec)),
            SIZE_MAX);

    if (!trace.threads.empty()) {
        const std::vector<std::uint8_t> log =
            encodeEvents(trace.threads[0].events);
        ChunkHeader header;
        header.seq = 0;
        header.tid = trace.threads[0].tid;
        // A complete LogChunk frame whose log bytes stop mid-stream:
        // the per-thread decoder is left waiting on NeedMore forever.
        const std::vector<std::uint8_t> frame = encodeFramed(
            FrameType::LogChunk,
            encodeChunk(header, std::span<const std::uint8_t>(
                                    log.data(), log.size() / 2)));
        sendRaw(fd, frame, SIZE_MAX);
    }
    if (rng() % 2) {
        // Torn frame: a few header bytes of a frame that never arrives.
        const std::vector<std::uint8_t> torn =
            encodeFramed(FrameType::TraceEnd, encodeTraceEnd(1));
        sendRaw(fd, torn, 1 + rng() % 3);
    }
    ::close(fd);
    tally.kills.fetch_add(1);
}

/** Connect/disconnect churn: no session, maybe one Heartbeat frame. */
void
connectChurn(const Options &opt, std::mt19937_64 &rng, Tally &tally)
{
    const int fd = rawConnect(opt);
    if (fd < 0)
        return;
    if (rng() % 2)
        sendRaw(fd, encodeFramed(FrameType::Heartbeat, {}), SIZE_MAX);
    ::close(fd);
    tally.churns.fetch_add(1);
}

/**
 * Budget hog: a session that streams a few MiB of decoded events with
 * no heartbeat markers and no TraceEnd, so nothing can retire and the
 * bytes sit accounted against the server's budget. It holds that pressure
 * for a beat — long enough for concurrent workers' conformance runs to
 * cross the admission edge (Busy{GlobalBudget} rewinds, the adaptive
 * ladder's escalation) — then closes; the abort path must reclaim
 * every byte. The hog never nests a conformance run of its own: if
 * several hogs pinned the whole budget while each waited on a client
 * run, they would deadlock the soak.
 */
void
budgetExhaust(const Options &opt, fuzz::TraceFuzzer &fuzzer,
              std::uint64_t index, std::mt19937_64 &rng, Tally &tally)
{
    const int fd = rawConnect(opt);
    if (fd < 0)
        return;
    const fuzz::FuzzCase fuzz_case =
        fuzzer.generate(opt.seed * 1000003 + index);
    const Trace trace = fuzz_case.materialize();
    SessionSpec spec = specFor(fuzz_case, trace, index);
    spec.numThreads = std::max<std::uint32_t>(spec.numThreads, 1);

    sendRaw(fd, encodeFramed(FrameType::SessionOpen, encodeSessionOpen(spec)),
            SIZE_MAX);

    // Tile thread 0's log into ~2 MiB of decoded events (each decoded
    // event accounts kDecodedEventBytes). Sequenced correctly so every
    // chunk is admitted until the server pushes back.
    std::vector<Event> base;
    for (const ThreadTrace &t : trace.threads)
        if (!t.events.empty()) {
            base = t.events;
            break;
        }
    if (base.empty()) {
        ::close(fd);
        return;
    }
    const std::vector<std::uint8_t> log = encodeEvents(base);
    constexpr std::size_t kTargetDecodedBytes = 2 * 1024 * 1024;
    const std::size_t perChunk = base.size() * 40;
    const std::size_t chunks =
        std::max<std::size_t>(1, kTargetDecodedBytes / perChunk);
    for (std::size_t seq = 0; seq < chunks; ++seq) {
        ChunkHeader header;
        header.seq = seq;
        header.tid = 0;
        sendRaw(fd, encodeFramed(FrameType::LogChunk,
                                 encodeChunk(header, log)),
                SIZE_MAX);
    }
    // Hold the pressure; peers are running conformance cases against
    // the shrunken chaos budget right now.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(50 + rng() % 150));
    ::close(fd);
    tally.hogs.fetch_add(1);
}

/**
 * TraceEnd flood: one valid chunk, then dozens of TraceEnd frames whose
 * sequence numbers are wrong — duplicates, far-future, shuffled. Every
 * one of them must be Ignored (go-back-N discipline: TraceEnd shares
 * the chunk sequence space), the session must stay un-drained, and the
 * abort on close must reclaim its bytes.
 */
void
traceEndFlood(const Options &opt, fuzz::TraceFuzzer &fuzzer,
              std::uint64_t index, std::mt19937_64 &rng, Tally &tally)
{
    const int fd = rawConnect(opt);
    if (fd < 0)
        return;
    const fuzz::FuzzCase fuzz_case =
        fuzzer.generate(opt.seed * 1000003 + index);
    const Trace trace = fuzz_case.materialize();
    const SessionSpec spec = specFor(fuzz_case, trace, index);

    sendRaw(fd, encodeFramed(FrameType::SessionOpen, encodeSessionOpen(spec)),
            SIZE_MAX);
    if (!trace.threads.empty() && !trace.threads[0].events.empty()) {
        ChunkHeader header;
        header.seq = 0;
        header.tid = trace.threads[0].tid;
        sendRaw(fd, encodeFramed(
                        FrameType::LogChunk,
                        encodeChunk(header,
                                    encodeEvents(trace.threads[0].events))),
                SIZE_MAX);
    }
    // expectedSeq is now 1; every flooded TraceEnd dodges it (>= 2),
    // so none may finalize the session.
    const std::size_t flood = 48 + rng() % 17;
    for (std::size_t k = 0; k < flood; ++k) {
        const std::uint64_t seq = 2 + rng() % 64;
        sendRaw(fd, encodeFramed(FrameType::TraceEnd, encodeTraceEnd(seq)),
                SIZE_MAX);
    }
    ::close(fd);
    tally.floods.fetch_add(1);
}

void
worker(const Options &opt, std::atomic<std::uint64_t> &next, Tally &tally,
       std::mutex &log_mutex,
       std::chrono::steady_clock::time_point deadline)
{
    fuzz::FuzzerConfig fcfg;
    fcfg.seed = opt.seed;
    fuzz::TraceFuzzer fuzzer(fcfg);
    telemetry::MetricsRegistry &reg = telemetry::globalRegistry();
    const telemetry::MetricId latency =
        reg.histogram("loadgen.session.latency_us");

    for (;;) {
        const std::uint64_t index = next.fetch_add(1);
        if (opt.chaos) {
            if (std::chrono::steady_clock::now() >= deadline)
                return;
        } else if (index >= opt.traces) {
            return;
        }

        if (!opt.chaos) {
            std::mt19937_64 rng(opt.seed ^ index);
            runConformanceCase(opt, fuzzer, index, /*skew=*/false, rng,
                               tally, log_mutex, reg, latency);
            continue;
        }

        std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ull + index);
        switch (rng() % 10) {
          case 0:
            midStreamKill(opt, fuzzer, index, rng, tally);
            break;
          case 1:
            connectChurn(opt, rng, tally);
            break;
          case 2:
          case 3:
            runConformanceCase(opt, fuzzer, index, /*skew=*/true, rng,
                               tally, log_mutex, reg, latency);
            break;
          case 8:
            budgetExhaust(opt, fuzzer, index, rng, tally);
            break;
          case 9:
            traceEndFlood(opt, fuzzer, index, rng, tally);
            break;
          default:
            runConformanceCase(opt, fuzzer, index, /*skew=*/false, rng,
                               tally, log_mutex, reg, latency);
            break;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "bfly_loadgen: " << arg
                          << " requires a value\n";
                usage(std::cerr);
                std::exit(2);
            }
            return argv[++i];
        };
        // @p text as a numeric flag's value, or exit 2 naming it.
        auto parsed = [&](const char *text, std::uint64_t max) {
            std::uint64_t n = 0;
            if (!parseNumber(text, 0, max, 1, n)) {
                std::cerr << "bfly_loadgen: bad value for " << arg << ": '"
                          << text << "'\n";
                usage(std::cerr);
                std::exit(2);
            }
            return n;
        };
        auto number = [&](std::uint64_t max) { return parsed(value(), max); };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "--unix")
            opt.unixPath = value();
        else if (arg == "--tcp") {
            opt.tcp = true;
            opt.tcpPort = static_cast<std::uint16_t>(number(UINT16_MAX));
        } else if (arg == "--sessions")
            opt.sessions = number(SIZE_MAX);
        else if (arg == "--traces")
            opt.traces = number(SIZE_MAX);
        else if (arg == "--seed") {
            const char *v = value();
            if (std::strcmp(v, "from-run-id") == 0) {
                // Same convention as fuzz_cli: a fresh seed per CI run
                // widens soak coverage over time; the JSON echoes the
                // seed so any failure is reproducible.
                if (const char *run = std::getenv("GITHUB_RUN_ID"))
                    opt.seed = std::strtoull(run, nullptr, 10);
                else
                    opt.seed = static_cast<std::uint64_t>(
                        std::chrono::system_clock::now()
                            .time_since_epoch()
                            .count());
                if (opt.seed == 0)
                    opt.seed = 1;
            } else {
                opt.seed = parsed(v, UINT64_MAX);
            }
        }
        else if (arg == "--chunk-bytes")
            opt.chunkBytes = number(SIZE_MAX);
        else if (arg == "--json")
            opt.jsonPath = value();
        else if (arg == "--quiet")
            opt.quiet = true;
        else if (arg == "--adaptive")
            opt.adaptive = true;
        else if (arg == "--chaos")
            opt.chaos = true;
        else if (arg == "--budget-sec")
            // Seconds past ~136 years would overflow the deadline.
            opt.budgetSec = number(UINT32_MAX);
        else {
            std::cerr << "bfly_loadgen: unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (opt.sessions == 0) {
        std::cerr << "bfly_loadgen: --sessions must be > 0\n";
        return 2;
    }
    if (opt.traces == 0) {
        std::cerr << "bfly_loadgen: --traces must be > 0\n";
        return 2;
    }
    if (opt.chaos && opt.budgetSec == 0) {
        std::cerr << "bfly_loadgen: --budget-sec must be > 0\n";
        return 2;
    }
    if (opt.adaptive && (opt.tcp || !opt.unixPath.empty()) && !opt.quiet)
        std::cerr << "loadgen: note: --adaptive configures the "
                     "in-process server; against an external endpoint "
                     "the reference already follows any advertised "
                     "EpochHint slicing\n";

    telemetry::setEnabled(true);

    // Self-contained mode: no endpoint given -> in-process server.
    std::unique_ptr<MonitorServer> inProcess;
    if (opt.unixPath.empty() && !opt.tcp) {
        ServerConfig scfg;
        scfg.unixPath =
            "/tmp/bfly-loadgen-" + std::to_string(::getpid()) + ".sock";
        if (opt.adaptive) {
            // Force-cycle the epoch width every group so every session
            // crosses several h-changes; the conformance check then
            // proves bit-identity at each adaptation point.
            scfg.mux.adaptive = true;
            scfg.mux.adaptiveForceCycle = true;
        }
        if (opt.chaos) {
            // Shrink the budget so the hog action genuinely pressures
            // admission (one hog parks ~2 MiB decoded against 8 MiB
            // total), and widen the per-session queue so the hog's
            // burst is admitted rather than cut at the queue watermark
            // before it ever reaches the budget.
            scfg.mux.globalBudgetBytes = 8 * 1024 * 1024;
            scfg.mux.sessionQueueBytes = 1024 * 1024;
        }
        inProcess = std::make_unique<MonitorServer>(scfg);
        if (!inProcess->start()) {
            std::cerr << "loadgen: failed to start in-process server\n";
            return 1;
        }
        opt.unixPath = scfg.unixPath;
        if (!opt.quiet)
            std::cerr << "loadgen: in-process server on " << opt.unixPath
                      << "\n";
    }

    Tally tally;
    std::atomic<std::uint64_t> next{0};
    std::mutex logMutex;

    // Chaos soaks watch their own resident set: after warmup the
    // process should plateau, so the growth ratio between the third and
    // final quarter of the samples exposes a leak that absolute peak
    // numbers would hide.
    std::vector<std::uint64_t> rssKb;
    std::atomic<bool> rssStop{false};
    std::thread rssThread;
    if (opt.chaos) {
        rssThread = std::thread([&rssKb, &rssStop] {
            const long page = ::sysconf(_SC_PAGESIZE);
            while (!rssStop.load()) {
                std::ifstream statm("/proc/self/statm");
                std::uint64_t size = 0, resident = 0;
                if (statm >> size >> resident)
                    rssKb.push_back(resident *
                                    static_cast<std::uint64_t>(page) /
                                    1024);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(500));
            }
        });
    }

    const auto wall0 = std::chrono::steady_clock::now();
    const auto deadline = wall0 + std::chrono::seconds(opt.budgetSec);
    std::vector<std::thread> threads;
    threads.reserve(opt.sessions);
    for (std::size_t i = 0; i < opt.sessions; ++i)
        threads.emplace_back(
            [&] { worker(opt, next, tally, logMutex, deadline); });
    for (std::thread &t : threads)
        t.join();
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0)
            .count();

    rssStop.store(true);
    if (rssThread.joinable())
        rssThread.join();

    if (inProcess)
        inProcess->stop();

    // rss_growth: mean of the last quarter of samples over the mean of
    // the quarter before it, minus one. Both windows are post-warmup,
    // so a healthy steady state sits near 0 regardless of how big the
    // working set got while ramping.
    double rssGrowth = 0.0;
    std::uint64_t rssPeakKb = 0;
    for (const std::uint64_t kb : rssKb)
        rssPeakKb = std::max(rssPeakKb, kb);
    if (rssKb.size() >= 8) {
        const std::size_t q = rssKb.size() / 4;
        auto mean = [&](std::size_t begin, std::size_t end) {
            double sum = 0;
            for (std::size_t i = begin; i < end; ++i)
                sum += static_cast<double>(rssKb[i]);
            return sum / static_cast<double>(end - begin);
        };
        const double third = mean(rssKb.size() - 2 * q, rssKb.size() - q);
        const double last = mean(rssKb.size() - q, rssKb.size());
        if (third > 0)
            rssGrowth = last / third - 1.0;
    }

    const auto snapshot = telemetry::globalRegistry().snapshot();
    const telemetry::HistogramSnapshot *lat =
        snapshot.histogram("loadgen.session.latency_us");

    std::ostringstream json;
    json << "{\"sessions\": " << opt.sessions
         << ", \"seed\": " << opt.seed
         << ", \"traces\": " << tally.traces.load()
         << ", \"mismatches\": " << tally.mismatches.load()
         << ", \"failures\": " << tally.failures.load()
         << ", \"partials\": " << tally.partials.load()
         << ", \"busy_retries\": " << tally.busyRetries.load()
         << ", \"events\": " << tally.events.load()
         << ", \"records\": " << tally.records.load()
         << ", \"log_bytes\": " << tally.logBytes.load()
         << ", \"log_bytes_per_session\": "
         << (tally.traces.load() > 0
                 ? tally.logBytes.load() / tally.traces.load()
                 : 0)
         << ", \"chaos\": " << (opt.chaos ? "true" : "false")
         << ", \"adaptive\": " << (opt.adaptive ? "true" : "false")
         << ", \"hchanges\": " << tally.hChanges.load()
         << ", \"kills\": " << tally.kills.load()
         << ", \"churns\": " << tally.churns.load()
         << ", \"skews\": " << tally.skews.load()
         << ", \"hogs\": " << tally.hogs.load()
         << ", \"floods\": " << tally.floods.load()
         << ", \"sheds\": " << tally.sheds.load()
         << ", \"rss_peak_kb\": " << rssPeakKb
         << ", \"rss_growth\": " << rssGrowth
         << ", \"wall_ms\": " << wallMs << ", \"traces_per_sec\": "
         << (wallMs > 0 ? 1000.0 * tally.traces.load() / wallMs : 0.0)
         << ", \"events_per_sec\": "
         << (wallMs > 0 ? 1000.0 * tally.events.load() / wallMs : 0.0)
         << ", \"latency_us_mean\": " << (lat ? lat->mean() : 0.0)
         << ", \"latency_us_p50\": "
         << (lat ? histPercentile(*lat, 0.50) : 0)
         << ", \"latency_us_p99\": "
         << (lat ? histPercentile(*lat, 0.99) : 0) << "}";

    std::cout << json.str() << std::endl;
    if (!opt.jsonPath.empty()) {
        std::ofstream out(opt.jsonPath);
        out << json.str() << "\n";
    }

    const bool clean =
        tally.mismatches.load() == 0 && tally.failures.load() == 0;
    if (!opt.quiet)
        std::cerr << "loadgen: " << (clean ? "PASS" : "FAIL") << " ("
                  << tally.traces.load() << " traces, "
                  << tally.mismatches.load() << " mismatches, "
                  << tally.failures.load() << " failures"
                  << (opt.chaos
                          ? ", " + std::to_string(tally.kills.load()) +
                                " kills, " +
                                std::to_string(tally.churns.load()) +
                                " churns, " +
                                std::to_string(tally.skews.load()) +
                                " skews, " +
                                std::to_string(tally.hogs.load()) +
                                " hogs, " +
                                std::to_string(tally.floods.load()) +
                                " floods"
                          : "")
                  << (opt.adaptive
                          ? ", " + std::to_string(tally.hChanges.load()) +
                                " h-changes"
                          : "")
                  << ")\n";
    return clean ? 0 : 1;
}
