/**
 * @file
 * Tests for the monitoring service: wire protocol round-trips and
 * hostile-input handling, session-mux admission control (queue-full and
 * global-budget shedding, hard-cap rejection), loopback conformance of
 * remote reports against in-process reference runs (all six
 * lifeguards), the pinned per-event byte charge, crash-restart replay
 * of the .bfz spool, back-pressure end-to-end, per-session telemetry
 * isolation, the slow-client partial-report path, the idle timeout
 * (silent clients, never those awaiting a report), and the adaptive
 * admission ladder: EpochHint codec hostility, forced h-change
 * conformance over the wire, and Overload shedding with tick-driven
 * recovery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fuzz/trace_fuzzer.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrleak.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/lockset.hpp"
#include "service/client.hpp"
#include "staticpass/classify.hpp"
#include "service/server.hpp"
#include "service/session_mux.hpp"
#include "service/wire.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/log_codec.hpp"

namespace bfly::service {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------------------ helpers

/** Synthetic heartbeat-marked trace: @p threads threads x @p epochs
 *  epochs of @p per_epoch events each, touching a private heap window.
 *  Odd reads target never-allocated addresses, so ADDRCHECK produces a
 *  record roughly every other event. */
Trace
makeMarkedTrace(unsigned threads, unsigned epochs, unsigned per_epoch,
                Addr heap_base)
{
    Trace trace;
    trace.threads.resize(threads);
    for (unsigned t = 0; t < threads; ++t) {
        trace.threads[t].tid = t;
        std::vector<Event> &events = trace.threads[t].events;
        const Addr base = heap_base + t * 0x1000;
        events.push_back(Event::alloc(base, 256));
        for (unsigned l = 0; l < epochs; ++l) {
            if (l > 0)
                events.push_back(Event::heartbeat());
            for (unsigned i = 0; i < per_epoch; ++i) {
                const Addr addr = base + 8 * (i % 32);
                if (i % 2 == 0)
                    events.push_back(Event::write(addr, 8));
                else // never allocated: one record per read
                    events.push_back(Event::read(addr + 0x800, 8));
            }
        }
    }
    return trace;
}

SessionSpec
addrcheckSpec(const Trace &trace, Addr heap_base)
{
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = 8;
    spec.heapBase = heap_base;
    spec.heapLimit = heap_base + 0x100000;
    return spec;
}

/** The lifeguard the @p i-th session of a round-robin mix requests. */
Lifeguard
roundRobin(std::size_t i)
{
    return kAllLifeguards[i % std::size(kAllLifeguards)];
}

/** The spec bfly_loadgen sends for @p fuzz_case monitored by @p lg. */
SessionSpec
fuzzSpec(const fuzz::FuzzCase &fuzz_case, const Trace &trace, Lifeguard lg)
{
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(lg);
    spec.memModel = fuzz_case.model == MemModel::TSO ? 1 : 0;
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = lifeguardEntry(lg).defaultGranularity;
    spec.heapBase = fuzz_case.heapBase;
    spec.heapLimit = fuzz_case.heapLimit;
    return spec;
}

/** Reference run over the same heartbeat blocks the service will see. */
RemoteReport
referenceFor(const SessionSpec &spec, const Trace &marked)
{
    return analyzeReference(spec, marked,
                            EpochLayout::fromHeartbeats(marked));
}

/** Per-thread encoded logs split into (tid, bytes) chunk items. */
std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>>
chunkItems(const Trace &marked, std::size_t chunk_bytes)
{
    std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> items;
    for (std::uint32_t t = 0; t < marked.numThreads(); ++t) {
        const auto bytes = encodeEvents(marked.threads[t].events);
        for (std::size_t off = 0; off < bytes.size();
             off += chunk_bytes) {
            const std::size_t n =
                std::min(chunk_bytes, bytes.size() - off);
            items.emplace_back(
                t, std::vector<std::uint8_t>(bytes.begin() + off,
                                             bytes.begin() + off + n));
        }
    }
    return items;
}

/** SessionMux::open for a session the mux must admit. */
std::uint64_t
admit(SessionMux &mux, const SessionSpec &spec)
{
    RejectInfo reject;
    const std::uint64_t id = mux.open(spec, reject);
    EXPECT_NE(id, 0u) << reject.message;
    return id;
}

struct MuxRun
{
    bool completed = false;
    SessionResult result;
    std::uint64_t busyCount = 0;
    std::vector<BusyReason> busyReasons;
};

/** Drive the open session @p id through a bare SessionMux with a
 *  go-back-N retry loop, then wait for its completion to be published. */
MuxRun
driveThroughMux(SessionMux &mux, std::uint64_t id, const Trace &marked,
                std::size_t chunk_bytes)
{
    MuxRun run;
    const auto items = chunkItems(marked, chunk_bytes);

    std::uint64_t i = 0;
    while (i <= items.size()) {
        BusyInfo busy;
        RejectInfo reject;
        const Admission verdict =
            i == items.size()
                ? mux.submitTraceEnd(id, i, busy, reject)
                : mux.submitChunk(id, {i, items[i].first},
                                  items[i].second, busy, reject);
        switch (verdict) {
          case Admission::Accepted:
          case Admission::Ignored:
            ++i;
            break;
          case Admission::Busy:
            ++run.busyCount;
            run.busyReasons.push_back(busy.reason);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(busy.retryMs));
            i = busy.seq;
            break;
          case Admission::Rejected:
            run.completed = true;
            run.result.failed = true;
            run.result.reject = reject;
            return run;
        }
    }

    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
        for (SessionResult &result : mux.drainCompleted()) {
            if (result.sessionId == id) {
                run.completed = true;
                run.result = std::move(result);
                return run;
            }
        }
        std::this_thread::sleep_for(1ms);
    }
    return run;
}

/** Open a session for @p spec, then drive it as driveThroughMux does. */
MuxRun
runThroughMux(SessionMux &mux, const SessionSpec &spec,
              const Trace &marked, std::size_t chunk_bytes)
{
    return driveThroughMux(mux, admit(mux, spec), marked, chunk_bytes);
}

std::string
tempSocketPath(const char *tag)
{
    return ::testing::TempDir() + "bfly_" + tag + "_" +
           std::to_string(::getpid()) + ".sock";
}

// ----------------------------------------------------------------- wire

TEST(Wire, PayloadsRoundTrip)
{
    SessionSpec spec;
    spec.lifeguard = 2;
    spec.memModel = 1;
    spec.numThreads = 7;
    spec.granularity = 4;
    spec.heapBase = 0x10000;
    spec.heapLimit = 0x90000;
    spec.globalH = 96;
    spec.windowEpochs = 6;
    spec.planFingerprint = 0x5157a71c00e11de5ull; // v4
    SessionSpec spec2;
    ASSERT_EQ(decodeSessionOpen(encodeSessionOpen(spec), spec2),
              DecodeStatus::Ok);
    EXPECT_EQ(spec2.lifeguard, spec.lifeguard);
    EXPECT_EQ(spec2.memModel, spec.memModel);
    EXPECT_EQ(spec2.numThreads, spec.numThreads);
    EXPECT_EQ(spec2.granularity, spec.granularity);
    EXPECT_EQ(spec2.heapBase, spec.heapBase);
    EXPECT_EQ(spec2.heapLimit, spec.heapLimit);
    EXPECT_EQ(spec2.globalH, spec.globalH);
    EXPECT_EQ(spec2.windowEpochs, spec.windowEpochs);
    EXPECT_EQ(spec2.planFingerprint, spec.planFingerprint);

    const std::vector<std::uint8_t> log = {1, 2, 3, 4, 5};
    ChunkHeader header{42, 3}, header2;
    std::span<const std::uint8_t> view;
    const auto chunk = encodeChunk(header, log);
    ASSERT_EQ(decodeChunk(chunk, header2, view), DecodeStatus::Ok);
    EXPECT_EQ(header2.seq, header.seq);
    EXPECT_EQ(header2.tid, header.tid);
    ASSERT_EQ(view.size(), log.size());
    EXPECT_TRUE(std::equal(view.begin(), view.end(), log.begin()));

    BusyInfo busy{BusyReason::GlobalBudget, 17, 8}, busy2;
    ASSERT_EQ(decodeBusy(encodeBusy(busy), busy2), DecodeStatus::Ok);
    EXPECT_EQ(busy2.reason, busy.reason);
    EXPECT_EQ(busy2.seq, busy.seq);
    EXPECT_EQ(busy2.retryMs, busy.retryMs);

    RejectInfo reject{RejectCode::CorruptLog, "bad bytes"}, reject2;
    ASSERT_EQ(decodeReject(encodeReject(reject), reject2),
              DecodeStatus::Ok);
    EXPECT_EQ(reject2.code, reject.code);
    EXPECT_EQ(reject2.message, reject.message);

    const std::vector<ErrorRecord> records = {
        {0, 12, 0x1000, ErrorKind::UnallocatedAccess, 8},
        {3, 99, 0xdeadbeef, ErrorKind::UninitializedRead, 4},
    };
    std::vector<ErrorRecord> records2;
    ASSERT_EQ(decodeErrorReport(encodeErrorReport(records), records2),
              DecodeStatus::Ok);
    ASSERT_EQ(records2.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records2[i].tid, records[i].tid);
        EXPECT_EQ(records2[i].index, records[i].index);
        EXPECT_EQ(records2[i].addr, records[i].addr);
        EXPECT_EQ(records2[i].size, records[i].size);
        EXPECT_EQ(records2[i].kind, records[i].kind);
    }

    const std::vector<Addr> sos = {0x1000, 0x2000, 0xffffffffffull};
    std::vector<Addr> sos2;
    ASSERT_EQ(decodeSos(encodeSos(sos), sos2), DecodeStatus::Ok);
    EXPECT_EQ(sos2, sos);

    SummaryInfo summary;
    summary.status = SummaryStatus::Partial;
    summary.epochs = 11;
    summary.events = 12345;
    summary.recordsTotal = 678;
    summary.sosTotal = 9;
    summary.busyCount = 3;
    summary.peakResidentEpochs = 4;
    summary.fingerprint = 0xabcdef0123456789ull;
    summary.planFingerprint = 0x5157a71c00e11de5ull; // v4 echo
    summary.summaryEvents = 4242;                    // v4
    SummaryInfo summary2;
    ASSERT_EQ(decodeSummary(encodeSummary(summary), summary2),
              DecodeStatus::Ok);
    EXPECT_EQ(summary2.status, summary.status);
    EXPECT_EQ(summary2.epochs, summary.epochs);
    EXPECT_EQ(summary2.events, summary.events);
    EXPECT_EQ(summary2.recordsTotal, summary.recordsTotal);
    EXPECT_EQ(summary2.sosTotal, summary.sosTotal);
    EXPECT_EQ(summary2.busyCount, summary.busyCount);
    EXPECT_EQ(summary2.peakResidentEpochs, summary.peakResidentEpochs);
    EXPECT_EQ(summary2.fingerprint, summary.fingerprint);
    EXPECT_EQ(summary2.planFingerprint, summary.planFingerprint);
    EXPECT_EQ(summary2.summaryEvents, summary.summaryEvents);

    std::uint64_t seq = 0;
    ASSERT_EQ(decodeTraceEnd(encodeTraceEnd(31337), seq),
              DecodeStatus::Ok);
    EXPECT_EQ(seq, 31337u);

    SessionAcceptInfo accept{77, 256 * 1024}, accept2;
    ASSERT_EQ(decodeSessionAccept(encodeSessionAccept(accept), accept2),
              DecodeStatus::Ok);
    EXPECT_EQ(accept2.sessionId, accept.sessionId);
    EXPECT_EQ(accept2.queueBytesHint, accept.queueBytesHint);
}

TEST(Wire, FrameParserReassemblesByteByByte)
{
    std::vector<std::uint8_t> stream;
    appendFrame(stream, FrameType::SessionOpen,
                encodeSessionOpen(SessionSpec{}));
    appendFrame(stream, FrameType::Heartbeat, {});
    appendFrame(stream, FrameType::TraceEnd, encodeTraceEnd(5));

    FrameParser parser;
    std::vector<Frame> frames;
    for (std::uint8_t byte : stream) {
        parser.feed({&byte, 1});
        Frame frame;
        while (parser.next(frame) == DecodeStatus::Ok)
            frames.push_back(frame);
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].type, FrameType::SessionOpen);
    EXPECT_EQ(frames[1].type, FrameType::Heartbeat);
    EXPECT_TRUE(frames[1].payload.empty());
    EXPECT_EQ(frames[2].type, FrameType::TraceEnd);
    EXPECT_EQ(parser.pendingBytes(), 0u);
}

TEST(Wire, FrameParserRejectsHostileHeaders)
{
    { // unknown frame type: sticky Corrupt
        FrameParser parser;
        const std::uint8_t bad[] = {0xFF, 1, 0, 0, 0, 7};
        parser.feed(bad);
        Frame frame;
        EXPECT_EQ(parser.next(frame), DecodeStatus::Corrupt);
        std::vector<std::uint8_t> good;
        appendFrame(good, FrameType::Heartbeat, {});
        parser.feed(good);
        EXPECT_EQ(parser.next(frame), DecodeStatus::Corrupt);
    }
    { // oversized length: Corrupt before any allocation of that size
        FrameParser parser;
        std::uint8_t bad[5];
        bad[0] = static_cast<std::uint8_t>(FrameType::LogChunk);
        const std::uint32_t huge = 0x7fffffff;
        std::memcpy(bad + 1, &huge, 4);
        parser.feed(bad);
        Frame frame;
        EXPECT_EQ(parser.next(frame), DecodeStatus::Corrupt);
    }
}

TEST(Wire, DecodersRejectTruncationAndTrailingGarbage)
{
    const auto payload = encodeSessionOpen(SessionSpec{});
    SessionSpec out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_NE(decodeSessionOpen({payload.data(), cut}, out),
                  DecodeStatus::Ok)
            << "truncated at " << cut;
    auto padded = payload;
    padded.push_back(0);
    EXPECT_EQ(decodeSessionOpen(padded, out), DecodeStatus::Corrupt);

    auto versioned = payload;
    versioned[0] = kWireVersion + 1; // version is the first byte
    EXPECT_EQ(decodeSessionOpen(versioned, out), DecodeStatus::Corrupt);

    // v3 frames lack the v4 planFingerprint tail; both ends must move
    // together, so the old version byte is rejected outright.
    versioned[0] = 3;
    EXPECT_EQ(decodeSessionOpen(versioned, out), DecodeStatus::Corrupt);
}

TEST(Wire, SummaryRejectsTruncationAndTrailingGarbage)
{
    // The Summary frame grew the v4 tail (plan fingerprint echo +
    // summary-event count); every proper prefix — including cuts inside
    // the new fields — must fail cleanly, as must trailing bytes.
    SummaryInfo info;
    info.status = SummaryStatus::Complete;
    info.epochs = 3;
    info.events = 999;
    info.fingerprint = 0x1111222233334444ull;
    info.planFingerprint = 0x5555666677778888ull;
    info.summaryEvents = 1234;
    const auto payload = encodeSummary(info);
    SummaryInfo out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_NE(decodeSummary({payload.data(), cut}, out),
                  DecodeStatus::Ok)
            << "truncated at " << cut;
    auto padded = payload;
    padded.push_back(0);
    EXPECT_EQ(decodeSummary(padded, out), DecodeStatus::Corrupt);
    ASSERT_EQ(decodeSummary(payload, out), DecodeStatus::Ok);
    EXPECT_EQ(out.planFingerprint, info.planFingerprint);
    EXPECT_EQ(out.summaryEvents, info.summaryEvents);
}

// ------------------------------------------------------------------- mux

TEST(SessionMuxTest, ShedsWhenSessionQueueIsFull)
{
    WorkerPool pool(2);
    MuxConfig config;
    config.sessionQueueBytes = 64;
    config.debugPumpDelayMs = 5; // slow consumer: shedding is guaranteed
    config.busyRetryMs = 1;
    SessionMux mux(pool, config, [] {});

    const Addr heap = 0x100000;
    const Trace marked = makeMarkedTrace(2, 6, 40, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);

    const MuxRun run = runThroughMux(mux, spec, marked, 48);
    ASSERT_TRUE(run.completed);
    ASSERT_FALSE(run.result.failed) << run.result.reject.message;
    EXPECT_GE(run.busyCount, 1u) << "queue never filled: test is vacuous";
    for (BusyReason reason : run.busyReasons)
        EXPECT_EQ(reason, BusyReason::SessionQueueFull);
    EXPECT_TRUE(run.result.report.identical(reference))
        << "shedding changed the analysis result";
    EXPECT_EQ(mux.globalBytes(), 0u) << "budget leaked";
    EXPECT_EQ(mux.activeSessions(), 0u);
}

TEST(SessionMuxTest, GlobalBudgetShedsOnlyWhenOthersHoldBytes)
{
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 1;
    // Each open session holds its state charge; the byte figures below
    // are on top of it.
    const std::size_t state = SessionMux::sessionStateBytes(spec);

    WorkerPool pool(2);
    MuxConfig config;
    config.sessionQueueBytes = 1 << 20;
    config.globalBudgetBytes = 2 * state + 4096;
    config.maxSessionBytes = state + 4096;
    config.debugPumpDelayMs = 200; // park tenant A's bytes in the queue
    SessionMux mux(pool, config, [] {});

    const std::vector<std::uint8_t> big(3500, 0x00); // Nop opcodes
    const std::vector<std::uint8_t> small(1000, 0x00);

    const std::uint64_t a = admit(mux, spec);
    const std::uint64_t b = admit(mux, spec);

    BusyInfo busy;
    RejectInfo reject;
    ASSERT_EQ(mux.submitChunk(a, {0, 0}, big, busy, reject),
              Admission::Accepted);

    // Tenant B is squeezed by A's queued bytes: transient Busy.
    ASSERT_EQ(mux.submitChunk(b, {0, 0}, small, busy, reject),
              Admission::Busy);
    EXPECT_EQ(busy.reason, BusyReason::GlobalBudget);
    EXPECT_EQ(busy.seq, 0u);

    // Tenant A alone would exceed the budget: permanent reject.
    ASSERT_EQ(mux.submitChunk(a, {1, 0}, small, busy, reject),
              Admission::Rejected);
    EXPECT_EQ(reject.code, RejectCode::TooLarge);

    mux.abort(b);
    // A failed, B aborted: the budget must drain to zero once the pump
    // notices (A's queued bytes were already released by the reject).
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (mux.globalBytes() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(SessionMuxTest, RejectsChunkBeyondSessionCap)
{
    SessionSpec spec;
    spec.numThreads = 1;

    WorkerPool pool(1);
    MuxConfig config;
    config.maxSessionBytes = SessionMux::sessionStateBytes(spec) + 256;
    SessionMux mux(pool, config, [] {});

    const std::uint64_t id = admit(mux, spec);
    const std::vector<std::uint8_t> oversized(300, 0x00);
    BusyInfo busy;
    RejectInfo reject;
    ASSERT_EQ(mux.submitChunk(id, {0, 0}, oversized, busy, reject),
              Admission::Rejected);
    EXPECT_EQ(reject.code, RejectCode::TooLarge);
    EXPECT_EQ(mux.activeSessions(), 0u);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(SessionMuxTest, RejectsOutOfRangeTidAndIgnoresOutOfSequence)
{
    WorkerPool pool(1);
    SessionMux mux(pool, MuxConfig{}, [] {});
    SessionSpec spec;
    spec.numThreads = 2;
    const std::uint64_t id = admit(mux, spec);
    const std::vector<std::uint8_t> bytes(8, 0x00);
    BusyInfo busy;
    RejectInfo reject;
    EXPECT_EQ(mux.submitChunk(id, {5, 0}, bytes, busy, reject),
              Admission::Ignored); // seq 5 != expected 0
    EXPECT_EQ(mux.submitChunk(id, {0, 7}, bytes, busy, reject),
              Admission::Rejected); // tid 7 >= numThreads 2
    EXPECT_EQ(reject.code, RejectCode::Protocol);
}

TEST(SessionMuxTest, ChargesDecodedEventsAtPinnedEventSize)
{
    // Satellite: the admission math (maxSessionBytes, globalBudgetBytes)
    // assumes every decoded event costs exactly sizeof(Event) == 40
    // bytes; the static_assert in session_mux.cpp pins the layout. Feed
    // a known trace without TraceEnd and check the steady-state charge.
    WorkerPool pool(2);
    SessionMux mux(pool, MuxConfig{}, [] {});

    const Addr heap = 0x400000;
    const Trace marked = makeMarkedTrace(1, 2, 16, heap);
    std::uint64_t total_events = 0;
    for (const ThreadTrace &t : marked.threads)
        total_events += t.events.size();
    ASSERT_GT(total_events, 0u);

    const SessionSpec spec = addrcheckSpec(marked, heap);
    const std::uint64_t id = admit(mux, spec);
    const auto items = chunkItems(marked, 64);
    BusyInfo busy;
    RejectInfo reject;
    for (std::uint64_t i = 0; i < items.size(); ++i)
        ASSERT_EQ(mux.submitChunk(id, {i, items[i].first},
                                  items[i].second, busy, reject),
                  Admission::Accepted);

    // Once the pump drains, the queued-bytes charge has been fully
    // converted into the decoded-event charge: 40 bytes per event, for
    // heartbeats and allocs just like loads and stores, on top of the
    // state charge the session has held since open().
    const std::size_t state = SessionMux::sessionStateBytes(spec);
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (mux.globalBytes() != state + total_events * sizeof(Event) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(mux.globalBytes(), state + total_events * 40u);

    // Completing the session releases the whole charge.
    ASSERT_EQ(mux.submitTraceEnd(id, items.size(), busy, reject),
              Admission::Accepted);
    bool completed = false;
    while (!completed && std::chrono::steady_clock::now() < deadline) {
        for (SessionResult &result : mux.drainCompleted())
            if (result.sessionId == id) {
                completed = true;
                EXPECT_FALSE(result.failed);
            }
        std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(completed);
    EXPECT_EQ(mux.globalBytes(), 0u) << "budget leaked on completion";
}

TEST(SessionMuxTest, ReportIsIndependentOfChunkBoundaries)
{
    // Chunks split the encoded logs at arbitrary bytes, mid-event
    // included; the pump must reassemble the same events, so the report
    // equals the reference for any chunk size, and every byte charged
    // while buffering is returned on completion.
    const Addr heap = 0x400000;
    const Trace marked = makeMarkedTrace(3, 5, 36, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);
    ASSERT_FALSE(reference.records.empty());

    WorkerPool pool(2);
    SessionMux mux(pool, MuxConfig{}, [] {});
    for (const std::size_t chunk_bytes : {1u, 7u, 64u, 4096u}) {
        SCOPED_TRACE(chunk_bytes);
        const MuxRun run = runThroughMux(mux, spec, marked, chunk_bytes);
        ASSERT_TRUE(run.completed);
        ASSERT_FALSE(run.result.failed) << run.result.reject.message;
        EXPECT_TRUE(run.result.report.identical(reference));
        EXPECT_EQ(mux.globalBytes(), 0u) << "budget leaked";
    }
    EXPECT_EQ(mux.activeSessions(), 0u);
}

// ---------------------------------------------------------------- loopback

TEST(MonitorService, LoopbackConformanceAcrossLifeguards)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("conf");
    scfg.workers = 4;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    fuzz::FuzzerConfig fcfg;
    fcfg.seed = 20260805;
    fuzz::TraceFuzzer fuzzer(fcfg);
    for (int i = 0; i < 24; ++i) {
        const fuzz::FuzzCase fuzz_case = fuzzer.next();
        const Trace trace = fuzz_case.materialize();
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);

        const SessionSpec spec = fuzzSpec(fuzz_case, trace, roundRobin(i));
        const RemoteReport local = analyzeReference(spec, trace, layout);
        const Trace marked = withHeartbeatMarkers(trace, layout);

        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok)
            << "case " << fuzz_case.caseId << ": " << remote.error;
        EXPECT_TRUE(remote.report.identical(local))
            << "case " << fuzz_case.caseId << " ("
            << fuzz_case.scenario << ", lifeguard "
            << unsigned(spec.lifeguard) << ") diverged";
    }
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
    EXPECT_EQ(server.sessionsCompleted(), 24u);
}

TEST(MonitorService, ElidedSessionEchoesPlanFingerprintAndCounts)
{
    // v4 end to end: a client that ran the static elision pre-pass
    // declares its plan fingerprint in SessionOpen and streams a log
    // containing SiteSummary events. The server must analyze the
    // summarized log identically to the local reference, echo the
    // fingerprint in the Summary frame, and account the summaries it
    // decoded.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("elide");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    // Two threads, each with a private alloc-covered block: every
    // read/write is provably invisible to the lifeguards and elides.
    Trace trace;
    trace.threads.resize(2);
    std::uint64_t g = 0;
    auto push = [&](std::size_t t, Event e) {
        e.gseq = ++g;
        trace.threads[t].tid = static_cast<ThreadId>(t);
        trace.threads[t].events.push_back(e);
    };
    for (std::size_t t = 0; t < 2; ++t) {
        const Addr base = 0x10000 + 0x10000 * t;
        push(t, Event::alloc(base, 64));
        for (int i = 0; i < 8; ++i)
            push(t, Event::write(base + 8 * i, 8));
        for (int i = 0; i < 8; ++i)
            push(t, Event::read(base + 8 * i, 8));
    }

    staticpass::SiteTable sites;
    const staticpass::ElisionPlan plan =
        staticpass::buildElisionPlan(trace, sites);
    staticpass::ElisionStats stats;
    const Trace elided = staticpass::applyElisionPlan(trace, plan,
                                                      &stats);
    ASSERT_EQ(stats.elidedEvents, 32u); // all 16 R + 16 W per program
    ASSERT_GT(stats.summaryEvents, 0u);
    ASSERT_NE(plan.fingerprint(), 0u);

    const EpochLayout layout = EpochLayout::byGlobalSeq(elided, 16);
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 2;
    spec.granularity = 8;
    spec.heapBase = 0x10000;
    spec.heapLimit = 0x30000;
    spec.planFingerprint = plan.fingerprint();

    const RemoteReport local = analyzeReference(spec, elided, layout);
    const Trace marked = withHeartbeatMarkers(elided, layout);

    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_TRUE(remote.report.identical(local));
    EXPECT_GT(remote.logBytesSent, 0u);
    EXPECT_EQ(remote.summary.planFingerprint, plan.fingerprint());
    EXPECT_EQ(remote.summary.summaryEvents, stats.summaryEvents);

    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), 1u);
    EXPECT_EQ(server.elisionSessions(), 1u);
    EXPECT_EQ(server.summaryEventsSeen(), stats.summaryEvents);
}

TEST(MonitorService, AccessEndingAtTheTopOfTheAddressSpaceGetsASummary)
{
    // Granularity 1 and a heap window reaching 2^64 - 1 are both valid
    // SessionOpen values. An 8-byte Write at 2^64 - 8 ends on the top
    // byte, where a `k <= last` key loop never ends.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("topaddr");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    Trace trace;
    trace.threads.resize(1);
    Event write = Event::write(kNoAddr - 7, 8);
    write.gseq = 1;
    trace.threads[0].events.push_back(write);

    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 1;
    spec.granularity = 1;
    spec.heapBase = kNoAddr - 0xffff;
    spec.heapLimit = kNoAddr;

    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 16);
    const RemoteReport local = analyzeReference(spec, trace, layout);
    ASSERT_EQ(local.records.size(), 1u); // the write hits no allocation
    EXPECT_EQ(local.records[0].addr, kNoAddr - 7);

    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote =
        client.run(spec, withHeartbeatMarkers(trace, layout));
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.summary.status, SummaryStatus::Complete);
    EXPECT_TRUE(remote.report.identical(local));

    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), 1u);
}

TEST(MonitorService, ConcurrentSessionsConform)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("conc");
    scfg.workers = 4;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    constexpr int kThreads = 8;
    constexpr int kTracesPerThread = 3;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};

    std::vector<std::thread> threads;
    // One long session beside the fuzz cases, sharing the pool with
    // them.
    threads.emplace_back([&] {
        const Addr heap = 0x500000;
        const Trace marked = makeMarkedTrace(4, 8, 257, heap);
        const SessionSpec spec = addrcheckSpec(marked, heap);
        MonitorClient client;
        if (!client.connectUnix(scfg.unixPath)) {
            failures.fetch_add(1);
            return;
        }
        const RunResult remote = client.run(spec, marked);
        if (!remote.ok)
            failures.fetch_add(1);
        else if (!remote.report.identical(referenceFor(spec, marked)))
            mismatches.fetch_add(1);
    });
    for (int w = 0; w < kThreads; ++w) {
        threads.emplace_back([&, w] {
            fuzz::FuzzerConfig fcfg;
            fcfg.seed = 7000 + w;
            fuzz::TraceFuzzer fuzzer(fcfg);
            for (int i = 0; i < kTracesPerThread; ++i) {
                const fuzz::FuzzCase fuzz_case = fuzzer.next();
                const Trace trace = fuzz_case.materialize();
                const EpochLayout layout =
                    EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);
                const SessionSpec spec =
                    fuzzSpec(fuzz_case, trace, roundRobin(w + i));
                const RemoteReport local =
                    analyzeReference(spec, trace, layout);
                const Trace marked =
                    withHeartbeatMarkers(trace, layout);
                MonitorClient client;
                if (!client.connectUnix(scfg.unixPath)) {
                    failures.fetch_add(1);
                    continue;
                }
                const RunResult remote = client.run(spec, marked);
                if (!remote.ok)
                    failures.fetch_add(1);
                else if (!remote.report.identical(local))
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    server.stop();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(server.sessionsCompleted(),
              static_cast<std::uint64_t>(kThreads * kTracesPerThread + 1));
}

namespace {

/** Crash-restart durability: each marked trace is spooled to a .bfz
 *  log file before it is sent. After the server "crashes" (stop, all
 *  in-memory state discarded) a fresh server on the same path must
 *  reproduce a bit-identical report — same records, SOS, and summary
 *  fingerprint — from the reloaded spool, across all six lifeguards. */
void
runCrashRestartSpoolReplay(const char *tag)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath(tag);
    scfg.workers = 2;

    fuzz::FuzzerConfig fcfg;
    fcfg.seed = 20260808;
    fuzz::TraceFuzzer fuzzer(fcfg);

    struct Spooled
    {
        std::string path;
        SessionSpec spec;
        RemoteReport report;
        std::uint64_t fingerprint = 0;
    };
    std::vector<Spooled> spool;

    {
        MonitorServer server(scfg);
        ASSERT_TRUE(server.start());
        for (int i = 0; i < 12; ++i) {
            const fuzz::FuzzCase fuzz_case = fuzzer.next();
            const Trace trace = fuzz_case.materialize();
            const EpochLayout layout =
                EpochLayout::byGlobalSeq(trace, fuzz_case.globalH);

            Spooled s;
            s.spec = fuzzSpec(fuzz_case, trace, roundRobin(i));

            const Trace marked = withHeartbeatMarkers(trace, layout);
            s.path = ::testing::TempDir() + "bfly_spool_" + tag + "_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(i) + ".bfz";
            ASSERT_TRUE(saveTrace(marked, s.path));

            MonitorClient client;
            ASSERT_TRUE(client.connectUnix(scfg.unixPath));
            const RunResult remote = client.run(s.spec, marked);
            ASSERT_TRUE(remote.ok)
                << "case " << fuzz_case.caseId << ": " << remote.error;
            s.report = remote.report;
            s.fingerprint = remote.summary.fingerprint;
            spool.push_back(std::move(s));
        }
        server.stop(); // the crash: every in-memory session is gone
    }

    // The spool survives the crash. The codec drops gseq (a stored log
    // has no global order), but the heartbeat markers carry the epoch
    // structure, so the replay slices identically by construction.
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());
    for (const Spooled &s : spool) {
        const Trace replay = loadTrace(s.path);
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(s.spec, replay);
        ASSERT_TRUE(remote.ok) << s.path << ": " << remote.error;
        EXPECT_EQ(remote.summary.fingerprint, s.fingerprint) << s.path;
        EXPECT_TRUE(remote.report.identical(s.report))
            << s.path << " replay diverged after restart";
        std::remove(s.path.c_str());
    }
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
}

} // namespace

TEST(MonitorService, CrashRestartSpoolReplayKeepsFingerprint)
{
    runCrashRestartSpoolReplay("crash");
}

TEST(MonitorService, ShedsUnderBackPressureAndStillConforms)
{
    // Satellite: EpochStream back-pressure under service load. A slow
    // pump plus a tiny ingest queue forces Busy sheds; the client's
    // go-back-N rewind must deliver a byte-identical report anyway.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("bp");
    scfg.workers = 2;
    scfg.mux.sessionQueueBytes = 512;
    scfg.mux.debugPumpDelayMs = 2;
    scfg.mux.busyRetryMs = 1;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x200000;
    const Trace marked = makeMarkedTrace(2, 8, 60, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);

    ClientConfig ccfg;
    ccfg.chunkBytes = 256; // many small chunks overrun the 512B queue
    MonitorClient client(ccfg);
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_GE(remote.busyRetries, 1u)
        << "server never shed: back-pressure untested";
    EXPECT_EQ(remote.summary.busyCount, remote.busyRetries);
    EXPECT_TRUE(remote.report.identical(reference))
        << "go-back-N replay diverged from the reference";
    server.stop();
    EXPECT_GE(server.busySent(), 1u);
    EXPECT_EQ(server.globalBytes(), 0u) << "budget leaked";
}

TEST(MonitorService, SessionTelemetryIsIsolatedPerSession)
{
    telemetry::setEnabled(true);
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("tel");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x300000;
    const Trace big = makeMarkedTrace(2, 8, 50, heap);
    const Trace small = makeMarkedTrace(1, 2, 10, heap);

    auto runOne = [&](const Trace &marked) {
        const SessionSpec spec = addrcheckSpec(marked, heap);
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok) << remote.error;
    };
    auto totalEvents = [](const Trace &marked) {
        std::uint64_t n = 0;
        for (const ThreadTrace &t : marked.threads)
            n += t.events.size();
        return n;
    };

    runOne(big);
    runOne(small);
    // The last completed session's registry holds *only* that session's
    // counts — a shared registry would show big+small accumulated.
    const telemetry::RegistrySnapshot snapshot =
        server.lastSessionMetrics();
    EXPECT_EQ(snapshot.value("bfly.service.session.events"),
              totalEvents(small));
    EXPECT_LT(snapshot.value("bfly.service.session.events"),
              totalEvents(big));
    EXPECT_GT(snapshot.value("bfly.service.session.chunks"), 0u);
    server.stop();
}

TEST(MonitorService, SessionCountsTheEventsItsStreamCopies)
{
    // A session's epoch stream views the decoded trace; only an adaptive
    // session's coalesced blocks, which straddle the markers they merge,
    // are copied, and the session registry counts those events.
    telemetry::setEnabled(true);
    const Addr heap = 0x380000;
    const Trace marked = makeMarkedTrace(2, 24, 20, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    for (const bool adaptive : {false, true}) {
        ServerConfig scfg;
        scfg.unixPath = tempSocketPath(adaptive ? "copy-ad" : "copy");
        scfg.workers = 2;
        scfg.mux.adaptive = adaptive;
        scfg.mux.adaptiveForceCycle = adaptive; // widths 1→2→4→8
        MonitorServer server(scfg);
        ASSERT_TRUE(server.start());
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok) << remote.error;
        const std::uint64_t copied = server.lastSessionMetrics().value(
            "bfly.service.session.copied_events");
        if (adaptive)
            EXPECT_GT(copied, 0u);
        else
            EXPECT_EQ(copied, 0u);
        server.stop();
    }
    telemetry::setEnabled(false);
}

TEST(MonitorService, SlowClientGetsTruncatedReportWithPartialStatus)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("partial");
    scfg.workers = 2;
    scfg.maxOutboundBytes = 4096; // one big ErrorReport cannot fit
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    // ~1500 records encode to well over the outbound cap.
    const Addr heap = 0x400000;
    const Trace marked = makeMarkedTrace(1, 6, 500, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const RemoteReport reference = referenceFor(spec, marked);
    ASSERT_GT(reference.records.size(), 1000u);

    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_EQ(remote.summary.status, SummaryStatus::Partial);
    EXPECT_EQ(remote.summary.recordsTotal, reference.records.size())
        << "Summary must report the true total even when truncated";
    EXPECT_LT(remote.report.records.size(), reference.records.size());
    EXPECT_EQ(remote.summary.fingerprint, reference.fingerprint)
        << "the fingerprint still witnesses the full report";
    server.stop();
    EXPECT_EQ(server.partialReports(), 1u);
}

// ---------------------------------------------------------------- adaptive

TEST(Wire, EpochHintRoundTripChainsAcrossFrames)
{
    EpochHintInfo first;
    first.effectiveH = 8;
    first.spans = {1, 2, 4, 8, 1};
    EpochHintInfo out;
    ASSERT_EQ(decodeEpochHint(encodeEpochHint(first), out),
              DecodeStatus::Ok);
    EXPECT_EQ(out.effectiveH, 8u);
    EXPECT_EQ(out.spans, first.spans);

    // A session's spans may be split over several frames; the decoder
    // appends, so chaining is just calling it again with the same out.
    EpochHintInfo second;
    second.effectiveH = 8;
    second.spans = {2, 2};
    ASSERT_EQ(decodeEpochHint(encodeEpochHint(second), out),
              DecodeStatus::Ok);
    const std::vector<std::uint32_t> chained = {1, 2, 4, 8, 1, 2, 2};
    EXPECT_EQ(out.spans, chained);
}

TEST(Wire, EpochHintRejectsHostileSpans)
{
    EpochHintInfo out;

    // A span of zero source epochs is meaningless (spans partition the
    // marker epochs): hand-rolled varints {effectiveH=1, count=1, k=0}.
    const std::uint8_t zero_span[] = {0x01, 0x01, 0x00};
    EXPECT_EQ(decodeEpochHint(zero_span, out), DecodeStatus::Corrupt);

    // A single span claiming an absurd merge width.
    EpochHintInfo absurd;
    absurd.spans = {(1u << 20) + 1};
    EXPECT_EQ(decodeEpochHint(encodeEpochHint(absurd), out),
              DecodeStatus::Corrupt);

    // A count beyond the per-frame bound, before any spans follow.
    const std::uint8_t huge_count[] = {0x01, 0x81, 0x80, 0x04};
    EXPECT_EQ(decodeEpochHint(huge_count, out), DecodeStatus::Corrupt);

    // Truncation anywhere must not decode cleanly.
    EpochHintInfo valid;
    valid.effectiveH = 4;
    valid.spans = {1, 4, 2};
    const auto payload = encodeEpochHint(valid);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
        EpochHintInfo partial;
        EXPECT_NE(decodeEpochHint({payload.data(), cut}, partial),
                  DecodeStatus::Ok)
            << "truncated at " << cut;
    }

    // Overload joined the reject codes with the graduated ladder.
    RejectInfo overload{RejectCode::Overload, "server shedding load"};
    RejectInfo overload2;
    ASSERT_EQ(decodeReject(encodeReject(overload), overload2),
              DecodeStatus::Ok);
    EXPECT_EQ(overload2.code, RejectCode::Overload);
    EXPECT_EQ(overload2.message, overload.message);
}

TEST(SessionMuxTest, AdaptiveLadderShedsNewSessionsAndRecovers)
{
    WorkerPool pool(2);
    MuxConfig config;
    config.adaptive = true;
    config.sessionQueueBytes = 256;
    config.debugPumpDelayMs = 200; // park queued bytes: samples stay hot
    config.busyRetryMs = 0;
    config.controller.upThreshold = 0.5;
    config.controller.downThreshold = 0.4;
    config.controller.escalateAfter = 1; // every hot sample climbs
    config.controller.recoverAfter = 1;  // every cool sample descends
    SessionMux mux(pool, config, [] {});

    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
    spec.numThreads = 1;
    const std::uint64_t id = admit(mux, spec);
    EXPECT_FALSE(mux.shedNewSessions());

    // Each in-sequence submission is one ladder sample; with the queue
    // parked over the hot threshold the ladder climbs one rung per
    // attempt (Busy verdicts resubmit the same seq, as go-back-N does).
    const std::vector<std::uint8_t> chunk(200, 0x00); // Nop opcodes
    BusyInfo busy;
    RejectInfo reject;
    std::uint64_t seq = 0;
    for (int i = 0; i < 32 && !mux.shedNewSessions(); ++i) {
        const Admission verdict =
            mux.submitChunk(id, {seq, 0}, chunk, busy, reject);
        ASSERT_NE(verdict, Admission::Rejected) << reject.message;
        if (verdict == Admission::Accepted)
            ++seq;
    }
    EXPECT_TRUE(mux.shedNewSessions());
    EXPECT_EQ(mux.degradeLevel(), DegradeLevel::Shed);

    // The abusive tenant goes away and its bytes are reclaimed. No
    // admission samples can arrive anymore — without the reactor tick
    // the mux would refuse sessions forever.
    mux.abort(id);
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (mux.globalBytes() > 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    ASSERT_EQ(mux.globalBytes(), 0u);

    while ((mux.shedNewSessions() ||
            mux.degradeLevel() != DegradeLevel::Normal) &&
           std::chrono::steady_clock::now() < deadline) {
        mux.tickController(); // rate-limited to one sample / 100ms
        std::this_thread::sleep_for(5ms);
    }
    EXPECT_FALSE(mux.shedNewSessions());
    EXPECT_EQ(mux.degradeLevel(), DegradeLevel::Normal)
        << "idle ticks never walked the ladder back down";
}

TEST(MonitorService, AdaptiveServerConformsAcrossForcedHChanges)
{
    // Tentpole conformance, loopback edition: a force-cycled adaptive
    // server changes the realized epoch width several times per session
    // and advertises the slicing in EpochHint frames; rebuilding that
    // layout locally must reproduce the report bit for bit.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("adaptive");
    scfg.workers = 4;
    scfg.mux.adaptive = true;
    scfg.mux.adaptiveForceCycle = true; // widths 1→2→4→8 per group
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x500000;
    const Trace marked = makeMarkedTrace(2, 24, 20, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const std::size_t source_epochs =
        EpochLayout::fromHeartbeats(marked).numEpochs();

    for (int i = 0; i < 6; ++i) {
        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const RunResult remote = client.run(spec, marked);
        ASSERT_TRUE(remote.ok) << remote.error;

        ASSERT_FALSE(remote.epochSpans.empty())
            << "adaptive server sent no EpochHint";
        std::size_t covered = 0;
        for (const std::uint32_t k : remote.epochSpans)
            covered += k;
        ASSERT_EQ(covered, source_epochs)
            << "advertised spans do not partition the marker epochs";
        EXPECT_GE(remote.hChanges(), 3u);
        EXPECT_EQ(remote.effectiveH, 8u);
        EXPECT_EQ(remote.report.epochs, remote.epochSpans.size());

        const RemoteReport reference = analyzeReference(
            spec, marked,
            EpochLayout::coalescedFromHeartbeats(marked,
                                                 remote.epochSpans));
        EXPECT_TRUE(remote.report.identical(reference))
            << "session " << i << " diverged across h-changes";
    }
    server.stop();
    EXPECT_EQ(server.sessionsFailed(), 0u);
    EXPECT_EQ(server.sessionsCompleted(), 6u);
    EXPECT_GE(server.hintEchoes(), 1u)
        << "no client echo ever reached the server";
}

TEST(MonitorService, SaturatedAdaptiveServerTurnsAwayNewSessions)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("shed");
    scfg.workers = 2;
    scfg.mux.adaptive = true;
    scfg.mux.sessionQueueBytes = 256;
    scfg.mux.debugPumpDelayMs = 100;
    scfg.mux.busyRetryMs = 1;
    scfg.mux.controller.upThreshold = 0.5;
    scfg.mux.controller.escalateAfter = 1;
    scfg.mux.controller.recoverAfter = 1 << 20; // pin Shed for the test
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    // Sacrificial tenant: a small queue plus a slow pump makes every
    // go-back-N retry a hot ladder sample, so the server escalates to
    // Shed while the client burns its (tiny) Busy retry allowance.
    const Addr heap = 0x600000;
    const Trace big = makeMarkedTrace(2, 8, 60, heap);
    ClientConfig ccfg;
    ccfg.chunkBytes = 200;
    ccfg.maxBusyRetries = 40;
    {
        MonitorClient hog(ccfg);
        ASSERT_TRUE(hog.connectUnix(scfg.unixPath));
        const RunResult res = hog.run(addrcheckSpec(big, heap), big);
        EXPECT_FALSE(res.ok) << "hog was supposed to give up on Busy";
    }

    // A fresh tenant is refused at the door with Overload, and the
    // client surfaces retry-later semantics, not a protocol failure.
    const Trace small = makeMarkedTrace(1, 2, 10, heap);
    MonitorClient late;
    ASSERT_TRUE(late.connectUnix(scfg.unixPath));
    const RunResult refused = late.run(addrcheckSpec(small, heap), small);
    EXPECT_FALSE(refused.ok);
    EXPECT_TRUE(refused.overloaded) << refused.error;

    EXPECT_EQ(server.degradeLevel(), DegradeLevel::Shed);
    server.stop();
    EXPECT_GE(server.sessionsShed(), 1u);
    EXPECT_GE(server.busySent(), 1u);
}

/** Send @p bytes on a raw connection to @p path, then return every
 *  frame the server sends until it closes the connection. */
std::vector<Frame>
rawExchange(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    // A server that never closes fails the test instead of hanging it.
    const timeval patience{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof(patience));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));

    FrameParser parser;
    std::vector<Frame> frames;
    std::uint8_t buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        parser.feed({buf, static_cast<std::size_t>(n)});
        Frame frame;
        while (parser.next(frame) == DecodeStatus::Ok)
            frames.push_back(std::move(frame));
    }
    ::close(fd);
    return frames;
}

/** Send @p bytes on a raw connection to @p path and decode the server's
 *  first reply, which the caller expects to be a Reject. */
RejectInfo
rejectionOf(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    const std::vector<Frame> frames = rawExchange(path, bytes);
    RejectInfo reject;
    EXPECT_FALSE(frames.empty());
    if (!frames.empty()) {
        EXPECT_EQ(frames[0].type, FrameType::Reject);
        EXPECT_EQ(decodeReject(frames[0].payload, reject), DecodeStatus::Ok);
    }
    return reject;
}

TEST(MonitorService, GarbageBytesAreRejectedWithProtocolError)
{
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("garbage");
    scfg.workers = 1;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe,
                                               0xef, 0x00, 0x01};
    EXPECT_EQ(rejectionOf(scfg.unixPath, garbage).code,
              RejectCode::Protocol);
    server.stop();
}

TEST(MonitorService, UnregisteredLifeguardIsRejectedWithProtocolError)
{
    // A well-formed SessionOpen naming a lifeguard byte past the
    // registry must be refused at the door, never reach the analyzer.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("badlg");
    scfg.workers = 1;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    for (const std::uint8_t id : {std::uint8_t{6}, std::uint8_t{255}}) {
        SessionSpec spec;
        spec.lifeguard = id;
        std::vector<std::uint8_t> bytes;
        appendFrame(bytes, FrameType::SessionOpen, encodeSessionOpen(spec));
        EXPECT_EQ(rejectionOf(scfg.unixPath, bytes).code,
                  RejectCode::Protocol)
            << "lifeguard byte " << unsigned(id);
    }
    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), 0u);
}

TEST(MonitorService, IdleTimeoutSparesAClientWaitingForItsReport)
{
    // Decoding 64-byte chunks at 100 ms each takes far longer than the
    // 150 ms idle timeout. A client that has sent TraceEnd is waiting
    // on the server, not idle, and must get its report.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("idlewait");
    scfg.workers = 2;
    scfg.idleTimeoutMs = 150;
    scfg.mux.debugPumpDelayMs = 100;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x100000;
    const Trace marked = makeMarkedTrace(2, 4, 30, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    ClientConfig ccfg;
    ccfg.chunkBytes = 64;
    MonitorClient client(ccfg);
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, marked);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_TRUE(remote.report.identical(referenceFor(spec, marked)));
    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), 1u);
    EXPECT_EQ(server.sessionsFailed(), 0u);
}

TEST(MonitorService, SilentClientTimesOutAndItsBytesAreFreed)
{
    // A client that opens a session, sends part of its log and goes
    // silent is rejected with Timeout, and its session's budget charge
    // (state plus the queued chunk) is returned.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("idle");
    scfg.workers = 1;
    scfg.idleTimeoutMs = 150;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    const Addr heap = 0x100000;
    const Trace marked = makeMarkedTrace(2, 4, 30, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const auto items = chunkItems(marked, 64);
    std::vector<std::uint8_t> bytes;
    appendFrame(bytes, FrameType::SessionOpen, encodeSessionOpen(spec));
    appendFrame(bytes, FrameType::LogChunk,
                encodeChunk({0, items[0].first}, items[0].second));

    const std::vector<Frame> frames = rawExchange(scfg.unixPath, bytes);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, FrameType::SessionAccept);
    ASSERT_EQ(frames[1].type, FrameType::Reject);
    RejectInfo reject;
    ASSERT_EQ(decodeReject(frames[1].payload, reject), DecodeStatus::Ok);
    EXPECT_EQ(reject.code, RejectCode::Timeout) << reject.message;

    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while ((server.globalBytes() > 0 || server.activeSessions() > 0) &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(server.globalBytes(), 0u) << "budget leaked";
    EXPECT_EQ(server.activeSessions(), 0u);
    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), 0u);
}

/** This process's peak resident set (VmHWM), in bytes. */
std::size_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    return 0;
}

TEST(SessionMuxTest, OpenHoldsTheStateChargeUntilTheSessionEnds)
{
    WorkerPool pool(1);
    SessionMux mux(pool, MuxConfig{}, [] {});

    SessionSpec wide;
    wide.numThreads = 70;
    const std::uint64_t id = admit(mux, wide);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(mux.globalBytes(), SessionMux::sessionStateBytes(wide));
    mux.abort(id);
    EXPECT_EQ(mux.globalBytes(), 0u);

    // Past maxSessionBytes, or past kMaxSessionThreads however small its
    // charge, the open is refused before anything is sized by the
    // thread count, and nothing is charged.
    SessionSpec hostile;
    hostile.numThreads = 1u << 16;
    hostile.windowEpochs = 1024;
    EXPECT_GT(SessionMux::sessionStateBytes(hostile),
              MuxConfig{}.maxSessionBytes);
    SessionSpec too_wide;
    too_wide.numThreads = SessionMux::kMaxSessionThreads + 1;
    EXPECT_LT(SessionMux::sessionStateBytes(too_wide),
              MuxConfig{}.maxSessionBytes);
    for (const SessionSpec &spec : {hostile, too_wide}) {
        RejectInfo reject;
        EXPECT_EQ(mux.open(spec, reject), 0u);
        EXPECT_EQ(reject.code, RejectCode::TooLarge);
    }
    EXPECT_EQ(mux.globalBytes(), 0u);
    EXPECT_EQ(mux.activeSessions(), 0u);

    wide.numThreads = SessionMux::kMaxSessionThreads;
    mux.abort(admit(mux, wide));
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(SessionMuxTest, OpensNeverOverCommitTheBudget)
{
    // A session holds its state charge until it ends, and its chunks
    // are shed with Busy while other tenants hold the budget. Were
    // opens to charge past the budget, no session could get a chunk
    // in, and none would end to release its charge.
    const Addr heap = 0x400000;
    const Trace marked = makeMarkedTrace(64, 2, 4, heap);
    const SessionSpec spec = addrcheckSpec(marked, heap);
    const std::size_t state = SessionMux::sessionStateBytes(spec);
    // One trace's bytes in flight: its raw chunks and decoded events.
    std::size_t in_flight = 0;
    for (const auto &item : chunkItems(marked, 64))
        in_flight += item.second.size();
    for (const ThreadTrace &t : marked.threads)
        in_flight += SessionMux::decodedEventBytes(t.events.size());
    ASSERT_LT(in_flight, state / 2);

    WorkerPool pool(2);
    MuxConfig config;
    // Three sessions' charges and room for one trace in flight.
    config.globalBudgetBytes = 3 * state + state / 2;
    SessionMux mux(pool, config, [] {});

    std::vector<std::uint64_t> ids;
    RejectInfo reject;
    for (int i = 0; i < 4; ++i)
        if (const std::uint64_t id = mux.open(spec, reject))
            ids.push_back(id);
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(reject.code, RejectCode::Overload);
    EXPECT_EQ(mux.globalBytes(), 3 * state);

    // Every admitted session still completes, and returns its bytes.
    const RemoteReport reference = referenceFor(spec, marked);
    for (const std::uint64_t id : ids) {
        const MuxRun run = driveThroughMux(mux, id, marked, 64);
        ASSERT_TRUE(run.completed);
        ASSERT_FALSE(run.result.failed) << run.result.reject.message;
        EXPECT_TRUE(run.result.report.identical(reference));
    }
    EXPECT_EQ(mux.globalBytes(), 0u);
    EXPECT_EQ(mux.activeSessions(), 0u);
    mux.abort(admit(mux, spec));
}

TEST(MonitorService, SessionOpenThatBuysTooMuchStateIsRejected)
{
    // A SessionOpen, no chunks, then TraceEnd. Without the state charge,
    // ADDRCHECK over 65 536 threads and a 1 024-epoch ring grew the
    // server from 3.5 MB to 2.27 GB and answered with a Summary after
    // 1.34 s; TAINTCHECK over 16 384 threads spent 1.02 s in pass 2's
    // wing loops, which are quadratic in threads even over empty blocks.
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("hostile");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    struct Shape
    {
        Lifeguard lifeguard;
        std::uint32_t threads;
        std::uint32_t window;
    };
    for (const Shape &shape : {Shape{Lifeguard::AddrCheck, 1u << 16, 1024},
                               Shape{Lifeguard::TaintCheck, 1u << 14, 4}}) {
        SCOPED_TRACE(lifeguardName(shape.lifeguard));
        SessionSpec spec;
        spec.lifeguard = static_cast<std::uint8_t>(shape.lifeguard);
        spec.numThreads = shape.threads;
        spec.windowEpochs = shape.window;
        std::vector<std::uint8_t> bytes;
        appendFrame(bytes, FrameType::SessionOpen, encodeSessionOpen(spec));
        appendFrame(bytes, FrameType::TraceEnd, encodeTraceEnd(0));

        const std::size_t rss = peakRssBytes();
        const auto start = std::chrono::steady_clock::now();
        EXPECT_EQ(rejectionOf(scfg.unixPath, bytes).code,
                  RejectCode::TooLarge);
        EXPECT_LT(std::chrono::steady_clock::now() - start, 500ms);
        EXPECT_LT(peakRssBytes() - rss, std::size_t{16} << 20);
        EXPECT_EQ(server.globalBytes(), 0u);
    }

    // A wide but honest session still gets its Summary, and returns its
    // charge when it ends.
    const Addr heap = 0x600000;
    const Trace wide = makeMarkedTrace(70, 2, 4, heap);
    const SessionSpec spec = addrcheckSpec(wide, heap);
    MonitorClient client;
    ASSERT_TRUE(client.connectUnix(scfg.unixPath));
    const RunResult remote = client.run(spec, wide);
    ASSERT_TRUE(remote.ok) << remote.error;
    EXPECT_TRUE(remote.report.identical(referenceFor(spec, wide)));
    server.stop();
    EXPECT_EQ(server.globalBytes(), 0u) << "state charge leaked";
    EXPECT_EQ(server.sessionsCompleted(), 1u);
}

TEST(MonitorService, WidestAdmittedEmptySessionIsCheap)
{
    // The most a SessionOpen and a TraceEnd alone can buy: the widest
    // session the caps admit, at the widest ring its byte charge allows,
    // with no events. Pass 2's wing loops are quadratic in threads even
    // over empty blocks (TAINTCHECK took 306 ms at 6 898 threads), so
    // kMaxSessionThreads is what bounds this time, for every lifeguard.
    // The slowest, TAINTCHECK, took 5 ms in Release and 0.35 s under
    // ThreadSanitizer.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    constexpr auto kBound = 5s;
#else
    constexpr auto kBound = 250ms;
#endif
    ServerConfig scfg;
    scfg.unixPath = tempSocketPath("widest");
    scfg.workers = 2;
    MonitorServer server(scfg);
    ASSERT_TRUE(server.start());

    Trace empty;
    empty.threads.resize(SessionMux::kMaxSessionThreads);
    for (Lifeguard lg : kAllLifeguards) {
        SCOPED_TRACE(lifeguardName(lg));
        SessionSpec spec;
        spec.lifeguard = static_cast<std::uint8_t>(lg);
        spec.numThreads = SessionMux::kMaxSessionThreads;
        spec.granularity = lifeguardEntry(lg).defaultGranularity;
        for (SessionSpec wider = spec;
             SessionMux::sessionStateBytes(wider) <=
             MuxConfig{}.maxSessionBytes;
             ++wider.windowEpochs)
            spec.windowEpochs = wider.windowEpochs;

        MonitorClient client;
        ASSERT_TRUE(client.connectUnix(scfg.unixPath));
        const auto start = std::chrono::steady_clock::now();
        const RunResult remote = client.run(spec, empty);
        const auto elapsed = std::chrono::steady_clock::now() - start;
        ASSERT_TRUE(remote.ok) << remote.error;
        EXPECT_LT(elapsed, kBound);
        EXPECT_TRUE(remote.report.identical(referenceFor(spec, empty)));
    }
    server.stop();
    EXPECT_EQ(server.sessionsCompleted(), std::size(kAllLifeguards));
    EXPECT_EQ(server.globalBytes(), 0u);
}

// ---------------------------------------------------------------- registry

TEST(LifeguardRegistry, WireBytesAndNamesArePinned)
{
    // The enum value is the SessionSpec::lifeguard wire byte, and the
    // names appear in fuzz_cli violations, loadgen output and the
    // benchmark's service.analysis_ms.<name> metrics.
    // Which lifeguards the fuzzer checks against an oracle and for
    // FP(H) <= FP(4H) is pinned beside them.
    const struct
    {
        Lifeguard lg;
        std::uint8_t wire;
        const char *name;
        bool oracle;
        FpCounting fp;
    } pinned[] = {
        {Lifeguard::AddrCheck, 0, "ADDRCHECK", true, FpCounting::PerEvent},
        {Lifeguard::TaintCheck, 1, "TAINTCHECK", true,
         FpCounting::Unchecked},
        {Lifeguard::DefCheck, 2, "DEFINEDCHECK", true,
         FpCounting::Unchecked},
        {Lifeguard::ReachingDefs, 3, "REACHING-DEFS", false,
         FpCounting::Unchecked},
        {Lifeguard::LockSet, 4, "LOCKSET", true, FpCounting::PerVariable},
        {Lifeguard::AddrLeak, 5, "ADDRLEAK", true, FpCounting::PerEvent},
    };
    ASSERT_EQ(std::size(kAllLifeguards), std::size(pinned));
    for (std::size_t i = 0; i < std::size(pinned); ++i) {
        const auto &p = pinned[i];
        EXPECT_EQ(kAllLifeguards[i], p.lg);
        EXPECT_EQ(static_cast<std::uint8_t>(p.lg), p.wire);
        EXPECT_STREQ(lifeguardName(p.lg), p.name);
        ASSERT_NE(findLifeguard(p.wire), nullptr);
        EXPECT_EQ(findLifeguard(p.wire)->id, p.lg);
        EXPECT_EQ(findLifeguard(std::string_view(p.name)),
                  findLifeguard(p.wire));
        EXPECT_EQ(lifeguardEntry(p.lg).oracle != nullptr, p.oracle);
        EXPECT_EQ(lifeguardEntry(p.lg).fpCounting, p.fp);
    }
    EXPECT_EQ(findLifeguard(std::string_view("lockset")),
              findLifeguard(std::string_view("LOCKSET")));
}

TEST(LifeguardRegistry, DefaultGranularityIsTheConfigDefault)
{
    EXPECT_EQ(lifeguardEntry(Lifeguard::AddrCheck).defaultGranularity,
              AddrCheckConfig{}.granularity);
    EXPECT_EQ(lifeguardEntry(Lifeguard::TaintCheck).defaultGranularity,
              TaintCheckConfig{}.granularity);
    EXPECT_EQ(lifeguardEntry(Lifeguard::DefCheck).defaultGranularity,
              DefCheckConfig{}.granularity);
    EXPECT_EQ(lifeguardEntry(Lifeguard::ReachingDefs).defaultGranularity,
              SessionSpec{}.granularity);
    EXPECT_EQ(lifeguardEntry(Lifeguard::LockSet).defaultGranularity,
              LockSetConfig{}.granularity);
    EXPECT_EQ(lifeguardEntry(Lifeguard::AddrLeak).defaultGranularity,
              AddrLeakConfig{}.granularity);
}

TEST(LifeguardRegistry, AccessorsBoundsCheck)
{
    EXPECT_EQ(findLifeguard(std::uint8_t{6}), nullptr);
    EXPECT_EQ(findLifeguard(std::uint8_t{255}), nullptr);
    EXPECT_EQ(findLifeguard(std::string_view("nosuchcheck")), nullptr);
    EXPECT_THROW(lifeguardEntry(static_cast<Lifeguard>(6)),
                 std::out_of_range);
    EXPECT_THROW(lifeguardName(static_cast<Lifeguard>(255)),
                 std::out_of_range);
}

} // namespace
} // namespace bfly::service
