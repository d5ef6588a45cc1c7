/**
 * @file
 * Telemetry subsystem tests: registry concurrency, histogram bucket
 * boundaries, span nesting, ring wrap, and the exported JSON formats
 * (validated with a tiny built-in JSON syntax checker — no external
 * JSON dependency).
 *
 * Also the ISSUE's acceptance check: a telemetry-enabled runSession
 * must publish `bfly.session.*` metrics consistent with the returned
 * SessionResult, and the Chrome-trace export must be structurally
 * valid with monotonically consistent timestamps.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "butterfly/window.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"
#include "tests/helpers.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

using telemetry::MetricsRegistry;
using telemetry::RegistrySnapshot;
using telemetry::ResolvedEvent;
using telemetry::SpanTracer;

/** Fresh, enabled telemetry for every test; disabled again on exit. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setEnabled(true);
        telemetry::resetAll();
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        telemetry::resetAll();
    }
};

// ---------------------------------------------------------------------
// Minimal recursive-descent JSON syntax validator. Accepts exactly the
// JSON grammar (objects, arrays, strings, numbers, true/false/null);
// rejects trailing garbage. Enough to guarantee chrome://tracing and
// any JSON tool will parse our exports.
// ---------------------------------------------------------------------

class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // raw control char: must be escaped
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i)
                        if (pos_ + i >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + i])))
                            return false;
                    pos_ += 4;
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false; // unterminated
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!digits())
            return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!digits())
                return false;
        }
        return pos_ > start;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    const std::string &s_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, ConcurrentCounterIncrements)
{
    auto &reg = telemetry::registry();
    const telemetry::MetricId id = reg.counter("bfly.test.concurrent");
    ASSERT_NE(id, telemetry::kNoMetric);

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 10000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                reg.add(id);
        });
    for (std::thread &th : pool)
        th.join();

    EXPECT_EQ(reg.value(id), kThreads * kPerThread);
    EXPECT_EQ(reg.snapshot().value("bfly.test.concurrent"),
              kThreads * kPerThread);
}

TEST_F(TelemetryTest, RegistrationIsIdempotentAndStable)
{
    auto &reg = telemetry::registry();
    const telemetry::MetricId a = reg.counter("bfly.test.same");
    const telemetry::MetricId b = reg.counter("bfly.test.same");
    EXPECT_EQ(a, b);
    // First kind wins: re-registering under another kind returns the
    // original id rather than a second metric.
    EXPECT_EQ(reg.gauge("bfly.test.same"), a);
}

TEST_F(TelemetryTest, GaugeLastWriteWins)
{
    auto &reg = telemetry::registry();
    const telemetry::MetricId id = reg.gauge("bfly.test.gauge");
    reg.set(id, 41);
    reg.set(id, 17);
    EXPECT_EQ(reg.value(id), 17u);
    reg.add(id, 3);
    EXPECT_EQ(reg.value(id), 20u);
}

TEST_F(TelemetryTest, HistogramBucketBoundaries)
{
    auto &reg = telemetry::registry();
    const telemetry::MetricId id = reg.histogram("bfly.test.hist");
    // Bucket b covers [2^b, 2^(b+1)); values <= 1 land in bucket 0.
    reg.observe(id, 1);
    reg.observe(id, 2);
    reg.observe(id, 3);
    reg.observe(id, 4);
    reg.observe(id, 8);

    const RegistrySnapshot snap = reg.snapshot();
    const auto *h = snap.histogram("bfly.test.hist");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 5u);
    EXPECT_EQ(h->sum, 18u);
    EXPECT_EQ(h->min, 1u);
    EXPECT_EQ(h->max, 8u);
    EXPECT_DOUBLE_EQ(h->mean(), 18.0 / 5.0);
    EXPECT_EQ(h->buckets[0], 1u); // {1}
    EXPECT_EQ(h->buckets[1], 2u); // {2, 3}
    EXPECT_EQ(h->buckets[2], 1u); // {4}
    EXPECT_EQ(h->buckets[3], 1u); // {8}
    for (unsigned b = 4; b < telemetry::HistogramSnapshot::kBuckets; ++b)
        EXPECT_EQ(h->buckets[b], 0u) << "bucket " << b;
}

TEST_F(TelemetryTest, ClearZeroesValuesButKeepsIds)
{
    auto &reg = telemetry::registry();
    const telemetry::MetricId id = reg.counter("bfly.test.cleared");
    reg.add(id, 99);
    reg.clear();
    EXPECT_EQ(reg.value(id), 0u);
    reg.add(id, 2); // id still routes to the same (zeroed) cell
    EXPECT_EQ(reg.value(id), 2u);
    EXPECT_EQ(reg.counter("bfly.test.cleared"), id);
}

// ---------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, SpanNestingAndOrdering)
{
    auto &tr = telemetry::tracer();
    {
        telemetry::TraceSpan outer("test.outer");
        {
            telemetry::TraceSpan mid("test.mid", "depth", 1);
            telemetry::TraceSpan inner("test.inner");
        }
    }

    const std::vector<ResolvedEvent> events = tr.collect();
    ASSERT_EQ(events.size(), 3u);

    const ResolvedEvent *outer = nullptr, *mid = nullptr, *inner = nullptr;
    for (const ResolvedEvent &e : events) {
        if (e.name == "test.outer")
            outer = &e;
        else if (e.name == "test.mid")
            mid = &e;
        else if (e.name == "test.inner")
            inner = &e;
    }
    ASSERT_TRUE(outer && mid && inner);

    // Events are sorted by (pid, ts); all three sit on the wall clock.
    EXPECT_EQ(outer->pid, SpanTracer::kWallPid);
    EXPECT_LE(events[0].ts, events[1].ts);
    EXPECT_LE(events[1].ts, events[2].ts);

    // Strict nesting: inner within mid within outer.
    EXPECT_LE(outer->ts, mid->ts);
    EXPECT_LE(mid->ts, inner->ts);
    EXPECT_LE(inner->ts + inner->dur, mid->ts + mid->dur);
    EXPECT_LE(mid->ts + mid->dur, outer->ts + outer->dur);

    EXPECT_TRUE(mid->hasArg);
    EXPECT_EQ(mid->argName, "depth");
    EXPECT_EQ(mid->argValue, 1u);
    EXPECT_FALSE(outer->hasArg);
}

TEST_F(TelemetryTest, RingBufferWrapKeepsNewestAndCountsDrops)
{
    SpanTracer local(16); // smallest ring, to force wrap
    EXPECT_EQ(local.ringCapacity(), 16u);
    const std::uint32_t name = local.internName("test.wrap");

    constexpr std::uint64_t kPushed = 40;
    for (std::uint64_t i = 0; i < kPushed; ++i)
        local.complete(name, /*ts=*/i, /*dur=*/1, SpanTracer::kWallPid,
                       /*tid=*/3);

    const std::vector<ResolvedEvent> events = local.collect();
    ASSERT_EQ(events.size(), 16u);
    EXPECT_EQ(local.dropped(), kPushed - 16);
    // The survivors are the newest events, still in order.
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].ts, kPushed - 16 + i);
        EXPECT_EQ(events[i].name, "test.wrap");
        EXPECT_EQ(events[i].tid, 3u);
    }

    local.clear();
    EXPECT_TRUE(local.collect().empty());
    EXPECT_EQ(local.dropped(), 0u);
}

TEST_F(TelemetryTest, RoundsRingCapacityToPowerOfTwo)
{
    SpanTracer local(100);
    EXPECT_EQ(local.ringCapacity(), 128u);
}

TEST_F(TelemetryTest, DisabledTelemetryRecordsNothing)
{
    telemetry::setEnabled(false);
    auto &tr = telemetry::tracer();
    {
        telemetry::TraceSpan span("test.disabled");
    }
    EXPECT_TRUE(tr.collect().empty());
    EXPECT_EQ(tr.dropped(), 0u);

    // Re-enabling makes the same call sites record again.
    telemetry::setEnabled(true);
    {
        telemetry::TraceSpan span("test.enabled");
    }
    EXPECT_EQ(tr.collect().size(), 1u);
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, MetricsJsonIsValidAndNested)
{
    auto &reg = telemetry::registry();
    reg.add(reg.counter("bfly.test.nest.alpha"), 5);
    reg.set(reg.gauge("bfly.test.nest.beta"), 7);
    reg.observe(reg.histogram("bfly.test.nest.hist"), 12);
    // A name that is both a leaf and a prefix of deeper names.
    reg.add(reg.counter("bfly.test.nest"), 1);

    std::ostringstream os;
    telemetry::writeMetricsJson(os);
    const std::string json = os.str();

    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"schema\": \"bfly.telemetry.v1\""),
              std::string::npos);
    // Dot-nesting: "nest" appears as an object key under "test", with
    // the leaf/prefix conflict resolved via the "#value" suffix.
    EXPECT_NE(json.find("\"nest#value\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"alpha\": 5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"beta\": 7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\": 1"), std::string::npos) << json;
}

TEST_F(TelemetryTest, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(telemetry::jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(telemetry::jsonEscape(std::string_view("\x01", 1)),
              "\\u0001");
}

TEST_F(TelemetryTest, ChromeTraceExportIsValidAndConsistent)
{
    auto &tr = telemetry::tracer();
    {
        telemetry::TraceSpan outer("test.export.outer");
        telemetry::TraceSpan inner("test.export.inner", "k", 9);
    }
    tr.complete(tr.internName("test.export.sim"), /*ts=*/100, /*dur=*/50,
                SpanTracer::kSimPid, 1, tr.internName("epoch"), 4);

    std::ostringstream os;
    telemetry::writeChromeTrace(os);
    const std::string json = os.str();

    EXPECT_TRUE(JsonValidator(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"wall-clock\""), std::string::npos);
    EXPECT_NE(json.find("\"simulated-pipeline\""), std::string::npos);
    EXPECT_NE(json.find("\"droppedEvents\": 0"), std::string::npos);
    // Sim-domain events keep raw cycle timestamps.
    EXPECT_NE(json.find("\"ts\": 100, \"dur\": 50"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"args\": {\"epoch\": 4}"), std::string::npos);

    // Monotonic consistency: collect() (the exporter's source) is
    // sorted by (pid, ts) and every complete event has ts+dur >= ts.
    const std::vector<ResolvedEvent> events = tr.collect();
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i - 1].pid == events[i].pid)
            EXPECT_LE(events[i - 1].ts, events[i].ts);
        else
            EXPECT_LT(events[i - 1].pid, events[i].pid);
    }
    for (const ResolvedEvent &e : events)
        EXPECT_GE(e.ts + e.dur, e.ts);
}

// ---------------------------------------------------------------------
// End-to-end: telemetry-enabled monitoring session (acceptance check)
// ---------------------------------------------------------------------

TEST_F(TelemetryTest, SessionMetricsMatchSessionResult)
{
    SessionConfig cfg;
    cfg.factory = makeRandomMix;
    cfg.workload.numThreads = 2;
    cfg.workload.instrPerThread = 4000;
    cfg.workload.phaseEvents = 900;
    cfg.workload.warmupNops = 1000;
    cfg.epochSize = 512;

    const SessionResult r = runSession(cfg);

    const RegistrySnapshot snap = telemetry::registry().snapshot();
    EXPECT_EQ(snap.value("bfly.session.runs"), 1u);
    EXPECT_EQ(snap.value("bfly.session.instructions"), r.instructions);
    EXPECT_EQ(snap.value("bfly.session.memory_accesses"),
              r.memoryAccesses);
    EXPECT_EQ(snap.value("bfly.session.epochs"), r.epochs);
    EXPECT_EQ(snap.value("bfly.session.threads"), 2u);
    EXPECT_EQ(snap.value("bfly.session.butterfly_errors"),
              r.butterflyErrorCount);
    EXPECT_EQ(snap.value("bfly.session.oracle_errors"),
              r.oracleErrorCount);
    EXPECT_EQ(snap.value("bfly.session.false_positives"),
              r.accuracy.falsePositives);
    EXPECT_EQ(snap.value("bfly.session.false_negatives"),
              r.accuracy.falseNegatives);

    // The window scheduler saw every epoch exactly once.
    EXPECT_EQ(snap.value("bfly.window.epochs_finalized"), r.epochs);
    EXPECT_GE(snap.value("bfly.window.pass1_blocks"), r.epochs);
    EXPECT_GE(snap.value("bfly.addrcheck.events_checked"),
              r.memoryAccesses);

    // Trace side: one session root span, one window.epoch step span per
    // epoch, and simulated-pipeline spans for every epoch's pass 1.
    std::size_t session_spans = 0, epoch_spans = 0, sim_pass1 = 0;
    const std::vector<ResolvedEvent> events =
        telemetry::tracer().collect();
    for (const ResolvedEvent &e : events) {
        if (e.name == "session")
            ++session_spans;
        else if (e.name == "window.epoch")
            ++epoch_spans;
        else if (e.name == "sim.pass1")
            ++sim_pass1;
    }
    EXPECT_EQ(session_spans, 1u);
    EXPECT_EQ(epoch_spans, r.epochs);
    EXPECT_EQ(sim_pass1, 2u * r.epochs); // one per (thread, epoch)
    EXPECT_EQ(telemetry::tracer().dropped(), 0u);

    // And the full export round-trips as valid JSON.
    std::ostringstream metrics_os, trace_os;
    telemetry::writeMetricsJson(metrics_os);
    telemetry::writeChromeTrace(trace_os);
    EXPECT_TRUE(JsonValidator(metrics_os.str()).valid());
    EXPECT_TRUE(JsonValidator(trace_os.str()).valid());
}

TEST_F(TelemetryTest, StageSpansLandBesidePassSpans)
{
    // The oracle, the perf model's application-half tasks and the block
    // pricing run on pool threads while the session thread runs the
    // butterfly passes: every span must arrive exactly once, with
    // nothing dropped.
    SessionConfig cfg;
    cfg.factory = makeRandomMix;
    cfg.workload.numThreads = 4;
    cfg.workload.instrPerThread = 4000;
    cfg.workload.phaseEvents = 900;
    cfg.workload.warmupNops = 1000;
    cfg.epochSize = 512;

    const SessionResult r = runSession(cfg);

    std::map<std::string, std::size_t> spans;
    for (const ResolvedEvent &e : telemetry::tracer().collect())
        if (e.pid == SpanTracer::kWallPid)
            ++spans[e.name];
    for (const char *stage :
         {"session", "session.generate", "session.interleave",
          "session.oracle", "perf.app_replay_parallel",
          "perf.app_replay_serial", "perf.consumer_stream",
          "perf.sequential_baseline", "perf.timesliced",
          "session.epoch_slice", "perf.block_pricing", "session.butterfly",
          "session.perf_model", "perf.butterfly"})
        EXPECT_EQ(spans[stage], 1u) << stage;
    EXPECT_EQ(spans["block.pass1"], 4u * r.epochs);
    EXPECT_EQ(spans["block.pass2"], 4u * r.epochs);
    EXPECT_EQ(telemetry::tracer().dropped(), 0u);
}

TEST_F(TelemetryTest, HundredTracedSessionsKeepTheirStageSpans)
{
    // runSession starts a three-thread pool per session. A thread's
    // span tid is freed when it exits, so a long-lived traced process
    // never runs out of tids: every session keeps its stage spans.
    SessionConfig cfg;
    cfg.factory = makeFft;
    cfg.workload.numThreads = 2;
    cfg.workload.instrPerThread = 1500;
    cfg.workload.phaseEvents = 500;
    cfg.epochSize = 256;
    for (int session = 0; session < 100; ++session) {
        SCOPED_TRACE(session);
        telemetry::tracer().clear();
        runSession(cfg);
        std::map<std::string, std::size_t> spans;
        for (const ResolvedEvent &e : telemetry::tracer().collect())
            if (e.pid == SpanTracer::kWallPid)
                ++spans[e.name];
        for (const char *stage :
             {"session.interleave", "session.oracle",
              "perf.app_replay_parallel", "perf.app_replay_serial",
              "perf.consumer_stream", "perf.sequential_baseline",
              "perf.timesliced", "perf.block_pricing", "session.butterfly",
              "session.perf_model"})
            ASSERT_EQ(spans[stage], 1u) << stage;
        ASSERT_EQ(telemetry::tracer().dropped(), 0u);
    }
}

TEST_F(TelemetryTest, AnExitedThreadsTidIsReusedAndItsEventsStay)
{
    // Twice as many short-lived threads as there are tids, one after
    // another: each thread's span lands, none is dropped, and the
    // threads share a handful of tids (each takes a freed one).
    const std::size_t threads = 2 * SpanTracer::kMaxTids;
    for (std::size_t k = 0; k < threads; ++k)
        std::thread([] { telemetry::TraceSpan span("test.short_lived"); })
            .join();
    std::size_t spans = 0;
    std::set<std::uint16_t> tids;
    for (const ResolvedEvent &e : telemetry::tracer().collect()) {
        if (e.name == "test.short_lived") {
            ++spans;
            tids.insert(e.tid);
        }
    }
    EXPECT_EQ(spans, threads);
    EXPECT_LT(tids.size(), std::size_t{SpanTracer::kMaxTids});
    EXPECT_EQ(telemetry::tracer().dropped(), 0u);
}

TEST_F(TelemetryTest, AddrCheckFlushesItsTalliesOncePerBlock)
{
    // ADDRCHECK logs each report as it finds it and keeps its hot-path
    // tallies in locals, published once per pass-1 block and once per
    // pass-2 block: the registry must agree with the driver's own
    // counters, and every logged record is counted against one block.
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 1500;
    wcfg.seed = 5;
    Workload w = makeRandomMix(wcfg);
    Rng bug_rng(0xbeef);
    injectBugs(w, BugKind::UseAfterFree, 4, bug_rng);
    Rng rng(41);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 300);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit + 0x100000;
    ButterflyAddrCheck check(layout, cfg);
    WindowSchedule().run(layout, check);
    ASSERT_FALSE(check.errors().records().empty());

    const std::uint64_t blocks = layout.numEpochs() * layout.numThreads();
    std::uint64_t counted = 0;
    for (EpochId l = 0; l < layout.numEpochs(); ++l)
        for (ThreadId t = 0; t < layout.numThreads(); ++t)
            counted += check.errorsInBlock(l, t);
    EXPECT_EQ(counted, check.errors().records().size());

    const RegistrySnapshot snap = telemetry::registry().snapshot();
    EXPECT_EQ(snap.value("bfly.addrcheck.blocks_committed"), 2 * blocks);
    EXPECT_EQ(snap.value("bfly.addrcheck.events_checked"),
              check.eventsChecked());
    EXPECT_EQ(snap.value("bfly.addrcheck.isolation_violations"),
              check.isolationViolations());
    // Duplicates of an already-logged event are flagged but not logged.
    EXPECT_GE(snap.value("bfly.addrcheck.errors_flagged"),
              check.errors().records().size());
    const auto *summaries = snap.histogram("bfly.addrcheck.summary_size");
    ASSERT_NE(summaries, nullptr);
    EXPECT_EQ(summaries->count, blocks);

    // Pass 1 probes the LSOS once per distinct monitored key of a block.
    std::uint64_t first_touches = 0;
    for (EpochId l = 0; l < layout.numEpochs(); ++l) {
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            std::set<Addr> keys;
            for (const Event &e : layout.block(l, t).events) {
                auto add = [&](Addr base) {
                    if (base != kNoAddr && cfg.monitored(base))
                        keyRange(base, e.size, cfg.granularity)
                            .forEach([&](Addr k) { keys.insert(k); });
                };
                switch (e.kind) {
                  case EventKind::Assign:
                    if (e.nsrc >= 1)
                        add(e.src0);
                    if (e.nsrc >= 2)
                        add(e.src1);
                    [[fallthrough]];
                  case EventKind::Alloc:
                  case EventKind::Free:
                  case EventKind::Read:
                  case EventKind::Write:
                  case EventKind::Use:
                    add(e.addr);
                    break;
                  default:
                    break;
                }
            }
            first_touches += keys.size();
        }
    }
    EXPECT_GT(first_touches, 0u);
    EXPECT_EQ(snap.value("bfly.addrcheck.lsos_probes"), first_touches);
}

/** Forwards to ADDRCHECK, reading the key-table and wing-table gauges
 *  after each pass-1 block. */
class TableSlotsRecorder final : public AnalysisDriver
{
  public:
    explicit TableSlotsRecorder(ButterflyAddrCheck &inner) : inner_(inner) {}

    void
    pass1(const BlockView &block) override
    {
        inner_.pass1(block);
        auto &reg = telemetry::registry();
        slots.push_back(reg.value(reg.gauge("bfly.addrcheck.table_slots")));
        wings.push_back(reg.value(reg.gauge("bfly.addrcheck.wing_slots")));
    }

    void pass2(const BlockView &block) override { inner_.pass2(block); }
    void finalizeEpoch(EpochId l) override { inner_.finalizeEpoch(l); }

    std::vector<std::uint64_t> slots; ///< after each pass-1 block
    std::vector<std::uint64_t> wings; ///< after each pass-1 block

  private:
    ButterflyAddrCheck &inner_;
};

TEST_F(TelemetryTest, AddrCheckKeyTablesShrinkAfterAnAllocationHeavyBlock)
{
    // One thread. Epoch 0 allocates 32 768 keys; each of the next 100
    // epochs reads two of them. The heavy block's table must not stay
    // at its size for the rest of the walk.
    constexpr Addr kBase = 0x100000;
    constexpr std::uint16_t kChunk = 0x8000; // 4 096 keys of 8 bytes
    constexpr std::size_t kChunks = 8;
    constexpr std::size_t kSmallEpochs = 100;
    std::vector<Event> program;
    for (std::size_t k = 0; k < kChunks; ++k)
        program.push_back(Event::alloc(kBase + k * kChunk, kChunk));
    for (std::size_t l = 0; l < kSmallEpochs; ++l) {
        program.push_back(Event::heartbeat());
        program.push_back(Event::read(kBase + 16 * l, 8));
        program.push_back(Event::read(kBase + 16 * l + 8, 8));
    }
    const Trace trace = test::traceOf({std::move(program)});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    ASSERT_EQ(layout.numEpochs(), kSmallEpochs + 1);

    AddrCheckConfig cfg;
    ButterflyAddrCheck check(layout, cfg);
    TableSlotsRecorder recorder(check);
    WindowSchedule().run(layout, recorder);
    ASSERT_TRUE(check.errors().empty());
    ASSERT_EQ(recorder.slots.size(), kSmallEpochs + 1);

    // At most half full while it holds the heavy block's keys.
    const std::uint64_t heavy_keys = kChunks * kChunk / 8;
    EXPECT_GE(recorder.slots.front(), 2 * heavy_keys);
    // Four ring slots, each within a small multiple of what a two-key
    // block needs.
    EXPECT_LE(recorder.slots.back(), 4u * 64);
}

TEST_F(TelemetryTest, AddrCheckWingTablesShrinkAfterAnAllocationHeavyEpoch)
{
    // Two threads. Epoch 0 allocates 32 768 keys on thread 0; from
    // epoch 2 on, when the allocations are in the SOS, each epoch reads
    // two of them on each thread. The heavy epoch's wing table must not
    // stay at its size for the rest of the walk.
    constexpr Addr kBase = 0x100000;
    constexpr std::uint16_t kChunk = 0x8000; // 4 096 keys of 8 bytes
    constexpr std::size_t kChunks = 8;
    constexpr std::size_t kSmallEpochs = 100;
    std::vector<std::vector<Event>> programs(2);
    for (std::size_t k = 0; k < kChunks; ++k)
        programs[0].push_back(Event::alloc(kBase + k * kChunk, kChunk));
    for (std::size_t l = 0; l < kSmallEpochs; ++l) {
        for (std::size_t t = 0; t < 2; ++t) {
            programs[t].push_back(Event::heartbeat());
            if (l == 0)
                continue;
            programs[t].push_back(Event::read(kBase + 16 * l + 8 * t, 8));
            programs[t].push_back(Event::read(kBase + 16 * l + 4096, 8));
        }
    }
    const Trace trace = test::traceOf(std::move(programs));
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    ASSERT_EQ(layout.numEpochs(), kSmallEpochs + 1);

    AddrCheckConfig cfg;
    ButterflyAddrCheck check(layout, cfg);
    TableSlotsRecorder recorder(check);
    WindowSchedule().run(layout, recorder);
    ASSERT_EQ(recorder.wings.size(), 2 * (kSmallEpochs + 1));

    // At most half full while it holds the heavy epoch's keys.
    const std::uint64_t heavy_keys = kChunks * kChunk / 8;
    EXPECT_GE(*std::max_element(recorder.wings.begin(),
                                recorder.wings.end()),
              2 * heavy_keys);
    // Four ring slots, each within a small multiple of what a
    // three-key epoch needs.
    EXPECT_LE(recorder.wings.back(), 4u * 64);

    // Every read hits a live allocation, and every key stays in the
    // SOS, whatever size the tables have.
    EXPECT_TRUE(check.errors().empty());
    EXPECT_EQ(check.sosNow().size(), heavy_keys);
}

} // namespace
} // namespace bfly
