/**
 * @file
 * Tests for the compressed event-log codec: exact round-trips for every
 * event kind, compression behaviour on realistic traces, and resilience
 * against truncated input.
 */

#include <gtest/gtest.h>

#include "fuzz/trace_fuzzer.hpp"
#include "memmodel/interleaver.hpp"
#include "trace/log_codec.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

bool
sameForLifeguards(const Event &a, const Event &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.size == b.size &&
           a.nsrc == b.nsrc &&
           (a.nsrc < 1 || a.src0 == b.src0) &&
           (a.nsrc < 2 || a.src1 == b.src1);
}

TEST(LogCodec, RoundTripsEveryKind)
{
    Event assign = Event::assign2(0x2000, 0x1000, 0x3000);
    assign.size = 8;
    const std::vector<Event> events = {
        Event::read(0x1000, 8),
        Event::write(0x1008, 4),
        Event::alloc(0x2000, 128),
        Event::freeOf(0x2000, 128),
        Event::taintSrc(0x3000, 16),
        Event::untaint(0x3000, 16),
        assign,
        Event::use(0x2000),
        Event::heartbeat(),
        Event::barrier(),
        Event::nop(),
    };
    const auto bytes = encodeEvents(events);
    const auto decoded = decodeEvents(bytes);
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_TRUE(sameForLifeguards(events[i], decoded[i]))
            << "event " << i << ": " << events[i].toString() << " vs "
            << decoded[i].toString();
    }
}

TEST(LogCodec, RoundTripsLargeAddressJumps)
{
    const std::vector<Event> events = {
        Event::read(0, 8),
        Event::read(0xffffffffffull, 8),
        Event::read(1, 8),
        Event::write(0x8000000000000000ull, 8),
    };
    const auto decoded = decodeEvents(encodeEvents(events));
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(decoded[i].addr, events[i].addr);
}

TEST(LogCodec, DefaultSizesEncodeInTwoBytes)
{
    // A sequential 8-byte read stream: opcode + tiny delta per event.
    LogEncoder enc;
    for (int i = 0; i < 1000; ++i)
        enc.encode(Event::read(0x1000 + 8 * i, 8));
    EXPECT_LE(enc.bytesPerEvent(), 2.01); // opcode + 1-byte delta (+ first-event base)
}

TEST(LogCodec, RealWorkloadCompressesBelowFixedRecordSize)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 10000;
    const Workload w = makeFft(wcfg);
    LogEncoder enc;
    for (const Event &e : w.programs[0])
        enc.encode(e);
    // The timing model assumes 16 bytes/record; the real codec does
    // much better on a workload with spatial locality.
    EXPECT_LT(enc.bytesPerEvent(), 16.0);
    EXPECT_GT(enc.eventCount(), 0u);

    const auto decoded = decodeEvents(enc.bytes());
    ASSERT_EQ(decoded.size(), w.programs[0].size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        EXPECT_TRUE(sameForLifeguards(w.programs[0][i], decoded[i]));
}

TEST(LogCodec, RoundTripsEveryPaperWorkloadExactly)
{
    for (const auto &[name, factory] : paperWorkloads()) {
        WorkloadConfig wcfg;
        wcfg.numThreads = 2;
        wcfg.instrPerThread = 2000;
        const Workload w = factory(wcfg);
        for (const auto &program : w.programs) {
            const auto decoded = decodeEvents(encodeEvents(program));
            ASSERT_EQ(decoded.size(), program.size()) << name;
            for (std::size_t i = 0; i < decoded.size(); ++i) {
                ASSERT_TRUE(sameForLifeguards(program[i], decoded[i]))
                    << name << " event " << i;
            }
        }
    }
}

TEST(LogCodec, TruncatedLogDies)
{
    auto bytes = encodeEvents({Event::read(0x123456, 8)});
    bytes.pop_back(); // chop the delta varint
    EXPECT_DEATH(
        {
            LogDecoder dec(bytes);
            while (!dec.done())
                dec.decode();
        },
        "truncated");
}

TEST(LogCodec, EmptyLogDecodesToNothing)
{
    EXPECT_TRUE(decodeEvents({}).empty());
}

TEST(LogCodec, TraceFileRoundTripPreservesEpochStructure)
{
    // Generate, execute, mark epoch boundaries, save, load: the loaded
    // trace must yield the same blocks via heartbeat slicing, and the
    // butterfly lifeguard must see identical events.
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 3000;
    const Workload w = makeRandomMix(wcfg);
    Rng rng(5);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 300);

    const Trace marked = withHeartbeatMarkers(trace, layout);
    const std::string path = ::testing::TempDir() + "bfly_trace.log";
    ASSERT_TRUE(saveTrace(marked, path));

    const Trace loaded = loadTrace(path);
    const EpochLayout reloaded = EpochLayout::fromHeartbeats(loaded);
    ASSERT_EQ(reloaded.numEpochs(), layout.numEpochs());
    for (ThreadId t = 0; t < 3; ++t) {
        for (EpochId l = 0; l < layout.numEpochs(); ++l) {
            const BlockView a = layout.block(l, t);
            const BlockView b = reloaded.block(l, t);
            ASSERT_EQ(a.size(), b.size())
                << "block (" << l << "," << t << ")";
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a.events[i].kind, b.events[i].kind);
                EXPECT_EQ(a.events[i].addr, b.events[i].addr);
            }
        }
    }
    std::remove(path.c_str());
}

TEST(LogCodec, FuzzedProgramsReEncodeByteIdentically)
{
    // encode -> decode -> re-encode must be a fixed point: the codec's
    // delta/varint state machine cannot depend on anything outside the
    // byte stream. Driven by the adversarial fuzzer so the event mix is
    // far wider than the hand-written cases above.
    fuzz::FuzzerConfig cfg;
    cfg.seed = 8675309;
    fuzz::TraceFuzzer fuzzer(cfg);
    std::size_t programs = 0;
    for (int i = 0; i < 110; ++i) {
        const fuzz::FuzzCase c = fuzzer.next();
        for (const std::vector<Event> &program : c.programs) {
            const std::vector<std::uint8_t> bytes =
                encodeEvents(program);
            const std::vector<Event> decoded = decodeEvents(bytes);
            ASSERT_EQ(decoded.size(), program.size());
            for (std::size_t e = 0; e < program.size(); ++e)
                ASSERT_TRUE(sameForLifeguards(program[e], decoded[e]))
                    << "case " << c.caseId << " event " << e;
            EXPECT_EQ(encodeEvents(decoded), bytes)
                << "case " << c.caseId;
            ++programs;
        }
    }
    EXPECT_GE(programs, 100u);
}

TEST(LogCodec, FuzzedTracesSurviveDiskRoundTrip)
{
    fuzz::FuzzerConfig cfg;
    cfg.seed = 5551212;
    fuzz::TraceFuzzer fuzzer(cfg);
    const std::string path =
        ::testing::TempDir() + "bfly_fuzzed_roundtrip.log";
    for (int i = 0; i < 10; ++i) {
        const Trace trace = fuzzer.next().materialize();
        ASSERT_TRUE(saveTrace(trace, path));
        const Trace loaded = loadTrace(path);
        ASSERT_EQ(loaded.numThreads(), trace.numThreads());
        for (std::size_t t = 0; t < trace.numThreads(); ++t) {
            const auto &orig = trace.threads[t].events;
            const auto &back = loaded.threads[t].events;
            ASSERT_EQ(back.size(), orig.size());
            for (std::size_t e = 0; e < orig.size(); ++e)
                ASSERT_TRUE(sameForLifeguards(orig[e], back[e]));
        }
    }
    std::remove(path.c_str());
}

TEST(LogCodec, EveryTruncatedPrefixReportsNeedMoreNotCorrupt)
{
    // A prefix of a valid log is by construction never *structurally*
    // invalid — it just ends mid-event. tryDecode must report NeedMore
    // (never Corrupt, never assert) for every possible cut point, and
    // the events before the cut must decode exactly.
    fuzz::FuzzerConfig cfg;
    cfg.seed = 424242;
    fuzz::TraceFuzzer fuzzer(cfg);
    const fuzz::FuzzCase c = fuzzer.next();
    ASSERT_FALSE(c.programs.empty());
    const std::vector<Event> &program = c.programs[0];
    const std::vector<std::uint8_t> bytes = encodeEvents(program);

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        LogDecoder dec({bytes.data(), cut});
        std::size_t decoded = 0;
        for (;;) {
            Event e;
            const DecodeStatus status = dec.tryDecode(e);
            if (status == DecodeStatus::Ok) {
                ASSERT_LT(decoded, program.size());
                ASSERT_TRUE(sameForLifeguards(program[decoded], e))
                    << "cut " << cut << " event " << decoded;
                ++decoded;
                continue;
            }
            ASSERT_EQ(status, DecodeStatus::NeedMore)
                << "prefix of length " << cut
                << " misreported as Corrupt";
            break;
        }
        ASSERT_LE(decoded, program.size());
    }
}

TEST(LogCodec, ChunkedDecoderByteByByteMatchesBulkDecode)
{
    // Feeding one byte at a time is the worst possible chunking (every
    // event splits mid-field); the chunked decoder must still produce
    // the exact bulk-decode event sequence with no Corrupt verdicts.
    fuzz::FuzzerConfig cfg;
    cfg.seed = 99;
    fuzz::TraceFuzzer fuzzer(cfg);
    const fuzz::FuzzCase c = fuzzer.next();
    ASSERT_FALSE(c.programs.empty());
    const std::vector<Event> &program = c.programs[0];
    const std::vector<std::uint8_t> bytes = encodeEvents(program);

    ChunkedLogDecoder chunked;
    std::vector<Event> got;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        chunked.feed({bytes.data() + i, 1});
        for (;;) {
            Event e;
            const DecodeStatus status = chunked.next(e);
            if (status != DecodeStatus::Ok) {
                ASSERT_EQ(status, DecodeStatus::NeedMore);
                break;
            }
            got.push_back(e);
        }
    }
    ASSERT_EQ(got.size(), program.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(sameForLifeguards(program[i], got[i]));
    EXPECT_EQ(chunked.pendingBytes(), 0u);
    EXPECT_EQ(chunked.eventsDecoded(), program.size());
}

TEST(LogCodec, BitFlippedLogsNeverAssert)
{
    // Flip every bit of a real encoded log, one at a time, and decode
    // the result to exhaustion with the untrusted-input API. Any mix of
    // Ok / NeedMore / Corrupt is acceptable; crashing or asserting is
    // not — this is exactly what a hostile wire client can feed us.
    const std::vector<Event> program = {
        Event::read(0x1000, 8),      Event::write(0x1008, 4),
        Event::alloc(0x2000, 128),   Event::taintSrc(0x3000, 16),
        Event::assign2(0x2000, 0x1000, 0x3000),
        Event::heartbeat(),          Event::freeOf(0x2000, 128),
        Event::use(0x2000),          Event::barrier(),
        Event::read(0xfffff000, 2),
    };
    const std::vector<std::uint8_t> base = encodeEvents(program);

    for (std::size_t byte = 0; byte < base.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> mutated = base;
            mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);

            LogDecoder dec(mutated);
            std::size_t decoded = 0;
            for (;;) {
                Event e;
                const DecodeStatus status = dec.tryDecode(e);
                if (status == DecodeStatus::Ok) {
                    // Guard against infinite loops on zero-length events.
                    ASSERT_LE(++decoded, mutated.size());
                    continue;
                }
                break; // NeedMore or Corrupt both end the stream
            }

            // The chunked decoder must agree and hold Corrupt sticky.
            ChunkedLogDecoder chunked;
            chunked.feed(mutated);
            DecodeStatus last = DecodeStatus::Ok;
            for (;;) {
                Event e;
                last = chunked.next(e);
                if (last != DecodeStatus::Ok)
                    break;
            }
            if (last == DecodeStatus::Corrupt) {
                Event e;
                chunked.feed(base); // more bytes cannot un-corrupt it
                EXPECT_EQ(chunked.next(e), DecodeStatus::Corrupt)
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

// ---------------------------------------------------------------------
// SiteSummary frames (static elision). These mirror the hostile-input
// coverage above: a summary's payload is attacker-controlled varints,
// so every malformed shape must come back Corrupt (or NeedMore for a
// clean truncation), never assert, and never produce an event with an
// out-of-range site id or count.

namespace {

/** The summary opcode byte: kind nibble, no size flag, no sources. */
constexpr std::uint8_t kSummaryOpcode =
    static_cast<std::uint8_t>(EventKind::SiteSummary);

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::vector<std::uint8_t>
rawSummary(std::uint8_t opcode, std::uint64_t site, std::uint64_t count)
{
    std::vector<std::uint8_t> bytes{opcode};
    putVarint(bytes, site);
    putVarint(bytes, count);
    return bytes;
}

DecodeStatus
decodeOne(std::span<const std::uint8_t> bytes, Event &out)
{
    LogDecoder dec(bytes);
    return dec.tryDecode(out);
}

} // namespace

TEST(LogCodec, SiteSummaryRoundTripsExactly)
{
    const std::vector<Event> events = {
        Event::read(0x1000, 8),
        Event::siteSummary(7, 12345),
        Event::write(0x1008, 8),
        Event::siteSummary(0xFFFFFFFFu, (1ull << 48) - 1),
        Event::siteSummary(1, 1),
    };
    const auto decoded = decodeEvents(encodeEvents(events));
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(decoded[i].kind, events[i].kind) << "event " << i;
        if (events[i].kind == EventKind::SiteSummary) {
            EXPECT_EQ(decoded[i].site, events[i].site);
            EXPECT_EQ(decoded[i].summaryCount(),
                      events[i].summaryCount());
        }
    }
}

TEST(LogCodec, SiteSummaryTruncatedVarintsReportNeedMore)
{
    // Chop a valid summary at every byte: a truncation mid-varint is an
    // incomplete event, not a corrupt one, so streaming decoders can
    // wait for the rest of the frame.
    const std::vector<std::uint8_t> bytes =
        rawSummary(kSummaryOpcode, 0xFFFFFFFFu, (1ull << 48) - 1);
    ASSERT_GT(bytes.size(), 2u);
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        Event e;
        EXPECT_EQ(decodeOne({bytes.data(), cut}, e),
                  DecodeStatus::NeedMore)
            << "cut at " << cut;
    }
    Event e;
    EXPECT_EQ(decodeOne(bytes, e), DecodeStatus::Ok);
    EXPECT_EQ(e.site, 0xFFFFFFFFu);
    EXPECT_EQ(e.summaryCount(), (1ull << 48) - 1);
}

TEST(LogCodec, SiteSummarySiteIdBeyond32BitsIsCorrupt)
{
    Event e;
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode, 1ull << 32, 1), e),
              DecodeStatus::Corrupt);
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode, ~0ull, 1), e),
              DecodeStatus::Corrupt);
}

TEST(LogCodec, SiteSummaryZeroOrOverflowingCountIsCorrupt)
{
    Event e;
    // A summary standing for zero events is meaningless on a valid
    // stream; a count past 2^48-1 can overflow event accounting.
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode, 5, 0), e),
              DecodeStatus::Corrupt);
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode, 5, 1ull << 48), e),
              DecodeStatus::Corrupt);
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode, 5, ~0ull), e),
              DecodeStatus::Corrupt);
}

TEST(LogCodec, SiteSummaryReservedOpcodeBitsAreCorrupt)
{
    // The encoder never sets the size flag or a source count on a
    // summary; a decoder seeing either is looking at a forged opcode.
    Event e;
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode | 0x10, 5, 1), e),
              DecodeStatus::Corrupt); // size-follows flag
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode | (1u << 5), 5, 1), e),
              DecodeStatus::Corrupt); // nsrc = 1
    EXPECT_EQ(decodeOne(rawSummary(kSummaryOpcode | (2u << 5), 5, 1), e),
              DecodeStatus::Corrupt); // nsrc = 2
}

TEST(LogCodec, SiteSummaryEncoderRejectsOutOfRangeCounts)
{
    LogEncoder enc;
    EXPECT_DEATH(enc.encode(Event::siteSummary(1, 0)),
                 "site summary count out of range");
    EXPECT_DEATH(enc.encode(Event::siteSummary(1, 1ull << 48)),
                 "site summary count out of range");
}

TEST(LogCodec, SiteSummaryChunkedDecodeSurvivesByteSplits)
{
    // A summary split one byte per chunk across frames must reassemble
    // exactly (the wire path: LogChunk frames can cut anywhere).
    const std::vector<Event> events = {
        Event::read(0x4000, 8),
        Event::siteSummary(321, 1000000),
        Event::write(0x4008, 8),
    };
    const auto bytes = encodeEvents(events);
    ChunkedLogDecoder dec;
    std::vector<Event> decoded;
    for (const std::uint8_t b : bytes) {
        dec.feed({&b, 1});
        for (;;) {
            Event e;
            if (dec.next(e) != DecodeStatus::Ok)
                break;
            decoded.push_back(e);
        }
    }
    ASSERT_EQ(decoded.size(), events.size());
    EXPECT_EQ(decoded[1].kind, EventKind::SiteSummary);
    EXPECT_EQ(decoded[1].site, 321u);
    EXPECT_EQ(decoded[1].summaryCount(), 1000000u);
}

TEST(LogCodec, DecoderWrapsAddressDeltasThatOverflowInt64)
{
    // Hand-built chunk: two Reads whose deltas are each INT64_MAX, then
    // two whose deltas are each INT64_MIN. The second of each pair
    // overflows a signed 64-bit add; the decoder must wrap modulo 2^64
    // (and UBSan must stay quiet).
    const std::uint8_t read = static_cast<std::uint8_t>(EventKind::Read);
    const std::uint64_t zigzag_max = 0xfffffffffffffffeull; // INT64_MAX
    const std::uint64_t zigzag_min = 0xffffffffffffffffull; // INT64_MIN
    std::vector<std::uint8_t> bytes;
    for (const std::uint64_t delta :
         {zigzag_max, zigzag_max, zigzag_min, zigzag_min}) {
        bytes.push_back(read);
        putVarint(bytes, delta);
    }
    const std::vector<Event> decoded = decodeEvents(bytes);
    ASSERT_EQ(decoded.size(), 4u);
    EXPECT_EQ(decoded[0].addr, 0x7fffffffffffffffull);
    EXPECT_EQ(decoded[1].addr, 0xfffffffffffffffeull);
    EXPECT_EQ(decoded[2].addr, 0x7ffffffffffffffeull);
    EXPECT_EQ(decoded[3].addr, 0xfffffffffffffffeull);

    // The encoder produces exactly these deltas for the same addresses.
    std::vector<Event> events;
    for (const Event &e : decoded)
        events.push_back(Event::read(e.addr, e.size));
    EXPECT_EQ(encodeEvents(events), bytes);
}

TEST(LogCodec, LoadRejectsGarbage)
{
    const std::string path = ::testing::TempDir() + "bfly_garbage.log";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a trace";
    std::fwrite(junk, 1, sizeof junk, f);
    std::fclose(f);
    EXPECT_EXIT(loadTrace(path), ::testing::ExitedWithCode(1),
                "not a butterfly trace");
    std::remove(path.c_str());
}

} // namespace
} // namespace bfly
