/** @file Unit tests for src/trace: events, traces, epoch slicing, buffer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <tuple>

#include "memmodel/interleaver.hpp"
#include "tests/helpers.hpp"
#include "trace/log_buffer.hpp"
#include "trace/log_codec.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

TEST(Event, FactoriesAndPredicates)
{
    EXPECT_TRUE(Event::read(0x10).isMemoryAccess());
    EXPECT_TRUE(Event::write(0x10).isMemoryAccess());
    EXPECT_TRUE(Event::assign(1, 2).isMemoryAccess());
    EXPECT_FALSE(Event::alloc(0x10, 8).isMemoryAccess());
    EXPECT_FALSE(Event::heartbeat().isMemoryAccess());
    EXPECT_FALSE(Event::nop().isMemoryAccess());
    EXPECT_EQ(Event::assign2(1, 2, 3).nsrc, 2);
}

TEST(Event, ToStringMentionsKindAndAddr)
{
    const std::string s = Event::read(0xab, 4).toString();
    EXPECT_NE(s.find("read"), std::string::npos);
    EXPECT_NE(s.find("ab"), std::string::npos);
}

TEST(Trace, InstructionAndAccessCounts)
{
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::write(2),
         Event::nop()},
        {Event::alloc(0x10, 8), Event::read(0x10)},
    });
    EXPECT_EQ(trace.instructionCount(), 5u); // heartbeat excluded
    EXPECT_EQ(trace.memoryAccessCount(), 3u);
}

TEST(Trace, GseqOrderOrdersAcrossThreads)
{
    Trace trace = test::traceOf({{Event::read(1)}, {Event::write(2)}});
    trace.threads[0].events[0].gseq = 2;
    trace.threads[1].events[0].gseq = 1;
    const auto order = trace.gseqOrder();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0].thread, 1u);
    EXPECT_EQ(order[1].thread, 0u);
    EXPECT_EQ(order[0].event, &trace.threads[1].events[0]);
}

/** The reference order: the threads' concatenation, stable-sorted by
 *  gseq. */
std::vector<GseqRef>
stableSortedByGseq(const Trace &trace)
{
    std::vector<GseqRef> refs;
    for (std::size_t t = 0; t < trace.numThreads(); ++t) {
        std::uint32_t index = 0;
        for (const Event &e : trace.threads[t].events)
            if (e.kind != EventKind::Heartbeat)
                refs.push_back(
                    GseqRef{&e, static_cast<ThreadId>(t), index++});
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const GseqRef &a, const GseqRef &b) {
                         return a.event->gseq < b.event->gseq;
                     });
    return refs;
}

void
expectMatchesStableSort(const Trace &trace)
{
    const std::vector<GseqRef> got = trace.gseqOrder();
    const std::vector<GseqRef> want = stableSortedByGseq(trace);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].event, want[i].event) << "position " << i;
        ASSERT_EQ(got[i].thread, want[i].thread) << "position " << i;
        ASSERT_EQ(got[i].index, want[i].index) << "position " << i;
    }
}

TEST(Trace, GseqOrderMatchesStableSortOnScAndTsoInterleavings)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        for (MemModel model :
             {MemModel::SequentiallyConsistent, MemModel::TSO}) {
            WorkloadConfig wcfg;
            wcfg.numThreads = 1 + seed % 4;
            wcfg.instrPerThread = 3000;
            wcfg.seed = seed;
            const Workload w = makeRandomMix(wcfg);
            InterleaveConfig icfg;
            icfg.model = model;
            Rng rng(seed * 13 + 1);
            expectMatchesStableSort(interleave(w.programs, icfg, rng));
        }
    }
}

/** Random multi-thread trace with heartbeats and gseqs from @p draw. */
template <typename Draw>
Trace
randomGseqTrace(Rng &rng, Draw draw)
{
    std::vector<std::vector<Event>> programs(1 + rng.below(5));
    for (auto &p : programs) {
        const std::size_t n = rng.below(4000);
        for (std::size_t i = 0; i < n; ++i) {
            Event e = rng.below(10) == 0 ? Event::heartbeat()
                                         : Event::read(0x100 + i, 8);
            e.gseq = draw();
            p.push_back(e);
        }
    }
    return test::traceOf(std::move(programs));
}

TEST(Trace, GseqOrderKeepsEqualGseqsInThreadThenIndexOrder)
{
    Rng rng(7);
    for (int round = 0; round < 20; ++round) {
        const std::uint64_t base = rng.next();
        const std::uint64_t span = 1 + rng.below(8);
        expectMatchesStableSort(
            randomGseqTrace(rng, [&] { return base + rng.below(span); }));
    }
    // Every gseq equal: nothing to sort, ties only.
    expectMatchesStableSort(randomGseqTrace(rng, [] { return 42; }));
}

TEST(Trace, GseqOrderSortsSparseGseqsUpToNearTwoToThe63)
{
    constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
    Rng rng(11);
    for (int round = 0; round < 10; ++round) {
        // Spread over the whole range, bunched just under 2^63, and
        // spaced so that some radix digits are constant.
        expectMatchesStableSort(
            randomGseqTrace(rng, [&] { return rng.below(kTop); }));
        expectMatchesStableSort(
            randomGseqTrace(rng, [&] { return kTop - 1 - rng.below(64); }));
        expectMatchesStableSort(randomGseqTrace(
            rng, [&] { return rng.below(1024) << 40; }));
    }
    Trace extremes = test::traceOf({{Event::read(1), Event::read(2)},
                                    {Event::read(3)}});
    extremes.threads[0].events[0].gseq = kTop - 1;
    extremes.threads[0].events[1].gseq = 0;
    extremes.threads[1].events[0].gseq = kTop - 1;
    expectMatchesStableSort(extremes);
}

TEST(Trace, GseqOrderSkipsHeartbeatsAndEmptyThreads)
{
    Trace trace = test::traceOf({
        {},
        {Event::heartbeat(), Event::write(1), Event::heartbeat(),
         Event::read(2)},
        {},
        {Event::heartbeat()},
        {Event::read(3)},
    });
    trace.threads[1].events[1].gseq = 5;
    trace.threads[1].events[3].gseq = 1;
    trace.threads[4].events[0].gseq = 3;
    const auto order = trace.gseqOrder();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0].thread, 1u);
    EXPECT_EQ(order[0].index, 1u); // the heartbeats take no index
    EXPECT_EQ(order[1].thread, 4u);
    EXPECT_EQ(order[1].index, 0u);
    EXPECT_EQ(order[2].thread, 1u);
    EXPECT_EQ(order[2].index, 0u);
    expectMatchesStableSort(trace);
}

TEST(Trace, GseqOrderOfTraceWithoutEvents)
{
    EXPECT_TRUE(Trace{}.gseqOrder().empty());
    EXPECT_TRUE(test::traceOf({{}, {}}).gseqOrder().empty());
    EXPECT_TRUE(test::traceOf({{Event::heartbeat()}, {}})
                    .gseqOrder()
                    .empty());
}

TEST(Trace, RoundRobinAlternatesThreads)
{
    Trace trace = test::traceOf({
        {Event::read(1), Event::read(2)},
        {Event::read(3), Event::read(4)},
    });
    const auto merged = trace.serializedRoundRobin(1);
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_EQ(merged[0].second.addr, 1u);
    EXPECT_EQ(merged[1].second.addr, 3u);
    EXPECT_EQ(merged[2].second.addr, 2u);
    EXPECT_EQ(merged[3].second.addr, 4u);
}

TEST(EpochLayout, FromHeartbeats)
{
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::read(2),
         Event::read(3)},
        {Event::heartbeat(), Event::read(4)},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numEpochs(), 2u);
    EXPECT_EQ(layout.block(0, 0).size(), 1u);
    EXPECT_EQ(layout.block(1, 0).size(), 2u);
    EXPECT_EQ(layout.block(0, 1).size(), 0u);
    EXPECT_EQ(layout.block(1, 1).size(), 1u);
    EXPECT_EQ(layout.block(1, 1).events[0].addr, 4u);
}

TEST(EpochLayout, PadsThreadsToSameEpochCount)
{
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::read(2),
         Event::heartbeat(), Event::read(3)},
        {Event::read(4)},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numEpochs(), 3u);
    EXPECT_EQ(layout.block(1, 1).size(), 0u);
    EXPECT_EQ(layout.block(2, 1).size(), 0u);
}

TEST(EpochLayout, UniformSlicing)
{
    std::vector<Event> prog;
    for (int i = 0; i < 10; ++i)
        prog.push_back(Event::read(i));
    Trace trace = test::traceOf({prog});
    const EpochLayout layout = EpochLayout::uniform(trace, 4);
    EXPECT_EQ(layout.numEpochs(), 3u);
    EXPECT_EQ(layout.block(0, 0).size(), 4u);
    EXPECT_EQ(layout.block(1, 0).size(), 4u);
    EXPECT_EQ(layout.block(2, 0).size(), 2u);
}

TEST(EpochLayout, UniformDropsHeartbeatMarkers)
{
    Trace trace = test::traceOf(
        {{Event::read(1), Event::heartbeat(), Event::read(2)}});
    const EpochLayout layout = EpochLayout::uniform(trace, 10);
    EXPECT_EQ(layout.numEpochs(), 1u);
    EXPECT_EQ(layout.block(0, 0).size(), 2u);
}

TEST(EpochLayout, GlobalIndexIsStableIdentity)
{
    std::vector<Event> prog;
    for (int i = 0; i < 7; ++i)
        prog.push_back(Event::read(100 + i));
    Trace trace = test::traceOf({prog});
    const EpochLayout layout = EpochLayout::uniform(trace, 3);
    EXPECT_EQ(layout.globalIndex(0, 0, 0), 0u);
    EXPECT_EQ(layout.globalIndex(1, 0, 0), 3u);
    EXPECT_EQ(layout.globalIndex(2, 0, 0), 6u);
    EXPECT_EQ(layout.block(2, 0).events[0].addr, 106u);
}

TEST(EpochLayout, SkewedSlicingRespectsBounds)
{
    // Sequential gseq over two threads; boundaries move by at most the
    // skew, so every event's epoch differs from its nominal epoch by at
    // most one.
    std::vector<std::vector<Event>> programs(2);
    for (int i = 0; i < 400; ++i) {
        programs[0].push_back(Event::read(0x100, 8));
        programs[1].push_back(Event::read(0x200, 8));
    }
    Trace trace = test::traceOf(std::move(programs));
    std::uint64_t g = 1;
    for (auto &tt : trace.threads)
        for (auto &e : tt.events)
            e.gseq = 0; // interleave round-robin below
    for (int i = 0; i < 400; ++i) {
        trace.threads[0].events[i].gseq = g++;
        trace.threads[1].events[i].gseq = g++;
    }

    const std::size_t H = 100;
    const EpochLayout exact = EpochLayout::byGlobalSeq(trace, H);
    const EpochLayout skewed =
        EpochLayout::byGlobalSeqSkewed(trace, H, 40, 7);

    ASSERT_GE(skewed.numEpochs(), exact.numEpochs() - 1);
    for (ThreadId t = 0; t < 2; ++t) {
        for (EpochId l = 0; l < skewed.numEpochs(); ++l) {
            for (const Event &e : skewed.block(l, t).events) {
                const EpochId nominal = (e.gseq - 1) / H;
                EXPECT_LE(l, nominal + 1);
                EXPECT_GE(l + 1, nominal); // l >= nominal - 1
            }
        }
    }
}

TEST(EpochLayout, SkewedWithZeroSkewMatchesExact)
{
    std::vector<Event> prog;
    for (int i = 0; i < 50; ++i)
        prog.push_back(Event::read(0x100 + i, 8));
    Trace trace = test::traceOf({prog});
    std::uint64_t g = 1;
    for (auto &e : trace.threads[0].events)
        e.gseq = g++;
    const EpochLayout a = EpochLayout::byGlobalSeq(trace, 10);
    const EpochLayout b =
        EpochLayout::byGlobalSeqSkewed(trace, 10, 0, 3);
    ASSERT_EQ(a.numEpochs(), b.numEpochs());
    for (EpochId l = 0; l < a.numEpochs(); ++l)
        EXPECT_EQ(a.block(l, 0).size(), b.block(l, 0).size());
}

TEST(EpochLayout, SkewedSlicingIsDeterministicInSeed)
{
    std::vector<std::vector<Event>> programs(3);
    for (int i = 0; i < 200; ++i)
        for (auto &p : programs)
            p.push_back(Event::read(0x100 + i, 4));
    Trace trace = test::traceOf(std::move(programs));
    std::uint64_t g = 1;
    for (int i = 0; i < 200; ++i)
        for (auto &tt : trace.threads)
            tt.events[i].gseq = g++;

    const EpochLayout a = EpochLayout::byGlobalSeqSkewed(trace, 60, 20, 9);
    const EpochLayout b = EpochLayout::byGlobalSeqSkewed(trace, 60, 20, 9);
    ASSERT_EQ(a.numEpochs(), b.numEpochs());
    for (EpochId l = 0; l < a.numEpochs(); ++l) {
        for (ThreadId t = 0; t < 3; ++t) {
            const BlockView ba = a.block(l, t);
            const BlockView bb = b.block(l, t);
            ASSERT_EQ(ba.size(), bb.size());
            EXPECT_EQ(ba.first, bb.first);
            for (std::size_t i = 0; i < ba.size(); ++i)
                EXPECT_EQ(ba.events[i].gseq, bb.events[i].gseq);
        }
    }
}

TEST(EpochLayout, SkewedSlicingPartitionsEveryEvent)
{
    // Whatever the skew does to the boundaries, the blocks of one thread
    // must stay a contiguous, in-order, exhaustive partition of that
    // thread's filtered stream — the property the butterfly passes and
    // globalIndex identity both rely on.
    std::vector<std::vector<Event>> programs(2);
    for (int i = 0; i < 300; ++i)
        for (auto &p : programs)
            p.push_back(Event::read(0x200 + i, 4));
    Trace trace = test::traceOf(std::move(programs));
    std::uint64_t g = 1;
    for (int i = 0; i < 300; ++i)
        for (auto &tt : trace.threads)
            tt.events[i].gseq = g++;

    const EpochLayout skewed =
        EpochLayout::byGlobalSeqSkewed(trace, 80, 30, 21);
    for (ThreadId t = 0; t < 2; ++t) {
        std::size_t next = 0;
        std::uint64_t prev_gseq = 0;
        for (EpochId l = 0; l < skewed.numEpochs(); ++l) {
            const BlockView blk = skewed.block(l, t);
            EXPECT_EQ(blk.first, next) << "thread " << t << " epoch " << l;
            for (const Event &e : blk.events) {
                EXPECT_GT(e.gseq, prev_gseq);
                prev_gseq = e.gseq;
            }
            next += blk.size();
        }
        EXPECT_EQ(next, trace.threads[t].events.size());
    }
}

TEST(EpochLayout, HeartbeatsWithEmptyEpochs)
{
    // Back-to-back heartbeats produce an empty epoch for every thread; a
    // stalled thread contributes empty blocks while the other advances.
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::heartbeat(),
         Event::read(2)},
        {Event::heartbeat(), Event::heartbeat(), Event::read(3)},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numEpochs(), 3u);
    EXPECT_EQ(layout.block(0, 0).size(), 1u);
    EXPECT_EQ(layout.block(1, 0).size(), 0u); // empty middle epoch
    EXPECT_EQ(layout.block(2, 0).size(), 1u);
    EXPECT_EQ(layout.block(0, 1).size(), 0u);
    EXPECT_EQ(layout.block(1, 1).size(), 0u);
    EXPECT_EQ(layout.block(2, 1).size(), 1u);
    // first still tracks the per-thread filtered offset across empties.
    EXPECT_EQ(layout.block(2, 0).first, 1u);
    EXPECT_EQ(layout.block(2, 1).first, 0u);
}

TEST(EpochLayout, HeartbeatsSingleThreadTrace)
{
    // Degenerate single-thread monitoring: the window schedule still
    // needs well-formed epochs (wings are just the one thread's
    // neighbouring blocks).
    Trace trace = test::traceOf({{Event::read(1), Event::read(2),
                                  Event::heartbeat(), Event::read(3)}});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numThreads(), 1u);
    EXPECT_EQ(layout.numEpochs(), 2u);
    EXPECT_EQ(layout.block(0, 0).size(), 2u);
    EXPECT_EQ(layout.block(1, 0).size(), 1u);
    EXPECT_EQ(layout.block(1, 0).first, 2u);
}

TEST(EpochLayout, HeartbeatsTrailingPartialEpoch)
{
    // Events after the last heartbeat form a final (partial) epoch, and
    // a thread that ends exactly on a heartbeat contributes an empty
    // trailing block rather than losing the epoch.
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::read(2),
         Event::read(3)},
        {Event::read(4), Event::heartbeat()},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numEpochs(), 2u);
    EXPECT_EQ(layout.block(1, 0).size(), 2u);
    EXPECT_EQ(layout.block(1, 1).size(), 0u);
    EXPECT_EQ(layout.block(1, 0).first, 1u);
}

TEST(EpochLayout, DuplicateHeartbeatsShiftDeterministically)
{
    // Heartbeat markers carry no sequence numbers — they are counted
    // positionally. A duplicated (back-to-back) marker therefore does
    // not corrupt the slicing; it inserts an empty epoch for that
    // thread and shifts its subsequent blocks one epoch later. No
    // event may be lost or reordered in the process.
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::heartbeat(),
         Event::heartbeat(), Event::read(2)},
        {Event::read(3), Event::heartbeat(), Event::read(4)},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numEpochs(), 4u);
    // Thread 0: the duplicated markers open two empty epochs.
    EXPECT_EQ(layout.block(0, 0).size(), 1u);
    EXPECT_EQ(layout.block(1, 0).size(), 0u);
    EXPECT_EQ(layout.block(2, 0).size(), 0u);
    EXPECT_EQ(layout.block(3, 0).size(), 1u);
    EXPECT_EQ(layout.block(3, 0).events[0].addr, 2u);
    // Thread 1 is unaffected and pads to the common epoch count.
    EXPECT_EQ(layout.block(1, 1).size(), 1u);
    EXPECT_EQ(layout.block(2, 1).size(), 0u);
    EXPECT_EQ(layout.block(3, 1).size(), 0u);
    // Every non-heartbeat event is in exactly one block.
    std::size_t total = 0;
    for (EpochId l = 0; l < layout.numEpochs(); ++l)
        for (ThreadId t = 0; t < layout.numThreads(); ++t)
            total += layout.block(l, t).size();
    EXPECT_EQ(total, trace.instructionCount());
}

TEST(EpochLayout, SkewedHeartbeatsStayPositional)
{
    // A thread whose clock runs fast emits its markers "early" relative
    // to its peers (out-of-order between threads). There is no global
    // marker order to violate: each thread's k-th marker closes its
    // k-th epoch, so the skewed thread simply lands its events in
    // earlier epochs while its peers keep theirs.
    Trace trace = test::traceOf({
        // Fast thread: all markers up front, events land late.
        {Event::heartbeat(), Event::heartbeat(), Event::read(1),
         Event::read(2)},
        // Slow thread: events first, markers last.
        {Event::read(3), Event::read(4), Event::heartbeat(),
         Event::heartbeat()},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EXPECT_EQ(layout.numEpochs(), 3u);
    EXPECT_EQ(layout.block(0, 0).size(), 0u);
    EXPECT_EQ(layout.block(1, 0).size(), 0u);
    EXPECT_EQ(layout.block(2, 0).size(), 2u);
    EXPECT_EQ(layout.block(0, 1).size(), 2u);
    EXPECT_EQ(layout.block(1, 1).size(), 0u);
    EXPECT_EQ(layout.block(2, 1).size(), 0u);
}

TEST(EpochStream, HeartbeatModeMatchesLayoutOnSkewedMarkers)
{
    // The streaming slicer must agree block-for-block with the
    // materialized layout even when markers are duplicated in one
    // thread and skewed across threads — this is what keeps the
    // service's streamed analysis bit-identical to the client's
    // reference when heartbeats misbehave.
    Trace trace = test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::heartbeat(),
         Event::read(2), Event::heartbeat(), Event::read(3)},
        {Event::heartbeat(), Event::read(4), Event::read(5),
         Event::heartbeat(), Event::read(6)},
        {Event::read(7), Event::heartbeat()},
    });
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EpochStream stream(trace, cfg);
    ASSERT_EQ(stream.numEpochs(), layout.numEpochs());
    ASSERT_EQ(stream.numThreads(), layout.numThreads());

    const std::size_t L = layout.numEpochs();
    for (EpochId l = 0; l < L; ++l) {
        stream.acquire(l);
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            const BlockView a = layout.block(l, t);
            const BlockView b = stream.block(l, t);
            ASSERT_EQ(a.size(), b.size()) << "l=" << l << " t=" << t;
            EXPECT_EQ(a.first, b.first) << "l=" << l << " t=" << t;
            for (std::size_t i = 0; i < a.size(); ++i)
                EXPECT_EQ(a.events[i].addr, b.events[i].addr);
        }
        if (l >= 3)
            stream.retire(l - 3);
    }
    while (stream.residentEpochs() > 0)
        stream.retire(L - stream.residentEpochs());
}

// ------------------------------------------------- zero-copy block views

bool
sameEvent(const Event &a, const Event &b)
{
    const auto fields = [](const Event &e) {
        return std::tie(e.kind, e.nsrc, e.size, e.site, e.addr, e.src0,
                        e.src1, e.gseq);
    };
    return fields(a) == fields(b);
}

/**
 * Checks every block a slicing hands out against the trace it borrows.
 * The checker builds its own filtered copy of each thread, with the
 * stored index of each event, so it knows where a block must lie.
 */
class BlockChecker
{
  public:
    explicit BlockChecker(const Trace &trace)
        : trace_(trace), filtered_(trace.numThreads()),
          stored_(trace.numThreads()), next_(trace.numThreads(), 0)
    {
        for (std::size_t t = 0; t < trace.numThreads(); ++t) {
            const std::vector<Event> &raw = trace.threads[t].events;
            for (std::size_t k = 0; k < raw.size(); ++k) {
                if (raw[k].kind == EventKind::Heartbeat)
                    continue;
                filtered_[t].push_back(raw[k]);
                stored_[t].push_back(k);
            }
        }
    }

    /**
     * Block (l, t), handed out in epoch order per thread: it continues
     * the thread's partition at `first`, reads the filtered events, and
     * is a span of the trace's storage, at the stored position of its
     * first event, unless a marker falls between two of its events —
     * then it is a copy without the marker.
     */
    void
    check(const BlockView &b, ThreadId t)
    {
        ASSERT_EQ(b.first, next_[t]) << "thread " << t;
        next_[t] += b.size();
        ASSERT_LE(next_[t], filtered_[t].size());
        for (std::size_t i = 0; i < b.size(); ++i)
            ASSERT_TRUE(sameEvent(b.events[i], filtered_[t][b.first + i]))
                << "thread " << t << " event " << b.first + i;
        if (b.empty())
            return;
        const std::size_t begin = stored_[t][b.first];
        const bool straddles =
            stored_[t][b.first + b.size() - 1] - begin + 1 != b.size();
        const std::vector<Event> &raw = trace_.threads[t].events;
        const bool in_trace =
            std::less_equal<const Event *>{}(raw.data(), b.events.data()) &&
            std::less<const Event *>{}(b.events.data(),
                                       raw.data() + raw.size());
        if (straddles) {
            EXPECT_FALSE(in_trace) << "thread " << t << " at " << b.first;
            straddling_ += b.size();
        } else {
            EXPECT_EQ(b.events.data(), raw.data() + begin)
                << "thread " << t << " at " << b.first;
        }
    }

    /** Every event was handed out exactly once. */
    void
    expectCovered() const
    {
        for (std::size_t t = 0; t < filtered_.size(); ++t)
            EXPECT_EQ(next_[t], filtered_[t].size()) << "thread " << t;
    }

    /** Events in blocks that straddle a marker. */
    std::uint64_t straddling() const { return straddling_; }

  private:
    const Trace &trace_;
    std::vector<std::vector<Event>> filtered_;
    std::vector<std::vector<std::size_t>> stored_;
    std::vector<std::size_t> next_;
    std::uint64_t straddling_ = 0;
};

/** Check every block of @p layout; returns the straddling event count. */
std::uint64_t
checkLayout(const Trace &trace, const EpochLayout &layout)
{
    BlockChecker checker(trace);
    for (EpochId l = 0; l < layout.numEpochs(); ++l)
        for (ThreadId t = 0; t < layout.numThreads(); ++t)
            checker.check(layout.block(l, t), t);
    checker.expectCovered();
    return checker.straddling();
}

/** Stream every epoch through @p cfg's ring, checking each block while
 *  it is resident; expects copiedEvents() to count the straddlers. */
std::uint64_t
checkStream(const Trace &trace, const EpochStream::Config &cfg)
{
    EpochStream stream(trace, cfg);
    BlockChecker checker(trace);
    const std::size_t W = stream.windowEpochs();
    for (EpochId l = 0; l < stream.numEpochs(); ++l) {
        if (l >= W)
            stream.retire(l - W);
        stream.acquire(l);
        for (ThreadId t = 0; t < stream.numThreads(); ++t)
            checker.check(stream.block(l, t), t);
    }
    for (EpochId l = stream.numEpochs() > W ? stream.numEpochs() - W : 0;
         l < stream.numEpochs(); ++l)
        stream.retire(l);
    checker.expectCovered();
    EXPECT_EQ(stream.copiedEvents(), checker.straddling());
    return stream.copiedEvents();
}

/** An interleaved three-thread trace: gseqs, no markers. */
Trace
interleavedTrace(std::uint64_t seed)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 1500;
    wcfg.seed = seed;
    const Workload w = makeRandomMix(wcfg);
    Rng rng(seed + 1);
    Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    for (const ThreadTrace &t : trace.threads)
        EXPECT_EQ(t.instructionCount(), t.events.size()) << "marked";
    return trace;
}

/** Threads with uneven, duplicated, leading and trailing markers. */
Trace
raggedMarkedTrace()
{
    return test::traceOf({
        {Event::read(1), Event::heartbeat(), Event::heartbeat(),
         Event::read(2), Event::read(3), Event::heartbeat(),
         Event::read(4)},
        {Event::heartbeat(), Event::read(5), Event::read(6),
         Event::heartbeat(), Event::read(7), Event::heartbeat()},
        {Event::read(8), Event::read(9)},
    });
}

TEST(BlockViews, SlicingsOfAnUnmarkedTraceViewItsStorage)
{
    for (std::uint64_t seed : {3u, 11u}) {
        const Trace trace = interleavedTrace(seed);
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 300);
        ASSERT_GT(layout.numEpochs(), 8u);
        EXPECT_EQ(checkLayout(trace, layout), 0u);
        EXPECT_EQ(checkLayout(trace, EpochLayout::uniform(trace, 97)), 0u);
        EXPECT_EQ(checkLayout(trace, EpochLayout::byGlobalSeqSkewed(
                                         trace, 300, 120, seed)),
                  0u);
        EpochStream::Config cfg;
        cfg.globalH = 300;
        EXPECT_EQ(checkStream(trace, cfg), 0u);
    }
}

TEST(BlockViews, HeartbeatSlicingsOfAMarkedTraceViewItsStorage)
{
    const Trace trace = interleavedTrace(5);
    const Trace marked =
        withHeartbeatMarkers(trace, EpochLayout::byGlobalSeq(trace, 300));
    for (const Trace *t : {&marked, &trace}) {
        // Block l of thread t starts starts[t][l] + l events in.
        EXPECT_EQ(checkLayout(*t, EpochLayout::fromHeartbeats(*t)), 0u);
        EpochStream::Config cfg;
        cfg.fromHeartbeats = true;
        EXPECT_EQ(checkStream(*t, cfg), 0u);
    }
    const Trace ragged = raggedMarkedTrace();
    EXPECT_EQ(checkLayout(ragged, EpochLayout::fromHeartbeats(ragged)), 0u);
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EXPECT_EQ(checkStream(ragged, cfg), 0u);
}

TEST(BlockViews, BlocksThatStraddleMarkersAreCopiedWithoutThem)
{
    const Trace trace = interleavedTrace(7);
    const Trace marked =
        withHeartbeatMarkers(trace, EpochLayout::byGlobalSeq(trace, 200));
    const std::size_t source = EpochLayout::fromHeartbeats(marked).numEpochs();
    ASSERT_GT(source, 8u);

    // A forced width cycle, as the adaptive server's force-cycle hook
    // runs it: span-1 epochs stay views, merged ones are copies.
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    std::size_t group = 0;
    cfg.reslice = [&group](EpochId, std::span<const std::size_t>) {
        static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
        return kCycle[group++ % 4];
    };
    EXPECT_GT(checkStream(marked, cfg), 0u);

    group = 0;
    const EpochStream spans_of(marked, cfg);
    const EpochLayout coalesced = EpochLayout::coalescedFromHeartbeats(
        marked, spans_of.realizedSpans());
    EXPECT_GT(checkLayout(marked, coalesced), 0u);
    for (EpochId l = 0; l < coalesced.numEpochs(); ++l)
        for (ThreadId t = 0; t < coalesced.numThreads(); ++t)
            for (const Event &e : coalesced.block(l, t).events)
                EXPECT_NE(e.kind, EventKind::Heartbeat);

    // Cutting a marked trace by another rule straddles markers too.
    const Trace ragged = raggedMarkedTrace();
    EXPECT_GT(checkLayout(ragged, EpochLayout::uniform(ragged, 2)), 0u);
    EXPECT_GT(checkLayout(marked, EpochLayout::byGlobalSeq(marked, 450)),
              0u);
}

// The layouts and streams borrow their trace: none binds a temporary.
template <typename T>
concept SlicesFromHeartbeats =
    requires(T &&t) { EpochLayout::fromHeartbeats(std::forward<T>(t)); };
template <typename T>
concept SlicesUniform =
    requires(T &&t) { EpochLayout::uniform(std::forward<T>(t), 4); };
template <typename T>
concept SlicesByGlobalSeq =
    requires(T &&t) { EpochLayout::byGlobalSeq(std::forward<T>(t), 4); };
template <typename T>
concept SlicesByGlobalSeqSkewed = requires(T &&t) {
    EpochLayout::byGlobalSeqSkewed(std::forward<T>(t), 4, 1, 0);
};
template <typename T>
concept SlicesCoalesced = requires(T &&t, std::span<const std::uint32_t> s) {
    EpochLayout::coalescedFromHeartbeats(std::forward<T>(t), s);
};
template <typename T>
concept Streams =
    requires(T &&t) { EpochStream(std::forward<T>(t), EpochStream::Config{}); };

static_assert(SlicesFromHeartbeats<const Trace &> &&
              !SlicesFromHeartbeats<Trace> &&
              !SlicesFromHeartbeats<const Trace>);
static_assert(SlicesUniform<const Trace &> && !SlicesUniform<Trace> &&
              !SlicesUniform<const Trace>);
static_assert(SlicesByGlobalSeq<const Trace &> &&
              !SlicesByGlobalSeq<Trace> && !SlicesByGlobalSeq<const Trace>);
static_assert(SlicesByGlobalSeqSkewed<const Trace &> &&
              !SlicesByGlobalSeqSkewed<Trace> &&
              !SlicesByGlobalSeqSkewed<const Trace>);
static_assert(SlicesCoalesced<const Trace &> && !SlicesCoalesced<Trace> &&
              !SlicesCoalesced<const Trace>);
static_assert(Streams<const Trace &> && !Streams<Trace> &&
              !Streams<const Trace>);

/** Every block's events, copied out, so a later read can be compared. */
std::vector<std::vector<Event>>
blockContents(const EpochLayout &layout)
{
    std::vector<std::vector<Event>> out;
    for (EpochId l = 0; l < layout.numEpochs(); ++l)
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            const BlockView b = layout.block(l, t);
            out.emplace_back(b.events.begin(), b.events.end());
        }
    return out;
}

void
expectSameContents(const std::vector<std::vector<Event>> &a,
                   const std::vector<std::vector<Event>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].size(), b[k].size()) << "block " << k;
        for (std::size_t i = 0; i < a[k].size(); ++i)
            EXPECT_TRUE(sameEvent(a[k][i], b[k][i])) << "block " << k;
    }
}

TEST(BlockViews, LayoutOutlivesAMoveOfItsTrace)
{
    // The WalkedCase pattern: slice, then move the trace and the layout
    // into one struct, which a growing vector moves again.
    struct Owned
    {
        Trace trace;
        EpochLayout layout;
    };
    std::vector<Owned> owned;
    std::vector<std::vector<std::vector<Event>>> want;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Trace trace = interleavedTrace(seed);
        EpochLayout layout = EpochLayout::byGlobalSeq(trace, 250);
        want.push_back(blockContents(layout));
        owned.push_back({std::move(trace), std::move(layout)});
    }
    for (std::size_t k = 0; k < owned.size(); ++k) {
        expectSameContents(blockContents(owned[k].layout), want[k]);
        EXPECT_EQ(checkLayout(owned[k].trace, owned[k].layout), 0u);
    }
}

TEST(BlockViews, LayoutCopiesOwnTheirCopiedBlocks)
{
    // A copied layout reads its own copies of the straddling blocks, not
    // the original's, and both still view the trace for the others.
    const Trace marked = raggedMarkedTrace();
    const std::uint32_t spans[] = {2, 2};
    std::optional<EpochLayout> original =
        EpochLayout::coalescedFromHeartbeats(marked, spans);
    const auto want = blockContents(*original);
    const EpochLayout copy = *original;
    EpochLayout assigned = EpochLayout::fromHeartbeats(marked);
    assigned = *original;
    original.reset();
    expectSameContents(blockContents(copy), want);
    expectSameContents(blockContents(assigned), want);
    EXPECT_GT(checkLayout(marked, copy), 0u);
}

TEST(LogBuffer, CapacityFromBytes)
{
    LogBuffer buf(8 * 1024, 16);
    EXPECT_EQ(buf.capacity(), 512u);
}

TEST(LogBuffer, ProduceConsumeAndStalls)
{
    LogBuffer buf(32, 16); // 2 records
    EXPECT_TRUE(buf.produce());
    EXPECT_TRUE(buf.produce());
    EXPECT_FALSE(buf.produce()); // full
    EXPECT_EQ(buf.producerStalls(), 1u);
    EXPECT_TRUE(buf.consume());
    EXPECT_TRUE(buf.produce());
    EXPECT_TRUE(buf.consume());
    EXPECT_TRUE(buf.consume());
    EXPECT_FALSE(buf.consume()); // empty
    EXPECT_EQ(buf.consumerIdles(), 1u);
    EXPECT_EQ(buf.produced(), 3u);
    EXPECT_EQ(buf.consumed(), 3u);
}

} // namespace
} // namespace bfly
