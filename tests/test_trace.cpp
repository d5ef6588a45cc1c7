/** @file Unit tests for src/trace: events, traces, epoch slicing, buffer. */

#include <gtest/gtest.h>

#include <algorithm>

#include "memmodel/interleaver.hpp"
#include "tests/helpers.hpp"
#include "trace/log_buffer.hpp"
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
    // service's pipelined analysis bit-identical to the client's
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
