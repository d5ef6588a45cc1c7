/**
 * @file
 * Unit tests for the butterfly core scaffolding: instruction ids and the
 * strictly-before relation (Section 6.2), butterfly position
 * classification, and the exact pass ordering of WindowSchedule
 * (Section 4.3's four steps).
 */

#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "butterfly/ids.hpp"
#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "tests/helpers.hpp"

namespace bfly {
namespace {

TEST(InstrId, PackUnpackRoundTrip)
{
    const InstrId ids[] = {
        {0, 0, 0},
        {5, 3, 17},
        {1000, 255, 0xffffffff},
        {(1u << 24) - 1, 7, 42},
    };
    for (const InstrId &id : ids) {
        const InstrId back = InstrId::unpack(id.pack());
        EXPECT_EQ(back.l, id.l);
        EXPECT_EQ(back.t, id.t);
        EXPECT_EQ(back.i, id.i);
    }
}

TEST(InstrId, PackOrdersWithinThread)
{
    EXPECT_LT((InstrId{1, 2, 3}.pack()), (InstrId{1, 2, 4}.pack()));
    EXPECT_LT((InstrId{1, 2, 3}.pack()), (InstrId{2, 2, 0}.pack()));
}

TEST(StrictlyBefore, NonAdjacentEpochsAlwaysOrdered)
{
    const InstrId a{0, 0, 5};
    const InstrId b{2, 1, 0};
    EXPECT_TRUE(strictlyBefore(a, b, true));
    EXPECT_TRUE(strictlyBefore(a, b, false)); // even relaxed
    EXPECT_FALSE(strictlyBefore(b, a, true));
}

TEST(StrictlyBefore, ProgramOrderOnlyUnderSC)
{
    const InstrId a{1, 0, 3};
    const InstrId b{1, 0, 7};
    EXPECT_TRUE(strictlyBefore(a, b, true));
    EXPECT_FALSE(strictlyBefore(a, b, false)); // relaxed: no such order
    EXPECT_FALSE(strictlyBefore(b, a, true));

    const InstrId later_epoch{2, 0, 0};
    EXPECT_TRUE(strictlyBefore(a, later_epoch, true));
    EXPECT_FALSE(strictlyBefore(a, later_epoch, false));
}

TEST(StrictlyBefore, AdjacentEpochsCrossThreadUnordered)
{
    const InstrId a{1, 0, 3};
    const InstrId b{2, 1, 0};
    EXPECT_FALSE(strictlyBefore(a, b, true));
    EXPECT_FALSE(strictlyBefore(b, a, true));
}

TEST(Classify, ButterflyAnatomy)
{
    // Butterfly with body (5, 2).
    EXPECT_EQ(classify(5, 2, 5, 2), WingPosition::Body);
    EXPECT_EQ(classify(5, 2, 4, 2), WingPosition::Head);
    EXPECT_EQ(classify(5, 2, 6, 2), WingPosition::Tail);
    EXPECT_EQ(classify(5, 2, 4, 0), WingPosition::Wings);
    EXPECT_EQ(classify(5, 2, 5, 0), WingPosition::Wings);
    EXPECT_EQ(classify(5, 2, 6, 0), WingPosition::Wings);
    EXPECT_EQ(classify(5, 2, 3, 0), WingPosition::BeforeWindow);
    EXPECT_EQ(classify(5, 2, 3, 2), WingPosition::BeforeWindow);
    EXPECT_EQ(classify(5, 2, 7, 0), WingPosition::AfterWindow);
}

/**
 * Records every hook call to verify the Section 4.3 schedule, and the
 * thread each hook (beginPass included) ran on.
 */
class RecordingDriver : public AnalysisDriver
{
  public:
    std::vector<std::string> calls;
    std::vector<std::thread::id> threads;

    void
    pass1(const BlockView &block) override
    {
        threads.push_back(std::this_thread::get_id());
        calls.push_back("p1(" + std::to_string(block.epoch) + "," +
                        std::to_string(block.thread) + ")");
    }
    void
    pass2(const BlockView &block) override
    {
        threads.push_back(std::this_thread::get_id());
        calls.push_back("p2(" + std::to_string(block.epoch) + "," +
                        std::to_string(block.thread) + ")");
    }
    void
    finalizeEpoch(EpochId l) override
    {
        threads.push_back(std::this_thread::get_id());
        calls.push_back("fin(" + std::to_string(l) + ")");
    }
    void
    beginPass(EpochId l, bool second) override
    {
        (void)l;
        (void)second;
        threads.push_back(std::this_thread::get_id());
    }

    /** Every hook, one beginPass per pass, ran on thread @p id. */
    void
    expectRanOn(std::thread::id id, std::size_t epochs) const
    {
        EXPECT_EQ(threads.size(), calls.size() + 2 * epochs);
        for (const std::thread::id ran : threads)
            EXPECT_EQ(ran, id);
    }

    /** Every hook, one beginPass per pass, ran on the calling thread. */
    void
    expectRanOnThisThread(std::size_t epochs) const
    {
        expectRanOn(std::this_thread::get_id(), epochs);
    }
};

TEST(WindowSchedule, FourStepOrder)
{
    // 2 threads x 3 epochs, one event per block.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    RecordingDriver driver;
    WindowSchedule().run(layout, driver);

    const std::vector<std::string> expected = {
        "p1(0,0)", "p1(0,1)",             // epoch 0 arrives
        "p1(1,0)", "p1(1,1)",             // epoch 1 arrives...
        "p2(0,0)", "p2(0,1)", "fin(0)",   // ...epoch 0's wings complete
        "p1(2,0)", "p1(2,1)",
        "p2(1,0)", "p2(1,1)", "fin(1)",
        "p2(2,0)", "p2(2,1)", "fin(2)",   // trace boundary
    };
    EXPECT_EQ(driver.calls, expected);
    driver.expectRanOnThisThread(3);
}

TEST(WindowSchedule, EmptyTraceIsANoOp)
{
    Trace trace = test::traceOf({{}});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    RecordingDriver driver;
    WindowSchedule().run(layout, driver);
    // A single (empty) epoch still flows through both passes.
    EXPECT_EQ(driver.calls,
              (std::vector<std::string>{"p1(0,0)", "p2(0,0)", "fin(0)"}));
    driver.expectRanOnThisThread(1);
}

TEST(WindowSchedule, ParallelFlagIsIgnored)
{
    // The constructor's parameters survive only for the benchmark's
    // WindowSchedule(true, &pool) spelling: run() must still be the
    // exact walk on the calling thread, whatever the flag and the pool.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog, prog});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    RecordingDriver reference;
    WindowSchedule().run(layout, reference);
    ASSERT_EQ(reference.calls.size(), 3u * 3 * 2 + 3);
    reference.expectRanOnThisThread(3);

    WorkerPool pool(3);
    RecordingDriver flagged;
    WindowSchedule(true, &pool).run(layout, flagged);
    EXPECT_EQ(flagged.calls, reference.calls);
    flagged.expectRanOnThisThread(3);

    RecordingDriver no_pool;
    WindowSchedule(true, nullptr).run(layout, no_pool);
    EXPECT_EQ(no_pool.calls, reference.calls);
    no_pool.expectRanOnThisThread(3);

    // runPipelined, kept for the benchmark's traced serve replay, is the
    // same walk over a stream.
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EpochStream stream(trace, cfg);
    RecordingDriver forwarded;
    WindowSchedule(true, &pool).runPipelined(stream, forwarded);
    EXPECT_EQ(forwarded.calls, reference.calls);
    forwarded.expectRanOnThisThread(3);
    EXPECT_EQ(stream.residentEpochs(), 0u);
}

TEST(WindowSchedule, HooksRunOnTheThreadThatCallsRun)
{
    // The service walks each session's driver on a pool worker, not on
    // the thread that built the trace: every hook must follow run()'s
    // caller, over a layout and over a stream alike.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EpochStream stream(trace, cfg);

    RecordingDriver laid;
    RecordingDriver streamed;
    std::thread::id walker;
    std::thread([&] {
        walker = std::this_thread::get_id();
        WindowSchedule().run(layout, laid);
        WindowSchedule().run(stream, streamed);
    }).join();

    ASSERT_NE(walker, std::this_thread::get_id());
    ASSERT_EQ(laid.calls.size(), 3u * 2 * 2 + 3);
    laid.expectRanOn(walker, 3);
    EXPECT_EQ(streamed.calls, laid.calls);
    streamed.expectRanOn(walker, 3);
    EXPECT_EQ(stream.residentEpochs(), 0u);
}

} // namespace
} // namespace bfly
