/**
 * @file
 * Unit tests for the butterfly core scaffolding: instruction ids and the
 * strictly-before relation (Section 6.2), butterfly position
 * classification, and the exact pass ordering of WindowSchedule
 * (Section 4.3's four steps).
 */

#include <algorithm>
#include <mutex>
#include <string>

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

/** Records every hook call to verify the Section 4.3 schedule. */
class RecordingDriver : public AnalysisDriver
{
  public:
    std::vector<std::string> calls;

    void
    pass1(const BlockView &block) override
    {
        calls.push_back("p1(" + std::to_string(block.epoch) + "," +
                        std::to_string(block.thread) + ")");
    }
    void
    pass2(const BlockView &block) override
    {
        calls.push_back("p2(" + std::to_string(block.epoch) + "," +
                        std::to_string(block.thread) + ")");
    }
    void
    finalizeEpoch(EpochId l) override
    {
        calls.push_back("fin(" + std::to_string(l) + ")");
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
}

TEST(WindowSchedule, ParallelFlagIsIgnored)
{
    // The constructor's bool survives only for the benchmark's
    // WindowSchedule(true, &pool) spelling: run() must still be the
    // exact single-threaded walk, whatever the flag and the pool.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog, prog});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    RecordingDriver reference;
    WindowSchedule().run(layout, reference);
    ASSERT_EQ(reference.calls.size(), 3u * 3 * 2 + 3);

    WorkerPool pool(3);
    RecordingDriver flagged;
    WindowSchedule(true, &pool).run(layout, flagged);
    EXPECT_EQ(flagged.calls, reference.calls);

    RecordingDriver no_pool;
    WindowSchedule(true, nullptr).run(layout, no_pool);
    EXPECT_EQ(no_pool.calls, reference.calls);
}

/** RecordingDriver for the task graph: hooks arrive from pool threads,
 *  so they are serialized, and the two ordering declarations the graph
 *  reads are set per test. */
class GraphRecordingDriver : public RecordingDriver
{
  public:
    GraphRecordingDriver(bool strict, bool own_next)
        : strict_(strict), ownNext_(own_next)
    {
    }

    void
    pass1(const BlockView &block) override
    {
        std::lock_guard<std::mutex> g(m_);
        RecordingDriver::pass1(block);
    }
    void
    pass2(const BlockView &block) override
    {
        std::lock_guard<std::mutex> g(m_);
        RecordingDriver::pass2(block);
    }
    void
    finalizeEpoch(EpochId l) override
    {
        std::lock_guard<std::mutex> g(m_);
        RecordingDriver::finalizeEpoch(l);
    }
    bool finalizeAfterPass2() const override { return strict_; }
    bool pass2ReadsOwnNextPass1() const override { return ownNext_; }

    /** Position of @p call in the recorded order; fails if absent. */
    std::size_t
    at(const std::string &call) const
    {
        const auto it = std::find(calls.begin(), calls.end(), call);
        EXPECT_NE(it, calls.end()) << call << " never ran";
        return static_cast<std::size_t>(it - calls.begin());
    }

  private:
    std::mutex m_;
    const bool strict_;
    const bool ownNext_;
};

std::string
p1(EpochId l, std::size_t t)
{
    return "p1(" + std::to_string(l) + "," + std::to_string(t) + ")";
}
std::string
p2(EpochId l, std::size_t t)
{
    return "p2(" + std::to_string(l) + "," + std::to_string(t) + ")";
}
std::string
fin(EpochId l)
{
    return "fin(" + std::to_string(l) + ")";
}

/** 3 threads x 5 heartbeat-delimited epochs of uneven block sizes. */
Trace
fiveEpochTrace()
{
    std::vector<std::vector<Event>> programs(3);
    for (std::size_t t = 0; t < programs.size(); ++t)
        for (EpochId l = 0; l < 5; ++l) {
            if (l > 0)
                programs[t].push_back(Event::heartbeat());
            for (std::size_t i = 0; i < 1 + (l + t) % 3; ++i)
                programs[t].push_back(Event::nop());
        }
    return test::traceOf(std::move(programs));
}

/** Run @p driver through the task graph over @p trace's heartbeat
 *  epochs on a @p workers-thread pool; returns the epoch count. */
std::size_t
runGraph(const Trace &trace, std::size_t workers,
         GraphRecordingDriver &driver)
{
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EpochStream stream(trace, cfg);
    WorkerPool pool(workers);
    const PipelineStats stats =
        WindowSchedule(false, &pool).runPipelined(stream, driver);
    EXPECT_EQ(stats.epochsFinalized, stream.numEpochs());
    return stream.numEpochs();
}

/** Orderings every driver gets from the graph (window.cpp's edges). */
void
expectWindowEdges(const GraphRecordingDriver &d, std::size_t L,
                  std::size_t T)
{
    ASSERT_EQ(d.calls.size(), 2 * L * T + L) << "a hook ran twice or never";
    for (EpochId l = 0; l < L; ++l) {
        if (l >= 1) {
            EXPECT_LT(d.at(fin(l - 1)), d.at(fin(l)));
        }
        for (std::size_t t = 0; t < T; ++t) {
            EXPECT_LT(d.at(p1(l, t)), d.at(p2(l, t)));
            if (l + 1 < L) {
                // Anti-dependency: pass 1 of l+1 reads the SOS that
                // finalizing l advances.
                EXPECT_LT(d.at(p1(l + 1, t)), d.at(fin(l)));
                EXPECT_LT(d.at(fin(l)), d.at(p2(l + 1, t)));
                for (std::size_t u = 0; u < T; ++u) {
                    if (u != t) { // the wings
                        EXPECT_LT(d.at(p1(l + 1, u)), d.at(p2(l, t)));
                    }
                }
            }
            if (l + 2 < L) { // the window: l+2 is admitted after fin(l)
                EXPECT_LT(d.at(fin(l)), d.at(p1(l + 2, t)));
            }
            if (l + 3 < L) { // retirement of l precedes admitting l+3
                EXPECT_LT(d.at(p2(l, t)), d.at(p1(l + 3, t)));
            }
        }
    }
}

TEST(WindowSchedule, GraphPreservesStrictWindowOrder)
{
    // A strict driver (the default) sees the four-step order up to
    // reordering within a pass: pass 2 of epoch l after every wing, and
    // fin(l) after all of epoch l's pass 2 and before any of l+1's.
    // Several rounds, since the pool picks a different interleaving
    // each time.
    const Trace trace = fiveEpochTrace();
    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE(round);
        GraphRecordingDriver d(/*strict=*/true, /*own_next=*/false);
        const std::size_t L = runGraph(trace, 3, d);
        ASSERT_EQ(L, 5u);
        expectWindowEdges(d, L, 3);
        for (EpochId l = 0; l < L; ++l)
            for (std::size_t t = 0; t < 3; ++t)
                EXPECT_LT(d.at(p2(l, t)), d.at(fin(l)));
    }
}

TEST(WindowSchedule, GraphHonorsRelaxedDriverEdges)
{
    // A relaxed driver (ADDRCHECK's declaration) drops fin(l)'s wait on
    // pass 2 but keeps every edge pass 1 and the SOS need; declaring
    // pass2ReadsOwnNextPass1 adds P2(l,t) <- P1(l+1,t).
    const Trace trace = fiveEpochTrace();
    for (const bool own_next : {false, true}) {
        for (int round = 0; round < 40; ++round) {
            SCOPED_TRACE(std::string(own_next ? "own-next " : "") +
                         std::to_string(round));
            GraphRecordingDriver d(/*strict=*/false, own_next);
            const std::size_t L = runGraph(trace, 3, d);
            ASSERT_EQ(L, 5u);
            expectWindowEdges(d, L, 3);
            if (!own_next)
                continue;
            for (EpochId l = 0; l + 1 < L; ++l)
                for (std::size_t t = 0; t < 3; ++t)
                    EXPECT_LT(d.at(p1(l + 1, t)), d.at(p2(l, t)));
        }
    }
}

TEST(WindowScheduleDeath, RunPipelinedWithoutPoolIsRejected)
{
    // The graph borrows the caller's pool; a schedule built without one
    // must refuse loudly rather than run nothing.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop()};
    const Trace trace = test::traceOf({prog, prog});
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EXPECT_DEATH(
        {
            EpochStream stream(trace, cfg);
            RecordingDriver driver;
            WindowSchedule().runPipelined(stream, driver);
        },
        "runPipelined needs a worker pool");
}

} // namespace
} // namespace bfly
