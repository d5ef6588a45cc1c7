/**
 * @file
 * Tests for the workload generators: determinism, budget adherence,
 * balanced barriers, heap discipline, sharing structure, and bug
 * injection.
 */

#include <gtest/gtest.h>

#include <bit>

#include "memmodel/interleaver.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

WorkloadConfig
smallConfig(std::uint64_t seed = 7)
{
    WorkloadConfig cfg;
    cfg.numThreads = 4;
    cfg.instrPerThread = 3000;
    cfg.seed = seed;
    return cfg;
}

class PaperWorkloads
    : public ::testing::TestWithParam<
          std::pair<std::string, WorkloadFactory>>
{};

TEST_P(PaperWorkloads, Deterministic)
{
    const auto &[name, factory] = GetParam();
    const Workload a = factory(smallConfig());
    const Workload b = factory(smallConfig());
    ASSERT_EQ(a.programs.size(), b.programs.size());
    for (std::size_t t = 0; t < a.programs.size(); ++t) {
        ASSERT_EQ(a.programs[t].size(), b.programs[t].size()) << name;
        for (std::size_t i = 0; i < a.programs[t].size(); ++i) {
            EXPECT_EQ(a.programs[t][i].addr, b.programs[t][i].addr);
            EXPECT_EQ(a.programs[t][i].kind, b.programs[t][i].kind);
        }
    }
}

TEST_P(PaperWorkloads, MeetsBudgetWithoutExplosion)
{
    const auto &[name, factory] = GetParam();
    const Workload w = factory(smallConfig());
    for (const auto &prog : w.programs) {
        EXPECT_GE(prog.size(), smallConfig().instrPerThread) << name;
        // One phase of overshoot is acceptable; unbounded growth is not.
        EXPECT_LE(prog.size(), 8 * smallConfig().instrPerThread) << name;
    }
}

TEST_P(PaperWorkloads, BarriersBalancedAcrossThreads)
{
    const auto &[name, factory] = GetParam();
    const Workload w = factory(smallConfig());
    std::size_t expected = 0;
    for (std::size_t t = 0; t < w.programs.size(); ++t) {
        std::size_t count = 0;
        for (const Event &e : w.programs[t]) {
            if (e.kind == EventKind::Barrier)
                ++count;
        }
        if (t == 0)
            expected = count;
        EXPECT_EQ(count, expected) << name << " thread " << t;
    }
    EXPECT_GT(expected, 0u) << name;
}

TEST_P(PaperWorkloads, EventsStayInsideHeapWindow)
{
    const auto &[name, factory] = GetParam();
    const Workload w = factory(smallConfig());
    for (const auto &prog : w.programs) {
        for (const Event &e : prog) {
            if (e.addr == kNoAddr || !e.isMemoryAccess())
                continue;
            EXPECT_GE(e.addr, w.heapBase) << name;
            EXPECT_LT(e.addr, w.heapLimit) << name;
        }
    }
}

TEST_P(PaperWorkloads, FreesCarrySizes)
{
    const auto &[name, factory] = GetParam();
    const Workload w = factory(smallConfig());
    std::size_t allocs = 0, frees = 0;
    for (const auto &prog : w.programs) {
        for (const Event &e : prog) {
            if (e.kind == EventKind::Alloc) {
                ++allocs;
                EXPECT_GT(e.size, 0) << name;
            }
            if (e.kind == EventKind::Free) {
                ++frees;
                EXPECT_GT(e.size, 0) << name;
            }
        }
    }
    EXPECT_GT(allocs, 0u) << name;
    EXPECT_EQ(allocs, frees) << name << " leaks allocations";
}

INSTANTIATE_TEST_SUITE_P(
    Suite, PaperWorkloads, ::testing::ValuesIn(paperWorkloads()),
    [](const auto &info) { return info.param.first; });

TEST(ProgramBuilder, OceanKeepsTheCapacityItReserved)
{
    // session-ocean's shape. The builder reserves every program before
    // the first event, and every thread ends inside that reservation,
    // so no program reallocates (or copies itself) while it grows.
    WorkloadConfig cfg;
    cfg.numThreads = 4;
    cfg.instrPerThread = 100000;
    cfg.phaseEvents = 9000;
    cfg.warmupNops = 3 * 2048;
    const Workload empty =
        ProgramBuilder(cfg, 0x10000000, 1 << 20).finish("empty");
    for (const auto &program : empty.programs)
        EXPECT_EQ(program.capacity(), std::bit_ceil(cfg.instrPerThread));
    for (std::uint64_t seed : {1u, 2u}) {
        cfg.seed = seed;
        const Workload w = makeOcean(cfg);
        for (const auto &program : w.programs) {
            EXPECT_GT(program.size(), cfg.instrPerThread);
            EXPECT_EQ(program.capacity(),
                      std::bit_ceil(cfg.instrPerThread));
        }
    }
}

TEST(ProgramBuilder, NoKernelHoldsMoreThanDoublingGave)
{
    // push_back's doubling ends at the power of two at or above a
    // program's final size; the reservation must never hold more, even
    // where a kernel overshoots its budget (LU ends up to 36% past it
    // at the default sizes, and about twice past it on eight threads).
    std::vector<std::pair<std::string, WorkloadFactory>> kernels =
        paperWorkloads();
    kernels.emplace_back("randommix", makeRandomMix);
    kernels.emplace_back("taintmix", makeTaintMix);
    WorkloadConfig defaults;
    WorkloadConfig warm = smallConfig();
    warm.warmupNops = 3 * 512;
    warm.phaseEvents = 1500;
    WorkloadConfig wide;
    wide.numThreads = 8;
    wide.phaseEvents = 2000;
    wide.warmupNops = 2000;
    for (const WorkloadConfig &cfg : {defaults, smallConfig(), warm, wide}) {
        for (const auto &[name, factory] : kernels) {
            const Workload w = factory(cfg);
            for (const auto &program : w.programs)
                EXPECT_LE(program.capacity(), std::bit_ceil(program.size()))
                    << name << " at " << cfg.instrPerThread << " x "
                    << cfg.numThreads;
        }
    }
}

TEST(Workloads, SharingStructureDiffers)
{
    // blackscholes is private-data-parallel: after its setup phase no
    // address is written by one thread and read by another. ocean, by
    // contrast, must have cross-thread readers.
    auto cross_thread_reads = [](const Workload &w) {
        std::map<Addr, ThreadId> writer;
        for (std::size_t t = 0; t < w.programs.size(); ++t) {
            for (const Event &e : w.programs[t]) {
                if (e.kind == EventKind::Write ||
                    e.kind == EventKind::Alloc) {
                    writer[e.addr] = static_cast<ThreadId>(t);
                }
            }
        }
        std::size_t cross = 0;
        for (std::size_t t = 0; t < w.programs.size(); ++t) {
            for (const Event &e : w.programs[t]) {
                if (e.kind != EventKind::Read)
                    continue;
                auto it = writer.find(e.addr);
                if (it != writer.end() && it->second != t)
                    ++cross;
            }
        }
        return cross;
    };

    const Workload ocean = makeOcean(smallConfig());
    EXPECT_GT(cross_thread_reads(ocean), 0u);
}

TEST(Workloads, RandomMixAllocatesAndFrees)
{
    const Workload w = makeRandomMix(smallConfig());
    std::size_t allocs = 0;
    for (const auto &prog : w.programs)
        for (const Event &e : prog)
            allocs += e.kind == EventKind::Alloc;
    EXPECT_GT(allocs, 10u);
}

TEST(Workloads, TaintMixEmitsAllTaintEventKinds)
{
    const Workload w = makeTaintMix(smallConfig());
    bool has_src = false, has_untaint = false, has_assign = false,
         has_use = false;
    for (const auto &prog : w.programs) {
        for (const Event &e : prog) {
            has_src |= e.kind == EventKind::TaintSrc;
            has_untaint |= e.kind == EventKind::Untaint;
            has_assign |= e.kind == EventKind::Assign;
            has_use |= e.kind == EventKind::Use;
        }
    }
    EXPECT_TRUE(has_src && has_untaint && has_assign && has_use);
}

TEST(BugInjection, PlantsTheRequestedCount)
{
    Workload w = makeRandomMix(smallConfig());
    Rng rng(3);
    const auto bugs = injectBugs(w, BugKind::UseAfterFree, 5, rng);
    EXPECT_EQ(bugs.size(), 5u);
    // Injected addresses live outside the original heap and inside the
    // widened monitored window.
    for (const auto &bug : bugs) {
        EXPECT_GE(bug.addr, 0x10000000u);
        EXPECT_LT(bug.addr, w.heapLimit);
    }
}

TEST(BugInjection, WarmupSpacersAreEmitted)
{
    WorkloadConfig cfg = smallConfig();
    cfg.warmupNops = 500;
    const Workload w = makeFft(cfg);
    std::size_t nops = 0;
    for (const Event &e : w.programs[0])
        nops += e.kind == EventKind::Nop;
    EXPECT_GE(nops, 1000u); // startup + cooldown spacer
}

} // namespace
} // namespace bfly
