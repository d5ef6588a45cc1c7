/**
 * @file
 * Synthetic parallel workloads with the sharing and allocation structure of
 * the paper's benchmark suite (Splash-2: BARNES, FFT, FMM, OCEAN, LU;
 * Parsec 2.0: BLACKSCHOLES).
 *
 * ADDRCHECK's behaviour depends only on the *pattern* of allocations, frees
 * and accesses across threads and time — not on the arithmetic a benchmark
 * performs — so each generator reproduces its namesake's structure:
 * partitioned grids with boundary exchange (ocean), streaming phases with
 * transposes (fft), allocation-heavy tree building with cross-thread
 * traversal (barnes/fmm), blocked factorization with pivot sharing (lu),
 * and embarrassingly-parallel private computation (blackscholes).
 *
 * Threads synchronize with Barrier events, so every workload is race-free:
 * the exact-oracle error count is zero unless a bug is injected
 * (see bugs.hpp), which makes every butterfly-flagged event a measurable
 * false positive.
 */

#ifndef BUTTERFLY_WORKLOADS_WORKLOAD_HPP
#define BUTTERFLY_WORKLOADS_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/heap.hpp"
#include "common/rng.hpp"
#include "staticpass/site_table.hpp"
#include "trace/event.hpp"

namespace bfly {

/** Generation knobs common to all workloads. */
struct WorkloadConfig
{
    unsigned numThreads = 4;
    std::uint64_t seed = 1;
    /** Approximate events generated per thread. */
    std::size_t instrPerThread = 20000;
    /**
     * Target events per thread per algorithmic timestep. Real Splash-2
     * timesteps span millions of instructions — far more than an epoch —
     * so allocation churn and the cross-thread accesses that follow it
     * are usually epochs apart. Scaled-down runs must preserve that
     * ratio: benchmarks set this to several small-epoch lengths.
     */
    std::size_t phaseEvents = 700;
    /**
     * Idle instructions per thread between the initialization phase and
     * the main loop (and before teardown), mimicking the long sequential
     * init of the real benchmarks. Prevents the initial allocations and
     * final frees from being potentially concurrent with steady-state
     * accesses. 0 = none (unit tests).
     */
    std::size_t warmupNops = 0;
};

/** A generated workload: per-thread programs plus its heap window. */
struct Workload
{
    std::string name;
    std::vector<std::vector<Event>> programs;
    Addr heapBase = 0;
    Addr heapLimit = 0;
    /** Emitting sites the generator declared via beginSite; every event
     *  carries the id of the site that emitted it (kNoSite if none was
     *  active). Input to the static elision pass (src/staticpass/). */
    staticpass::SiteTable sites;

    std::size_t
    totalEvents() const
    {
        std::size_t n = 0;
        for (const auto &p : programs)
            n += p.size();
        return n;
    }
};

/**
 * Helper for emitting per-thread event programs against a shared simulated
 * heap. Tracks per-thread event counts so kernels can run until they hit
 * the configured budget. Each thread's program is reserved up front at
 * the power of two at or above that budget, the capacity push_back's
 * doubling would reach anyway, so a kernel that ends inside it (OCEAN at
 * benchmark sizes) never reallocates or copies its program.
 */
class ProgramBuilder
{
  public:
    ProgramBuilder(const WorkloadConfig &config, Addr heap_base,
                   std::size_t heap_size);

    /**
     * Declare the emitting site for everything emitted next, until the
     * next beginSite. Site names are one per static kernel location
     * ("ocean/interior-sweep"), shared by all threads executing it —
     * the classification pass reasons about the location, not the
     * thread. Returns the interned id for tests.
     */
    staticpass::SiteId beginSite(const std::string &name);

    void read(ThreadId t, Addr addr, std::uint16_t size = 8);
    void write(ThreadId t, Addr addr, std::uint16_t size = 8);
    void nop(ThreadId t, std::size_t count = 1);

    /** Emit an arbitrary event (taint sources, assigns, uses, ...). */
    void emit(ThreadId t, const Event &e);

    /** Allocate from the shared heap, emitting an Alloc event. */
    Addr malloc(ThreadId t, std::size_t size);

    /** Free a block, emitting a Free event carrying the block size. */
    void free(ThreadId t, Addr addr);

    /** Emit a Barrier on every thread. */
    void barrier();

    /** Events emitted so far by thread @p t. */
    std::size_t emitted(ThreadId t) const { return programs_[t].size(); }

    /** True once every thread has hit the per-thread budget. */
    bool budgetExhausted() const;

    Rng &rng() { return rng_; }
    const WorkloadConfig &config() const { return config_; }
    SimHeap &heap() { return heap_; }

    Workload finish(std::string name);

  private:
    WorkloadConfig config_;
    Rng rng_;
    SimHeap heap_;
    Addr heapBase_;
    std::size_t heapSize_;
    std::vector<std::vector<Event>> programs_;
    staticpass::SiteTable sites_;
    staticpass::SiteId site_ = staticpass::kNoSite;
};

/** Workload generators (one per paper benchmark). */
Workload makeBarnes(const WorkloadConfig &config);
Workload makeFft(const WorkloadConfig &config);
Workload makeFmm(const WorkloadConfig &config);
Workload makeOcean(const WorkloadConfig &config);
Workload makeBlackscholes(const WorkloadConfig &config);
Workload makeLu(const WorkloadConfig &config);

/** Unstructured random mix (tests, ablations). */
Workload makeRandomMix(const WorkloadConfig &config);

/** Taint-oriented workload: assignments, taint sources, critical uses. */
Workload makeTaintMix(const WorkloadConfig &config);

/** Registry of the six paper benchmarks, in the paper's order. */
using WorkloadFactory = Workload (*)(const WorkloadConfig &);
const std::vector<std::pair<std::string, WorkloadFactory>> &
paperWorkloads();

} // namespace bfly

#endif // BUTTERFLY_WORKLOADS_WORKLOAD_HPP
