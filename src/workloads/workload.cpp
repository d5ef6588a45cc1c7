#include "workloads/workload.hpp"

#include <bit>

#include "common/logging.hpp"

namespace bfly {

ProgramBuilder::ProgramBuilder(const WorkloadConfig &config, Addr heap_base,
                               std::size_t heap_size)
    : config_(config), rng_(config.seed), heap_(heap_base, heap_size),
      heapBase_(heap_base), heapSize_(heap_size),
      programs_(config.numThreads)
{
    ensure(config_.numThreads > 0, "workload needs at least one thread");
    // Every kernel runs until budgetExhausted(), so each thread emits at
    // least instrPerThread events: reserving the power of two doubling
    // would reach for that budget never holds more than doubling did,
    // and a thread that ends below it never reallocates.
    for (auto &p : programs_)
        p.reserve(std::bit_ceil(config_.instrPerThread));
}

staticpass::SiteId
ProgramBuilder::beginSite(const std::string &name)
{
    site_ = sites_.intern(name);
    return site_;
}

void
ProgramBuilder::read(ThreadId t, Addr addr, std::uint16_t size)
{
    Event e = Event::read(addr, size);
    e.site = site_;
    programs_[t].push_back(e);
}

void
ProgramBuilder::write(ThreadId t, Addr addr, std::uint16_t size)
{
    Event e = Event::write(addr, size);
    e.site = site_;
    programs_[t].push_back(e);
}

void
ProgramBuilder::nop(ThreadId t, std::size_t count)
{
    Event e = Event::nop();
    e.site = site_;
    for (std::size_t k = 0; k < count; ++k)
        programs_[t].push_back(e);
}

void
ProgramBuilder::emit(ThreadId t, const Event &e)
{
    Event stamped = e;
    if (stamped.site == staticpass::kNoSite)
        stamped.site = site_;
    programs_[t].push_back(stamped);
}

Addr
ProgramBuilder::malloc(ThreadId t, std::size_t size)
{
    const Addr addr = heap_.malloc(size);
    ensure(addr != kNoAddr, "workload heap exhausted; raise heap size");
    Event e = Event::alloc(addr, static_cast<std::uint16_t>(size));
    e.site = site_;
    programs_[t].push_back(e);
    return addr;
}

void
ProgramBuilder::free(ThreadId t, Addr addr)
{
    const std::size_t size = heap_.free(addr);
    ensure(size > 0, "workload freed an unallocated block (generator bug)");
    Event e = Event::freeOf(addr, static_cast<std::uint16_t>(size));
    e.site = site_;
    programs_[t].push_back(e);
}

void
ProgramBuilder::barrier()
{
    for (auto &p : programs_)
        p.push_back(Event::barrier());
}

bool
ProgramBuilder::budgetExhausted() const
{
    for (const auto &p : programs_) {
        if (p.size() < config_.instrPerThread)
            return false;
    }
    return true;
}

Workload
ProgramBuilder::finish(std::string name)
{
    Workload w;
    w.name = std::move(name);
    w.programs = std::move(programs_);
    w.heapBase = heapBase_;
    w.heapLimit = heapBase_ + heapSize_;
    w.sites = std::move(sites_);
    return w;
}

const std::vector<std::pair<std::string, WorkloadFactory>> &
paperWorkloads()
{
    static const std::vector<std::pair<std::string, WorkloadFactory>> reg{
        {"barnes", makeBarnes},
        {"fft", makeFft},
        {"fmm", makeFmm},
        {"ocean", makeOcean},
        {"blackscholes", makeBlackscholes},
        {"lu", makeLu},
    };
    return reg;
}

} // namespace bfly
