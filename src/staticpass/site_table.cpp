#include "staticpass/site_table.hpp"

#include <sstream>

#include "common/logging.hpp"

namespace bfly::staticpass {

namespace {

const std::string kUnknownName = "?";

/** Nops carry no address; bucket them all into region 0 per thread. */
std::uint64_t
pseudoRegion(const Event &e)
{
    return e.kind == EventKind::Nop ? 0 : (e.addr >> 6);
}

/** One pseudo-site name per (thread, kind, 64-byte address region). */
std::string
pseudoSiteName(ThreadId tid, const Event &e)
{
    std::ostringstream os;
    os << "t" << tid << "/" << eventKindName(e.kind) << "/0x" << std::hex
       << pseudoRegion(e);
    return os.str();
}

/** Shared stamping state: interning is slow, regions repeat a lot. */
struct Stamper
{
    SiteTable &table;
    std::unordered_map<std::uint64_t, SiteId> cache{};
    std::size_t stamped = 0;

    void
    stampThread(ThreadId tid, std::vector<Event> &events)
    {
        for (Event &e : events) {
            if (e.site != kNoSite ||
                e.kind == EventKind::SiteSummary ||
                (e.addr == kNoAddr && e.kind != EventKind::Nop))
                continue;
            const std::uint64_t key =
                (static_cast<std::uint64_t>(tid) << 48) ^
                (static_cast<std::uint64_t>(e.kind) << 40) ^
                pseudoRegion(e);
            auto it = cache.find(key);
            if (it == cache.end())
                it = cache
                         .emplace(key,
                                  table.intern(pseudoSiteName(tid, e)))
                         .first;
            e.site = it->second;
            ++stamped;
        }
    }
};

} // namespace

SiteId
SiteTable::intern(const std::string &name)
{
    auto [it, inserted] = byName_.emplace(name, 0);
    if (inserted) {
        ensure(names_.size() < 0xFFFFFFFFull, "site table overflow");
        names_.push_back(name);
        it->second = static_cast<SiteId>(names_.size());
    }
    return it->second;
}

SiteId
SiteTable::lookup(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? kNoSite : it->second;
}

const std::string &
SiteTable::name(SiteId id) const
{
    if (id == kNoSite || id > names_.size())
        return kUnknownName;
    return names_[id - 1];
}

std::size_t
assignPseudoSites(std::vector<std::vector<Event>> &programs,
                  SiteTable &table)
{
    Stamper s{table};
    for (ThreadId t = 0; t < programs.size(); ++t)
        s.stampThread(t, programs[t]);
    return s.stamped;
}

std::size_t
assignPseudoSites(Trace &trace, SiteTable &table)
{
    Stamper s{table};
    for (ThreadTrace &tt : trace.threads)
        s.stampThread(tt.tid, tt.events);
    return s.stamped;
}

} // namespace bfly::staticpass
