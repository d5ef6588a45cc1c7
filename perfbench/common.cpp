#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

namespace perfbench {

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        std::min(v.size() - 1,
                 static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return v[i];
}

double
tailQuantile(std::size_t samples, double cap, std::size_t beyond)
{
    static const double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.75, 0.5};
    for (const double q : kLadder) {
        if (q > cap)
            continue;
        if (static_cast<double>(samples) * (1.0 - q) >=
            static_cast<double>(beyond))
            return q;
    }
    return 0.5;
}

double
peakRssMb(pid_t pid)
{
    const std::string path =
        pid == 0 ? "/proc/self/status"
                 : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

PeakRssSampler::PeakRssSampler(pid_t pid) : pid_(pid)
{
    resettable_ = reset();
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, std::chrono::seconds(1),
                               [this] { return stopping_; })) {
            samples_.push_back(peakRssMb(pid_));
            if (resettable_)
                reset();
        }
    });
}

PeakRssSampler::~PeakRssSampler()
{
    stop();
}

bool
PeakRssSampler::reset()
{
    const std::string path =
        pid_ == 0 ? "/proc/self/clear_refs"
                  : "/proc/" + std::to_string(pid_) + "/clear_refs";
    std::ofstream out(path);
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

double
PeakRssSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    if (samples_.empty() || !resettable_)
        return peakRssMb(pid_);
    return median(samples_);
}

HostProbe
probeHost()
{
    HostProbe probe;

    const auto c0 = Clock::now();
    std::uint64_t x = 0x12345678;
    for (std::uint64_t i = 0; i < 40'000'000; ++i)
        x = x * 6364136223846793005ull + 1442695040888963407ull;
    probe.cpuMs = msBetween(c0, Clock::now());

    constexpr std::size_t kWords = (64u << 20) / sizeof(std::uint32_t);
    std::vector<std::uint32_t> ring(kWords);
    for (std::size_t i = 0; i < kWords; ++i)
        ring[i] = static_cast<std::uint32_t>(
            (i * 2654435761u + 1013904223u) % kWords);
    const auto m0 = Clock::now();
    std::uint32_t at = static_cast<std::uint32_t>(x % kWords);
    for (std::size_t i = 0; i < 500'000; ++i)
        at = ring[at];
    probe.memMs = msBetween(m0, Clock::now());
    // Keep both loops observable so neither is folded away.
    if ((x ^ at) == 0x5eed)
        probe.cpuMs += 1e-9;
    return probe;
}

Tracer::Tracer() : origin_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const std::string &name, int parent, std::uint64_t session)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.session = session;
    span.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    span.startUs = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int index)
{
    const double t = nowUs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].endUs = t;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
Tracer::selfMs() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startUs, s.endUs);

    std::vector<double> self(all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals, clipped to the parent.
        double covered = 0.0;
        double curStart = 0.0, curEnd = -1.0;
        for (const auto &[b, e] : kids) {
            const double lo = std::max(b, all[i].startUs);
            const double hi = std::min(e, all[i].endUs);
            if (hi <= lo)
                continue;
            if (lo > curEnd) {
                if (curEnd > curStart)
                    covered += curEnd - curStart;
                curStart = lo;
                curEnd = hi;
            } else {
                curEnd = std::max(curEnd, hi);
            }
        }
        if (curEnd > curStart)
            covered += curEnd - curStart;
        self[i] = (all[i].endUs - all[i].startUs - covered) / 1000.0;
    }
    return self;
}

bool
Tracer::writeChrome(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    std::map<std::uint64_t, int> tids;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        const int tid =
            tids.emplace(s.tid, static_cast<int>(tids.size())).first->second;
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
            << ",\"ts\":" << s.startUs << ",\"dur\":" << (s.endUs - s.startUs)
            << ",\"args\":{\"session\":" << s.session
            << ",\"parent\":" << s.parent << ",\"id\":" << i << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

std::map<std::string, std::vector<double>>
perSessionMs(const Tracer &tracer, bool self)
{
    const std::vector<Span> all = tracer.spans();
    const std::vector<double> selfTimes =
        self ? tracer.selfMs() : std::vector<double>{};
    std::map<std::string, std::map<std::uint64_t, double>> sums;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const double ms = self ? selfTimes[i]
                               : (all[i].endUs - all[i].startUs) / 1000.0;
        sums[all[i].name][all[i].session] += ms;
    }
    std::map<std::string, std::vector<double>> out;
    for (const auto &[name, bySession] : sums)
        for (const auto &[session, ms] : bySession)
            out[name].push_back(ms);
    return out;
}

} // namespace perfbench
