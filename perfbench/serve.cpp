/**
 * @file
 * serve-long and serve-mix: closed-loop clients against a bfly_serve
 * child process (its defaults: workers = hardware threads, 1 shard, not
 * adaptive) over a Unix socket in the working directory.
 *
 * serve-long: 2 clients stream ADDRCHECK sessions over a few OCEAN
 * traces (4 threads x 60 000 instructions/thread, heartbeat-marked at
 * h = 2048, about 273K events and 394 KB encoded each) in 64 KiB
 * chunks. Long sessions put the decode pump, Busy/go-back-N admission,
 * decoded-event buffering and pipelined ADDRCHECK analysis on the
 * critical path; no oracle or perf model runs.
 *
 * serve-mix: 4 clients replay bfly_loadgen's traffic: TraceFuzzer cases
 * with the default config (1-4 threads, <= 240 events/thread, SC and
 * TSO), lifeguard = case index mod 6, stratified by scenario. Sessions
 * average about 270 events, so the fixed cost of a session and the code
 * of all six lifeguards dominate.
 *
 * Inputs and their references are prepared before the timed window.
 * Every report is compared with RemoteReport::identical() against its
 * reference; a failed, refused or mismatched session counts as failed.
 */

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "lifeguards/addrcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "service/client.hpp"
#include "trace/log_codec.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace bfly;
using namespace bfly::service;

namespace {

constexpr const char *kSocket = "serve.sock";
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::uint64_t kWorkloadStream = 11;
constexpr std::uint64_t kInterleaveStream = 12;
constexpr std::uint64_t kFuzzStream = 13;
/**
 * serve-mix case count, a multiple of 8 scenarios x 6 lifeguards. A few
 * TAINTCHECK cases of the leak-launder scenario cost 10-70 ms against a
 * 0.5 ms median, so the total work of a case set, and its tail, swing
 * with how many of them a seed draws: two unstratified 1200-case sets
 * differed by 31% in analysis time.
 */
constexpr std::size_t kMixCases = 6000;
/**
 * Highest tail rung for serve-*. A serve-mix run holds about 100 000
 * sessions, enough for p99.9, but with 4 clients and the server sharing
 * 4 CPUs its p99 is queueing behind the heaviest cases and swung by a
 * quarter between runs as the host slowed by a tenth; p90 moved with
 * the median. p99 and p99.9 are printed beside the result.
 */
constexpr double kTailCap = 0.9;
/**
 * bfly_serve processes an untimed run is spread over. How much memory
 * glibc's arenas keep differs from one process to the next (65-120 MB
 * on serve-long), so peak_rss_mb is the median over lifetimes: with 6
 * it spread 0.15 over seeds, with 12 0.06.
 */
constexpr int kServerLifetimes = 12;

/** One prepared session: the heartbeat-marked trace sent on the wire,
 *  the request and the reference report. */
struct Input
{
    Trace marked;
    SessionSpec spec;
    RemoteReport reference;
};

/** Mark @p trace at its byGlobalSeq(@p global_h) epochs and compute the
 *  reference over the marked copy's slicing, which is what the server
 *  sees. */
void
finishInput(Input &in, const Trace &trace, std::size_t global_h)
{
    in.marked = withHeartbeatMarkers(
        trace, EpochLayout::byGlobalSeq(trace, global_h));
    for (ThreadTrace &t : in.marked.threads)
        t.events.shrink_to_fit();
    in.spec.globalH = global_h;
    in.spec.windowEpochs = 4;
    in.reference = analyzeReference(in.spec, in.marked,
                                    EpochLayout::fromHeartbeats(in.marked));
}

std::vector<Input>
prepareLong(const Options &opt)
{
    const std::size_t h = opt.tiny ? 512 : 2048;
    std::vector<Input> inputs(opt.tiny ? 2 : 4);
    parallelFor(inputs.size(), [&](std::size_t k) {
        WorkloadConfig wc;
        wc.numThreads = 4;
        wc.seed = deriveSeed(opt.seed, kWorkloadStream, k);
        wc.instrPerThread = opt.tiny ? 4000 : 60000;
        wc.phaseEvents = opt.tiny ? 1500 : 9000;
        wc.warmupNops = 3 * h;
        const Workload workload = makeOcean(wc);

        Rng rng(deriveSeed(opt.seed, kInterleaveStream, k));
        const Trace trace =
            interleave(workload.programs, InterleaveConfig{}, rng);
        Input &in = inputs[k];
        in.spec.lifeguard = static_cast<std::uint8_t>(Lifeguard::AddrCheck);
        in.spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
        in.spec.granularity = 8;
        in.spec.heapBase = workload.heapBase;
        in.spec.heapLimit = workload.heapLimit;
        finishInput(in, trace, h * trace.numThreads());
    });
    return inputs;
}

/** bfly_loadgen's request for a fuzz case; @p index picks the lifeguard. */
SessionSpec
mixSpec(const fuzz::FuzzCase &fc, const Trace &trace, std::uint64_t index)
{
    SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(index % 6);
    spec.memModel = fc.model == MemModel::TSO ? 1 : 0;
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    const Lifeguard lg = static_cast<Lifeguard>(spec.lifeguard);
    spec.granularity =
        (lg == Lifeguard::TaintCheck || lg == Lifeguard::AddrLeak) ? 4 : 8;
    spec.heapBase = fc.heapBase;
    spec.heapLimit = fc.heapLimit;
    return spec;
}

/**
 * bfly_loadgen's case stream, stratified: cases are drawn in loadgen's
 * order, but each scenario keeps only its share of the set and assigns
 * lifeguards by its own case index mod 6, so every (scenario,
 * lifeguard) pair appears equally often — the mix loadgen converges to.
 */
std::vector<Input>
prepareMix(const Options &opt)
{
    fuzz::FuzzerConfig fcfg;
    fcfg.seed = deriveSeed(opt.seed, kFuzzStream, 0);
    const fuzz::TraceFuzzer fuzzer(fcfg);
    const std::size_t scenarios = fuzz::scenarioNames().size();
    const std::size_t perScenario = opt.tiny ? 6 : kMixCases / scenarios;
    // (case seed, index of the case within its scenario)
    std::vector<std::pair<std::uint64_t, std::size_t>> picked;
    std::map<std::string, std::size_t> taken;
    for (std::uint64_t i = 0; picked.size() < perScenario * scenarios; ++i) {
        const std::uint64_t caseSeed = fcfg.seed * 1000003 + i;
        std::size_t &k = taken[fuzzer.generate(caseSeed).scenario];
        if (k < perScenario)
            picked.emplace_back(caseSeed, k++);
    }
    std::vector<Input> inputs(picked.size());
    parallelFor(picked.size(), [&](std::size_t n) {
        const fuzz::FuzzCase fc = fuzzer.generate(picked[n].first);
        const Trace trace = fc.materialize();
        inputs[n].spec = mixSpec(fc, trace, picked[n].second);
        finishInput(inputs[n], trace, fc.globalH);
    });
    return inputs;
}

bool
serverReady(pid_t, int)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, kSocket, sizeof(addr.sun_path) - 1);
    const bool ok = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr) == 0;
    ::close(fd);
    if (!ok)
        ::usleep(100);
    return ok;
}

/** One client-side session as the load loop saw it. */
struct Sample
{
    double latencyMs = 0; ///< connect -> Summary
    double busyRetries = 0;
    double records = 0;
    double events = 0;
    bool ok = false; ///< completed and identical to the reference
};

/**
 * Closed loop: @p clients threads each run one session at a time, taking
 * inputs round-robin from sequence number @p next on, until @p seconds
 * have passed. With @p tracer, each session records service.session >
 * {service.connect, service.run}, keyed by its sequence number.
 */
std::vector<Sample>
driveLoad(const std::vector<Input> &inputs, std::size_t clients,
          double seconds, Tracer *tracer, std::atomic<std::uint64_t> &next,
          double &window)
{
    std::vector<std::vector<Sample>> perClient(clients);
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));

    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            ClientConfig ccfg;
            ccfg.chunkBytes = kChunkBytes;
            while (Clock::now() < deadline) {
                const std::uint64_t n = next.fetch_add(1);
                const Input &in = inputs[n % inputs.size()];
                const std::uint64_t sid = n;
                std::optional<Scope> root;
                if (tracer)
                    root.emplace(*tracer, "service.session", -1, sid);

                Sample s;
                MonitorClient client(ccfg);
                const auto s0 = Clock::now();
                bool connected;
                {
                    std::optional<Scope> span;
                    if (tracer)
                        span.emplace(*tracer, "service.connect",
                                     root->index(), sid);
                    connected = client.connectUnix(kSocket);
                }
                RunResult r;
                if (connected) {
                    std::optional<Scope> span;
                    if (tracer)
                        span.emplace(*tracer, "service.run", root->index(),
                                     sid);
                    r = client.run(in.spec, in.marked);
                }
                const auto s2 = Clock::now();
                s.latencyMs = msBetween(s0, s2);
                s.busyRetries = static_cast<double>(r.busyRetries);
                s.records = static_cast<double>(r.report.records.size());
                s.ok = r.ok && r.report.identical(in.reference);
                s.events = static_cast<double>(r.report.events);
                if (!s.ok)
                    std::fprintf(stderr, "serve: session on input %zu %s%s\n",
                                 static_cast<std::size_t>(n % inputs.size()),
                                 r.ok ? "differs from its reference"
                                      : "failed: ",
                                 r.ok ? "" : r.error.c_str());
                perClient[c].push_back(s);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    window = secondsSince(t0);

    std::vector<Sample> all;
    for (const auto &v : perClient)
        all.insert(all.end(), v.begin(), v.end());
    return all;
}

/** "service.analysis_ms.<lifeguard>", lower case. */
std::string
analysisMetric(const SessionSpec &spec)
{
    std::string name =
        lifeguardName(static_cast<Lifeguard>(spec.lifeguard));
    for (char &ch : name)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return "service.analysis_ms." + name;
}

/** @p streamed with its records and SOS replaced by @p addrcheck's, in
 *  analyzeStreaming's canonical order. */
RemoteReport
rebuiltReport(const ButterflyAddrCheck &addrcheck,
              const RemoteReport &streamed)
{
    RemoteReport rebuilt = streamed;
    rebuilt.records = addrcheck.errors().records();
    std::sort(rebuilt.records.begin(), rebuilt.records.end(),
              [](const ErrorRecord &a, const ErrorRecord &b) {
                  return std::tie(a.tid, a.index, a.addr, a.kind, a.size) <
                         std::tie(b.tid, b.index, b.addr, b.kind, b.size);
              });
    rebuilt.sos = addrcheck.sosNow().sorted();
    return rebuilt;
}

/**
 * Offline layer timing on every prepared input, outside the server:
 * encodeEvents, ChunkedLogDecoder at the client chunk size,
 * analyzeStreaming on a pool sized like the server's, the wrapped
 * ADDRCHECK lifeguard under runPipelined over an EpochStream, and
 * analyzeReference. Returns false when a rebuilt analysis disagrees
 * with analyzeStreaming or the reference.
 */
bool
timeLayers(const std::vector<Input> &inputs, std::size_t rounds,
           Tracer &tracer, std::uint64_t session_base,
           std::map<std::string, std::vector<double>> &counts)
{
    WorkerPool pool;
    bool consistent = true;
    std::uint64_t sid = session_base;
    for (std::size_t round = 0; round < rounds; ++round) {
        for (const Input &in : inputs) {
            ++sid;
            std::vector<std::vector<std::uint8_t>> logs;
            {
                Scope span(tracer, "trace.encode", -1, sid);
                for (const ThreadTrace &t : in.marked.threads)
                    logs.push_back(encodeEvents(t.events));
            }
            double bytes = 0;
            for (const auto &log : logs)
                bytes += static_cast<double>(log.size());
            counts["trace.log_bytes"].push_back(bytes);

            std::size_t decoded = 0, expected = 0;
            {
                Scope span(tracer, "trace.decode", -1, sid);
                for (const auto &log : logs) {
                    ChunkedLogDecoder decoder;
                    std::vector<Event> events;
                    Event e;
                    for (std::size_t off = 0; off < log.size();
                         off += kChunkBytes) {
                        decoder.feed({log.data() + off,
                                      std::min(kChunkBytes,
                                               log.size() - off)});
                        while (decoder.next(e) == DecodeStatus::Ok)
                            events.push_back(e);
                    }
                    decoded += events.size();
                }
            }
            for (const ThreadTrace &t : in.marked.threads)
                expected += t.events.size();
            consistent &= decoded == expected;

            RemoteReport streamed;
            {
                const auto a0 = Clock::now();
                Scope span(tracer, "service.analysis", -1, sid);
                streamed = analyzeStreaming(in.spec, in.marked, pool);
                counts[analysisMetric(in.spec)].push_back(
                    msBetween(a0, Clock::now()));
            }
            consistent &= streamed.identical(in.reference);
            counts["service.resident_epochs"].push_back(
                static_cast<double>(streamed.peakResidentEpochs));

            if (static_cast<Lifeguard>(in.spec.lifeguard) ==
                Lifeguard::AddrCheck) {
                AddrCheckConfig cfg;
                cfg.granularity = in.spec.granularity;
                cfg.heapBase = in.spec.heapBase;
                cfg.heapLimit = in.spec.heapLimit;
                ButterflyAddrCheck addrcheck(in.marked.numThreads(), cfg);
                EpochStream::Config scfg;
                scfg.windowEpochs = in.spec.windowEpochs;
                scfg.fromHeartbeats = true;
                EpochStream stream(in.marked, scfg);
                if (stream.numEpochs() > 0) {
                    Scope span(tracer, "butterfly.run", -1, sid);
                    TimedDriver timed(addrcheck, tracer, span.index(), sid);
                    WindowSchedule(true, &pool).runPipelined(stream, timed);
                    counts["butterfly.blocks"].push_back(
                        static_cast<double>(timed.blocks()));
                }
                consistent &= rebuiltReport(addrcheck, streamed)
                                  .identical(streamed);
            }

            const EpochLayout layout = EpochLayout::fromHeartbeats(in.marked);
            counts["trace.epochs"].push_back(
                static_cast<double>(layout.numEpochs()));
            RemoteReport reference;
            {
                Scope span(tracer, "service.reference", -1, sid);
                reference = analyzeReference(in.spec, in.marked, layout);
            }
            consistent &= reference.identical(in.reference);
        }
    }
    return consistent;
}

} // namespace

Result
runServe(const Options &opt, bool mix)
{
    Result result;

    // Spawn the server while this process is still small: fork() copies
    // the page tables, and the prepared inputs would add to set-up time.
    ::unlink(kSocket);
    pid_t server = -1;
    int serverOut = -1;
    const double setup = timeSpawns({opt.serveBin, "--unix", kSocket,
                                     "--quiet"},
                                    kSetupRuns, serverReady, &server,
                                    &serverOut);
    if (setup < 0) {
        std::fprintf(stderr, "serve: bfly_serve did not come up\n");
        result.failed = result.attempted = 1;
        return result;
    }

    const auto p0 = Clock::now();
    std::vector<Input> inputs = mix ? prepareMix(opt) : prepareLong(opt);
    result.notes["prepare_s"] = std::to_string(secondsSince(p0));
    for (const Input &in : inputs) {
        const RemoteReport &r = in.reference;
        fnv(result.fingerprint, r.fingerprint);
        fnv(result.fingerprint, r.records.size());
        fnv(result.fingerprint, r.sos.size());
        fnv(result.fingerprint, r.epochs);
        fnv(result.fingerprint, r.events);
    }
    if (opt.plantWrongReference)
        ++inputs[0].reference.fingerprint;

    const std::size_t clients = mix ? 4 : 2;

    auto tally = [&](const std::vector<Sample> &samples) {
        for (const Sample &s : samples) {
            ++result.attempted;
            if (!s.ok)
                ++result.failed;
        }
    };

    // Untimed sessions, one at a time, so a timed window starts from a
    // server whose allocator has already grown to hold a session.
    auto warmUp = [&] {
        ClientConfig ccfg;
        ccfg.chunkBytes = kChunkBytes;
        for (std::size_t i = 0; i < std::min<std::size_t>(inputs.size(), 24);
             ++i) {
            MonitorClient client(ccfg);
            RunResult r;
            if (client.connectUnix(kSocket))
                r = client.run(inputs[i].spec, inputs[i].marked);
            ++result.attempted;
            if (!r.ok || !r.report.identical(inputs[i].reference))
                ++result.failed;
        }
    };
    warmUp();
    std::atomic<std::uint64_t> next{0};

    if (!opt.trace) {
        // The window is split over kServerLifetimes server processes.
        const int lifetimes = opt.tiny ? 2 : kServerLifetimes;
        std::vector<Sample> samples;
        std::vector<double> rss;
        double window = 0;
        std::string stats;
        for (int k = 0; k < lifetimes; ++k) {
            if (k > 0) {
                if (timeSpawns({opt.serveBin, "--unix", kSocket, "--quiet"},
                               1, serverReady, &server, &serverOut) < 0) {
                    std::fprintf(stderr, "serve: bfly_serve did not come up\n");
                    ++result.attempted;
                    ++result.failed;
                    break;
                }
                warmUp();
            }
            PeakRssSampler rssSampler(server);
            double part = 0;
            const std::vector<Sample> got = driveLoad(
                inputs, clients, opt.seconds / lifetimes, nullptr, next, part);
            rss.push_back(rssSampler.stop());
            stats = stopChild(server, serverOut);
            samples.insert(samples.end(), got.begin(), got.end());
            window += part;
        }
        tally(samples);

        std::vector<double> latency;
        double events = 0;
        for (const Sample &s : samples) {
            latency.push_back(s.latencyMs);
            if (s.ok)
                events += s.events;
        }
        const double q = tailQuantile(latency.size(), kTailCap);
        result.set("events_per_s", events / window, "events/s");
        result.set("latency_p50_ms", median(latency), "ms");
        result.set("latency_tail_ms", quantile(latency, q), "ms");
        result.set("setup_s", setup, "s");
        result.set("peak_rss_mb", median(rss), "MB");
        result.notes["tail_percentile"] = std::to_string(100 * q);
        result.notes["latency_p90_ms"] = std::to_string(quantile(latency, 0.9));
        result.notes["latency_p99_ms"] = std::to_string(quantile(latency, 0.99));
        result.notes["latency_p999_ms"] =
            std::to_string(quantile(latency, 0.999));
        result.notes["sessions"] = std::to_string(latency.size());
        result.notes["window_s"] = std::to_string(window);
        std::string perLifetime;
        for (const double mb : rss)
            perLifetime += std::to_string(mb) + " ";
        result.notes["rss_mb_per_server"] = perLifetime;
        result.notes["last_server"] = stats.substr(0, stats.find('\n'));
        return result;
    }

    // Traced run: half the window untraced, half with client spans, so
    // the tracing overhead is measured against the same server; then
    // the layers are timed one by one on every prepared input.
    Tracer tracer;
    double window = 0;
    const std::vector<Sample> plain =
        driveLoad(inputs, clients, opt.seconds / 2, nullptr, next, window);
    const std::vector<Sample> traced =
        driveLoad(inputs, clients, opt.seconds / 2, &tracer, next, window);
    stopChild(server, serverOut);
    tally(plain);
    tally(traced);

    std::map<std::string, std::vector<double>> counts;
    const bool consistent = timeLayers(inputs, mix ? 1 : 5, tracer,
                                       1ull << 40, counts);
    if (!consistent) {
        std::fprintf(stderr, "serve: a rebuilt analysis disagrees with "
                             "analyzeStreaming or the reference\n");
        ++result.attempted;
        ++result.failed;
    }

    const auto ms = perSessionMs(tracer, /*self=*/false);
    auto med = [&](const std::string &span) {
        const auto it = ms.find(span);
        return it == ms.end() ? 0.0 : median(it->second);
    };
    auto column = [](const std::vector<Sample> &v, double Sample::*field) {
        std::vector<double> out;
        for (const Sample &s : v)
            out.push_back(s.*field);
        return out;
    };

    result.set("butterfly.pass1_ms", med("butterfly.pass1"), "ms");
    result.set("butterfly.pass2_ms", med("butterfly.pass2"), "ms");
    result.set("butterfly.finalize_ms", med("butterfly.finalize"), "ms");
    result.set("butterfly.blocks", median(counts["butterfly.blocks"]),
               "count");
    result.set("trace.epochs", median(counts["trace.epochs"]), "count");
    result.set("trace.encode_ms", med("trace.encode"), "ms");
    result.set("trace.decode_ms", med("trace.decode"), "ms");
    result.set("trace.log_bytes", median(counts["trace.log_bytes"]),
               "bytes");
    result.set("service.analysis_ms", med("service.analysis"), "ms");
    result.set("service.reference_ms", med("service.reference"), "ms");
    result.set("service.resident_epochs",
               median(counts["service.resident_epochs"]), "count");
    result.set("service.connect_ms", med("service.connect"), "ms");
    result.set("service.busy_retries",
               median(column(traced, &Sample::busyRetries)), "count");
    result.set("service.records", median(column(traced, &Sample::records)),
               "count");
    const double latency = median(column(traced, &Sample::latencyMs));
    result.set("tracing.overhead_ms",
               latency - median(column(plain, &Sample::latencyMs)), "ms");
    if (mix) {
        for (const Lifeguard lg : kAllLifeguards) {
            SessionSpec spec;
            spec.lifeguard = static_cast<std::uint8_t>(lg);
            const std::string name = analysisMetric(spec);
            result.set(name, median(counts[name]), "ms");
        }
    } else {
        // Time a session spends neither encoding, decoding nor
        // analyzing: the server's queue waits, report write and wire.
        result.set("service.wait_ms",
                   latency - med("trace.encode") - med("trace.decode") -
                       med("service.analysis"),
                   "ms");
    }
    result.notes["sessions"] = std::to_string(plain.size() + traced.size());
    if (!opt.outDir.empty())
        tracer.writeChrome(opt.outDir + "/" + opt.workload + ".trace.json");
    return result;
}

} // namespace perfbench
