/**
 * @file
 * perfbench: the measuring half of the repository benchmark (run.py
 * builds it and turns its report into the benchmark result).
 *
 *   perfbench --workload session-ocean|serve-long|serve-mix --seed N
 *             --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR]
 *             [--tiny] [--plant-wrong-reference]
 *
 * Prints one JSON object on its last stdout line: attempted/failed
 * session counts, the output fingerprint, every metric the run measured
 * with its unit, diagnostics and a fixed-work host probe taken before
 * and after the run. The serve-* workloads put their Unix socket in the
 * working directory.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

#include "bench.hpp"

using namespace perfbench;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--serve-bin PATH] [--out-dir DIR] [--tiny] "
                 "[--plant-wrong-reference] [--setup-probe]\n");
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool setupProbe = false;
    opt.selfBin = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            opt.trace = value() != "0";
        else if (arg == "--serve-bin")
            opt.serveBin = value();
        else if (arg == "--out-dir")
            opt.outDir = value();
        else if (arg == "--tiny")
            opt.tiny = true;
        else if (arg == "--plant-wrong-reference")
            opt.plantWrongReference = true;
        else if (arg == "--setup-probe")
            setupProbe = true;
        else
            return usage();
    }

    const bool ocean = opt.workload == "session-ocean";
    const bool serveLong = opt.workload == "serve-long";
    const bool serveMix = opt.workload == "serve-mix";
    if (!ocean && !serveLong && !serveMix)
        return usage();
    if (!ocean && opt.serveBin.empty())
        return usage();

    // A session-ocean process has nothing to set up between parsing its
    // options and its first session, so the probe is ready right here.
    if (setupProbe)
        return ::write(STDOUT_FILENO, "r", 1) == 1 ? 0 : 1;

    const HostProbe before = probeHost();
    const Result r = ocean ? runSessionOcean(opt) : runServe(opt, serveMix);
    const HostProbe after = probeHost();

    std::printf("{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                "\"attempted\": %llu, \"failed\": %llu, "
                "\"fingerprint\": \"%016llx\", \"host_probe\": "
                "{\"cpu_ms\": [%.6f, %.6f], \"mem_ms\": [%.6f, %.6f]}, "
                "\"metrics\": {",
                jsonString(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.fingerprint), before.cpuMs,
                after.cpuMs, before.memMs, after.memMs);
    const char *sep = "";
    for (const auto &[name, m] : r.metrics) {
        std::printf("%s%s: {\"value\": %.17g, \"unit\": %s}", sep,
                    jsonString(name).c_str(), m.value,
                    jsonString(m.unit).c_str());
        sep = ", ";
    }
    std::printf("}, \"notes\": {");
    sep = "";
    for (const auto &[key, value] : r.notes) {
        std::printf("%s%s: %s", sep, jsonString(key).c_str(),
                    jsonString(value).c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    return 0;
}
