/**
 * @file
 * bfly_serve: run the multi-tenant butterfly monitoring daemon.
 *
 *   bfly_serve --unix /tmp/bfly.sock [--tcp PORT] [--workers N]
 *              [--queue-kb K] [--budget-mb M] [--session-mb M]
 *              [--idle-ms T] [--adaptive] [--target-events N] [--quiet]
 *
 * Listens until SIGINT/SIGTERM, then prints a one-line stats summary.
 * A numeric flag whose value is not a whole decimal number in range
 * exits 2 with the usage text.
 * Clients speak the wire protocol in src/service/wire.hpp; the stock
 * client is bfly_loadgen (or the MonitorClient library).
 */

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "parse_number.hpp"
#include "service/server.hpp"
#include "telemetry/telemetry.hpp"

using namespace bfly;
using namespace bfly::service;

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

void
usage()
{
    std::cerr << "usage: bfly_serve [--unix PATH] [--tcp PORT]\n"
              << "  --unix PATH     Unix-domain socket to listen on\n"
              << "  --tcp PORT      loopback TCP port (0 = ephemeral)\n"
              << "  --workers N     worker pool size (0 = hw threads)\n"
              << "  --queue-kb K    per-session ingest queue (KiB, > 0)\n"
              << "  --budget-mb M   server-wide byte budget (MiB, > 0)\n"
              << "  --session-mb M  hard per-session cap (MiB, > 0)\n"
              << "  --idle-ms T     idle-session disconnect (0 = off)\n"
              << "  --adaptive      online epoch sizing + graduated\n"
              << "                  degradation ladder (see DESIGN.md)\n"
              << "  --target-events N  adaptive: coalesce epochs until\n"
              << "                  ~N events each (default 512)\n"
              << "  --quiet         suppress the startup banner\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ServerConfig config;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        // The value of a numeric flag, or exit 2 naming the bad one.
        auto number = [&](std::uint64_t min, std::uint64_t max,
                          std::uint64_t unit = 1) {
            const char *text = value();
            std::uint64_t n = 0;
            if (!parseNumber(text, min, max, unit, n)) {
                std::cerr << "bfly_serve: bad value for " << arg << ": '"
                          << text << "'\n";
                usage();
                std::exit(2);
            }
            return n;
        };
        if (arg == "--unix")
            config.unixPath = value();
        else if (arg == "--tcp") {
            config.tcp = true;
            config.tcpPort =
                static_cast<std::uint16_t>(number(0, UINT16_MAX));
        } else if (arg == "--workers")
            config.workers = number(0, SIZE_MAX);
        else if (arg == "--queue-kb")
            config.mux.sessionQueueBytes = number(1, SIZE_MAX, 1024);
        else if (arg == "--budget-mb")
            config.mux.globalBudgetBytes =
                number(1, SIZE_MAX, 1024 * 1024);
        else if (arg == "--session-mb")
            config.mux.maxSessionBytes = number(1, SIZE_MAX, 1024 * 1024);
        else if (arg == "--idle-ms")
            config.idleTimeoutMs = static_cast<int>(number(0, INT_MAX));
        else if (arg == "--adaptive")
            config.mux.adaptive = true;
        else if (arg == "--target-events")
            config.mux.controller.targetEventsPerEpoch = number(0, SIZE_MAX);
        else if (arg == "--quiet")
            quiet = true;
        else {
            usage();
            return 2;
        }
    }
    if (config.unixPath.empty() && !config.tcp) {
        usage();
        return 2;
    }
    // Adaptive without an explicit size target: default to merging
    // toward ~512-event analyzed epochs so fine-grained tenants see a
    // benefit even before pressure drives the degradation ladder.
    if (config.mux.adaptive &&
        config.mux.controller.targetEventsPerEpoch == 0)
        config.mux.controller.targetEventsPerEpoch = 512;

    telemetry::setEnabled(true);

    MonitorServer server(config);
    if (!server.start()) {
        std::cerr << "bfly_serve: failed to bind\n";
        return 1;
    }
    if (!quiet) {
        std::cout << "bfly_serve: listening";
        if (!config.unixPath.empty())
            std::cout << " unix=" << config.unixPath;
        if (config.tcp)
            std::cout << " tcp=127.0.0.1:" << server.tcpPort();
        if (config.mux.adaptive)
            std::cout << " adaptive=1 target_events="
                      << config.mux.controller.targetEventsPerEpoch;
        std::cout << std::endl;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    server.stop();
    std::cout << "bfly_serve: completed=" << server.sessionsCompleted()
              << " failed=" << server.sessionsFailed()
              << " busy_sent=" << server.busySent()
              << " partial=" << server.partialReports()
              << " shed=" << server.sessionsShed()
              << " hint_echoes=" << server.hintEchoes()
              << " elision_sessions=" << server.elisionSessions()
              << " summary_events=" << server.summaryEventsSeen()
              << std::endl;
    return 0;
}
