/**
 * @file
 * pri_sweepd — the persistent sweep daemon binary.
 *
 * Daemon mode (default): serve SUBMIT/STATUS/STATS on a unix-domain
 * socket, backed by the content-addressed result store and a pool
 * of worker processes, until SIGINT/SIGTERM.
 *
 *   pri_sweepd --socket /tmp/pri.sock --store ~/.cache/pri_store \
 *              --workers 8
 *
 * Query mode: one-shot client against a running daemon.
 *
 *   pri_sweepd --socket /tmp/pri.sock --query stats
 *
 * Worker mode (internal): the daemon respawns crashed workers by
 * exec'ing this binary with --sweepd-worker-fd, so that dispatch
 * must run before anything else.
 */

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/parse_number.hh"
#include "faults/fault_arg.hh"
#include "sweepd/client.hh"
#include "sweepd/daemon.hh"
#include "sweepd/worker.hh"

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --socket PATH      unix socket to serve/query (default:\n"
        "                     $PRI_SWEEPD, else /tmp/pri_sweepd.sock)\n"
        "  --store DIR        result store directory (default:\n"
        "                     sweepd_store)\n"
        "  --workers N        worker processes (default: 4)\n"
        "  --attempts N       tries per point across worker crashes\n"
        "                     (default: 3)\n"
        "  --timeout-ms N     per-point wall-clock budget (default:\n"
        "                     none)\n"
        "  --inject-fault kill@K\n"
        "                     crash drill: SIGKILL the worker on the\n"
        "                     K-th job dispatch (0-based), once\n"
        "  --query status|stats\n"
        "                     query a running daemon and exit\n"
        "  --quiet            no serving/shutdown announcements\n",
        argv0);
}

/** Strict, so "-1", "x" or a count past @p max is a usage error
 *  rather than a wrapped-around number of workers or attempts. */
bool
parseU(const char *s, uint64_t &out,
       uint64_t max = std::numeric_limits<unsigned>::max())
{
    const auto v = pri::tryParseNumber(s, max);
    out = v.value_or(0);
    return v.has_value();
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker dispatch MUST come first: the daemon respawns workers
    // from /proc/self/exe, i.e. this very binary.
    if (const int rc = pri::sweepd::maybeRunAsWorker(argc, argv);
        rc >= 0)
        return rc;

    pri::sweepd::DaemonConfig cfg;
    cfg.storeDir = "sweepd_store";
    cfg.workers = 4;
    if (const char *env = std::getenv("PRI_SWEEPD"))
        cfg.socketPath = env;
    if (cfg.socketPath.empty())
        cfg.socketPath = "/tmp/pri_sweepd.sock";
    std::string query;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = i + 1 < argc ? argv[i + 1] : nullptr;
        uint64_t n = 0;
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--quiet") {
            cfg.verbose = false;
        } else if (arg == "--socket" && val != nullptr) {
            cfg.socketPath = argv[++i];
        } else if (arg == "--store" && val != nullptr) {
            cfg.storeDir = argv[++i];
        } else if (arg == "--query" && val != nullptr) {
            query = argv[++i];
        } else if (arg == "--workers" && val != nullptr &&
                   parseU(val, n) && n > 0) {
            cfg.workers = static_cast<unsigned>(n);
            ++i;
        } else if (arg == "--attempts" && val != nullptr &&
                   parseU(val, n) && n > 0) {
            cfg.maxAttempts = static_cast<unsigned>(n);
            ++i;
        } else if (arg == "--timeout-ms" && val != nullptr &&
                   parseU(val, n, std::numeric_limits<uint64_t>::max())) {
            cfg.timeoutMs = n;
            ++i;
        } else if (arg == "--inject-fault" && val != nullptr) {
            // Shared grammar with pri_sim; only the worker-crash
            // drill makes sense for the daemon itself (simulation
            // faults belong in the submitted points).
            pri::faults::FaultArg fault;
            std::string err;
            if (!pri::faults::parseFaultArg(argv[++i], fault, err)) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             err.c_str());
                return 2;
            }
            if (!fault.kill) {
                std::fprintf(stderr,
                             "%s: the daemon only takes the kill@K "
                             "crash drill; submit simulation faults "
                             "with the sweep points\n",
                             argv[0]);
                return 2;
            }
            cfg.killDispatch =
                static_cast<long>(fault.killDispatch);
        } else {
            std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!query.empty()) {
        if (query != "status" && query != "stats") {
            std::fprintf(stderr, "%s: --query takes status|stats\n",
                         argv[0]);
            return 2;
        }
        auto client =
            pri::sweepd::SweepdClient::connect(cfg.socketPath);
        if (client == nullptr) {
            std::fprintf(stderr, "%s: no daemon on '%s'\n", argv[0],
                         cfg.socketPath.c_str());
            return 1;
        }
        std::string verb = query == "status" ? "STATUS" : "STATS";
        const std::string body = client->query(verb);
        if (body.empty()) {
            std::fprintf(stderr, "%s: query failed\n", argv[0]);
            return 1;
        }
        std::fputs(body.c_str(), stdout);
        return 0;
    }

    pri::installCrashHandlers();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    pri::sweepd::Daemon daemon(cfg);
    if (!daemon.start())
        return 1;
    while (g_stop == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    daemon.stop();
    return 0;
}
