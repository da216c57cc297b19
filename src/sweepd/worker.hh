/**
 * @file
 * pri_sweepd worker process entry point.
 *
 * A worker is a child process the daemon talks to over a socketpair
 * with the JOB/RES/ERR frames of protocol.hh. Each job is one cache
 * miss: the worker deserializes the PRIP3 params line, runs it
 * through a single-threaded sim::SimulationRunner — which arms the
 * forward-progress watchdog, the flight recorder, and error capture
 * exactly as an in-process sweep would — and replies with the PRIJ3
 * result line or the captured error.
 *
 * Process isolation is the point: a simulator crash (SIGSEGV, OOM
 * kill, the --inject-fault SIGKILL drill) takes down only this
 * worker's current point. The daemon sees EOF on the socketpair,
 * respawns the worker, and retries the point per its RetryPolicy;
 * sibling points on other workers never notice.
 *
 * Any binary that embeds the daemon in-process (tests, benches)
 * must dispatch to workerMain() when invoked with
 * `--sweepd-worker-fd <fd>` before doing anything else, because the
 * daemon respawns workers by exec'ing /proc/self/exe.
 */

#ifndef PRI_SWEEPD_WORKER_HH
#define PRI_SWEEPD_WORKER_HH

namespace pri::sweepd
{

/** The argv flag that routes a process into workerMain(). */
constexpr const char *kWorkerFdFlag = "--sweepd-worker-fd";

/**
 * Serve JOB frames on @p fd until QUIT or EOF. Returns the process
 * exit status (0 on clean shutdown).
 */
int workerMain(int fd);

/**
 * Front-door helper: if @p argv contains kWorkerFdFlag, run
 * workerMain() on the given fd and return its exit status; returns
 * -1 when this is not a worker invocation. Call first thing in
 * main() of every binary that can host a daemon.
 */
int maybeRunAsWorker(int argc, char **argv);

} // namespace pri::sweepd

#endif // PRI_SWEEPD_WORKER_HH
