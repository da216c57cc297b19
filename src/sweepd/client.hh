/**
 * @file
 * Thin pri_sweepd client: connect to a daemon socket, submit a
 * batch of sweep points, collect the streamed results.
 *
 * The client is deliberately dumb — it serializes RunParams to
 * PRIP3 lines, reads RESULT/ERROR frames until DONE, and verifies
 * that every served key matches the paramsHash it computed locally
 * (a daemon built from a different params-hash audit can therefore
 * never silently hand back results for the wrong point; the
 * mismatch surfaces as a per-point error and the caller falls back
 * to simulating locally). Transport loss mid-stream degrades the
 * same way: unresolved points come back as errors, never as wrong
 * data.
 *
 * A *hung* daemon degrades like an absent one: connect() polls with
 * a bounded timeout and retry, and submit() requires the daemon's
 * ACK frame within the same timeout before it will block
 * indefinitely on results. A daemon that accepts connections but
 * never services them therefore costs one timeout, not a wedged
 * sweep. PRI_SWEEPD_TIMEOUT_MS overrides the default (5000 ms).
 */

#ifndef PRI_SWEEPD_CLIENT_HH
#define PRI_SWEEPD_CLIENT_HH

#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hh"

namespace pri::sweepd
{

/** One submitted point's outcome (see SweepdClient::submit). */
struct PointOutcome
{
    sim::RunResult result;
    std::string error; ///< empty on success
    bool stalled = false;
    bool cached = false; ///< served from the store, not simulated

    bool ok() const { return error.empty(); }
};

/** Client connection to a running pri_sweepd (see @file). */
class SweepdClient
{
  public:
    /** Handshake/connect budget: PRI_SWEEPD_TIMEOUT_MS, else 5000. */
    static unsigned defaultTimeoutMs();

    /**
     * Connect to the daemon at @p socketPath; null on failure. The
     * connect itself is non-blocking with a @p timeout_ms budget and
     * one bounded retry, so a daemon whose accept queue is wedged
     * behaves like no daemon at all.
     */
    static std::unique_ptr<SweepdClient>
    connect(const std::string &socketPath, unsigned timeout_ms);

    static std::unique_ptr<SweepdClient>
    connect(const std::string &socketPath)
    {
        return connect(socketPath, defaultTimeoutMs());
    }

    ~SweepdClient();

    SweepdClient(const SweepdClient &) = delete;
    SweepdClient &operator=(const SweepdClient &) = delete;

    /**
     * Submit @p batch and block until every point settles (results
     * stream in completion order; returned in submission order).
     * The daemon must ACK the submission within the connect
     * timeout; a mute daemon surfaces as "daemon unresponsive" on
     * every point. On transport loss the unresolved points carry
     * the error "daemon connection lost" and the connection is dead
     * — callers should fall back to local simulation either way.
     */
    std::vector<PointOutcome>
    submit(const std::vector<sim::RunParams> &batch);

    /**
     * Run a STATUS or STATS query; returns the reply body, or ""
     * on any failure.
     */
    std::string query(const std::string &verb);

  private:
    SweepdClient(int f, unsigned t) : fd(f), timeoutMs(t) {}

    int fd;
    unsigned timeoutMs;
};

} // namespace pri::sweepd

#endif // PRI_SWEEPD_CLIENT_HH
