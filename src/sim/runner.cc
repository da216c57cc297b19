#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "common/logging.hh"
#include "sim/batch/sweep_batch.hh"
#include "sim/journal.hh"

namespace pri::sim
{

unsigned
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SimulationRunner::SimulationRunner(unsigned jobs)
    : nJobs(jobs == 0 ? defaultJobs() : jobs)
{
}

void
SimulationRunner::forEach(size_t n,
                          const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;

    const unsigned workers = static_cast<unsigned>(
        std::min<size_t>(nJobs, n));
    if (workers <= 1) {
        // Exact serial semantics: no threads, no reordering, no
        // capture mode imposed on the caller's thread.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            // Capture mode turns a panic()/fatal() inside fn into
            // an exception: the worker parks it and stops pulling
            // work instead of abort()/exit()ing under the feet of
            // its siblings, which keep draining the batch.
            ScopedErrorCapture capture;
            try {
                for (size_t i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1)) {
                    fn(i);
                }
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (auto &t : pool)
        t.join();
    // Pool fully drained; now surface the first captured failure on
    // the calling thread. Fatal/panic errors re-enter the normal
    // reporting path (which exits/aborts unless this thread is
    // itself capturing); everything else propagates as-is.
    for (auto &e : errors) {
        if (!e)
            continue;
        try {
            std::rethrow_exception(e);
        } catch (const FatalError &f) {
            fatal("{}", f.what());
        } catch (const PanicError &p) {
            fatal("{}", p.what());
        }
    }
}

void
SimulationRunner::runRetries(const RunParams &params, uint64_t key,
                             unsigned first_attempt,
                             Outcome &out) const
{
    const unsigned tries = std::max(1u, retry.maxAttempts);
    for (unsigned attempt = first_attempt; attempt < tries;
         ++attempt) {
        if (attempt > 0 && retry.backoffMs > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(attempt * retry.backoffMs));
        }
        RunParams p = params;
        p.attempt = attempt;
        ++out.attempts;
        try {
            ScopedErrorCapture capture;
            out.result = simulate(p);
            out.error.clear();
            out.stalled = false;
            if (journal != nullptr)
                journal->record(key, out.result);
            return;
        } catch (const core::ProgressStallError &e) {
            // Watchdog stalls are deterministic; retrying would
            // just wedge again, so fail the point immediately.
            out.stalled = true;
            out.error = e.what();
            break;
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
    }
}

SimulationRunner::Outcome
SimulationRunner::runOne(size_t index, const RunParams &params) const
{
    Outcome out;
    const uint64_t key = paramsHash(params);
    if (journal != nullptr && journal->lookup(key, out.result)) {
        out.fromJournal = true;
        return out;
    }

    runRetries(params, key, 0, out);
    if (!out.ok()) {
        out.error = fmtStr("run {} ({}): {}", index,
                           paramsSummary(params), out.error);
    }
    return out;
}

unsigned
SimulationRunner::effectiveBatchLanes() const
{
    return nBatchLanes == 0 ? defaultBatchLanes() : nBatchLanes;
}

void
SimulationRunner::runBatched(const std::vector<RunParams> &batch,
                             std::vector<Outcome> &out) const
{
    // Journal prefilter BEFORE batch formation: a previously
    // journaled point must not occupy a lane (or force a tape
    // build) just to be skipped, and a resumed sweep then forms the
    // same batches it would on a fresh journal-free run minus the
    // finished points.
    std::vector<uint64_t> keys(batch.size());
    std::vector<size_t> pending;
    pending.reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        keys[i] = paramsHash(batch[i]);
        if (journal != nullptr &&
            journal->lookup(keys[i], out[i].result)) {
            out[i].fromJournal = true;
        } else {
            pending.push_back(i);
        }
    }

    const auto groups =
        formBatches(batch, pending, effectiveBatchLanes());
    forEach(groups.size(), [&](size_t g) {
        const BatchGroup &grp = groups[g];
        if (grp.indices.size() == 1) {
            // Singleton (unbatchable point or a group of one):
            // exact serial path. The redundant journal lookup
            // inside runOne is a guaranteed miss.
            const size_t i = grp.indices.front();
            out[i] = runOne(i, batch[i]);
            return;
        }

        SweepBatch sb(batch, grp);
        sb.prepare();
        sb.drain();
        auto lane_out = sb.finalize();
        for (size_t k = 0; k < grp.indices.size(); ++k) {
            const size_t i = grp.indices[k];
            Outcome &o = out[i];
            o.attempts = 1; // the batched attempt (attempt 0)
            if (lane_out[k].ok()) {
                o.result = std::move(lane_out[k].result);
                if (journal != nullptr)
                    journal->record(keys[i], o.result);
                continue;
            }
            o.stalled = lane_out[k].stalled;
            o.error = std::move(lane_out[k].error);
            // The batched run was attempt 0; retries (if any)
            // continue the serial attempt loop from 1, exactly as
            // runOne would after its first failure. Stalls are
            // deterministic — never retried.
            if (!o.stalled)
                runRetries(batch[i], keys[i], 1, o);
            if (!o.ok()) {
                o.error = fmtStr("run {} ({}): {}", i,
                                 paramsSummary(batch[i]), o.error);
            }
        }
    });
}

std::vector<SimulationRunner::Outcome>
SimulationRunner::runCaptured(const std::vector<RunParams> &batch) const
{
    std::vector<Outcome> out(batch.size());
    if (effectiveBatchLanes() > 1) {
        runBatched(batch, out);
        return out;
    }
    forEach(batch.size(), [&](size_t i) {
        out[i] = runOne(i, batch[i]);
    });
    return out;
}

std::string
SimulationRunner::describeFailures(
    const std::vector<Outcome> &outcomes,
    const std::vector<RunParams> &batch)
{
    size_t failed = 0;
    for (const auto &o : outcomes)
        failed += o.ok() ? 0 : 1;
    if (failed == 0)
        return "";

    (void)batch;
    std::string table = fmtStr("{} of {} runs failed:\n", failed,
                               outcomes.size());
    for (const auto &o : outcomes) {
        if (o.ok())
            continue;
        // First line only: stall errors carry a multi-line flight-
        // recorder dump that belongs in the log, not the table.
        // The error itself already leads with "run <i> (<params>)".
        const std::string brief =
            o.error.substr(0, o.error.find('\n'));
        table += fmtStr("  [{} after {} attempt{}] {}\n",
                        o.stalled ? "stalled" : "failed",
                        o.attempts, o.attempts == 1 ? "" : "s",
                        brief);
    }
    return table;
}

std::vector<RunResult>
SimulationRunner::run(const std::vector<RunParams> &batch) const
{
    auto outcomes = runCaptured(batch);
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].ok())
            fatal("simulation {}", outcomes[i].error);
        results.push_back(std::move(outcomes[i].result));
    }
    return results;
}

} // namespace pri::sim
