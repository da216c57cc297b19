/**
 * @file
 * Tests for the parallel experiment runner: results must be
 * bit-identical to direct serial simulate() calls regardless of the
 * worker count, in submission order, across repeated invocations;
 * exceptions from workers must propagate or be captured per-run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/core.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/simulation.hh"

namespace pri::sim
{
namespace
{

std::vector<RunParams>
smallBatch()
{
    std::vector<RunParams> batch;
    for (const char *bench : {"gzip", "equake"}) {
        for (auto scheme :
             {Scheme::Base, Scheme::PriRefcountCkptcount}) {
            RunParams p;
            p.benchmark = bench;
            p.scheme = scheme;
            p.warmupInsts = 2000;
            p.measureInsts = 8000;
            p.seed = 7;
            batch.push_back(p);
        }
    }
    return batch;
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.avgIntOccupancy, b.avgIntOccupancy);
    EXPECT_EQ(a.avgFpOccupancy, b.avgFpOccupancy);
    EXPECT_EQ(a.lifeAllocToWrite, b.lifeAllocToWrite);
    EXPECT_EQ(a.lifeWriteToLastRead, b.lifeWriteToLastRead);
    EXPECT_EQ(a.lifeLastReadToRelease, b.lifeLastReadToRelease);
    EXPECT_EQ(a.branchMispredictRate, b.branchMispredictRate);
    EXPECT_EQ(a.dl1MissRate, b.dl1MissRate);
    EXPECT_EQ(a.priEarlyFrees, b.priEarlyFrees);
    EXPECT_EQ(a.erEarlyFrees, b.erEarlyFrees);
    EXPECT_EQ(a.inlinedFrac, b.inlinedFrac);
    EXPECT_EQ(a.portStallsPerKInst, b.portStallsPerKInst);
    EXPECT_EQ(a.portInlineBypassFrac, b.portInlineBypassFrac);
    EXPECT_EQ(a.report, b.report);
}

TEST(SimulationRunner, DefaultJobsIsAtLeastOne)
{
    EXPECT_GE(defaultJobs(), 1u);
    EXPECT_GE(SimulationRunner().jobs(), 1u);
    EXPECT_EQ(SimulationRunner(3).jobs(), 3u);
}

/** Same RunParams: direct simulate(), jobs=1, and jobs=8 must all
 *  produce bit-identical results, twice in a row. */
TEST(SimulationRunner, DeterministicAcrossWorkerCounts)
{
    const auto batch = smallBatch();

    std::vector<RunResult> reference;
    for (const auto &p : batch)
        reference.push_back(simulate(p));

    for (int repeat = 0; repeat < 2; ++repeat) {
        const auto serial = SimulationRunner(1).run(batch);
        const auto parallel = SimulationRunner(8).run(batch);
        ASSERT_EQ(serial.size(), batch.size());
        ASSERT_EQ(parallel.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
            expectIdentical(serial[i], reference[i]);
            expectIdentical(parallel[i], reference[i]);
        }
    }
}

/** Results come back in submission order, not completion order. */
TEST(SimulationRunner, ResultsInSubmissionOrder)
{
    auto batch = smallBatch();
    const auto results = SimulationRunner(4).run(batch);
    ASSERT_EQ(results.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(results[i].benchmark, batch[i].benchmark);
        EXPECT_EQ(results[i].scheme,
                  schemeName(batch[i].scheme));
    }
}

TEST(SimulationRunner, ForEachCoversAllIndicesOnce)
{
    for (unsigned jobs : {1u, 4u}) {
        std::vector<int> hits(100, 0);
        SimulationRunner(jobs).forEach(
            hits.size(), [&](size_t i) { ++hits[i]; });
        for (int h : hits)
            EXPECT_EQ(h, 1);
    }
}

TEST(SimulationRunner, ForEachPropagatesExceptions)
{
    for (unsigned jobs : {1u, 4u}) {
        EXPECT_THROW(
            SimulationRunner(jobs).forEach(8,
                                           [&](size_t i) {
                                               if (i == 5)
                                                   throw std::
                                                       runtime_error(
                                                           "boom");
                                           }),
            std::runtime_error);
    }
}

TEST(SimulationRunner, RunCapturedReportsPerRunErrors)
{
    auto batch = smallBatch();
    batch[1].benchmark = "no-such-benchmark";

    const auto outcomes = SimulationRunner(4).runCaptured(batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_TRUE(outcomes[2].ok());
    EXPECT_TRUE(outcomes[3].ok());

    // Successful runs are unaffected by the failing sibling.
    expectIdentical(outcomes[0].result, simulate(batch[0]));
}

/** Captured errors lead with the run index and a params summary. */
TEST(SimulationRunner, CapturedErrorsNameTheRun)
{
    auto batch = smallBatch();
    batch[2].benchmark = "no-such-benchmark";

    const auto outcomes = SimulationRunner(2).runCaptured(batch);
    ASSERT_FALSE(outcomes[2].ok());
    EXPECT_EQ(outcomes[2].error.find("run 2 (no-such-benchmark / "),
              0u);

    const auto table = SimulationRunner::describeFailures(outcomes,
                                                          batch);
    EXPECT_NE(table.find("1 of 4 runs failed"), std::string::npos);
    EXPECT_NE(table.find("run 2"), std::string::npos);
}

/**
 * A run that wedges mid-batch is captured as a stall — flight
 * recorder and all — while every sibling completes bit-identically
 * to a fault-free batch.
 */
TEST(SimulationRunner, StalledRunDoesNotPoisonSiblings)
{
    auto batch = smallBatch();
    batch[1].injectFault = core::InjectedFault::WedgeScheduler;
    batch[1].watchdogCycles = 30000;
    batch[1].measureInsts = 50000;

    const auto outcomes = SimulationRunner(4).runCaptured(batch);
    ASSERT_EQ(outcomes.size(), batch.size());
    ASSERT_FALSE(outcomes[1].ok());
    EXPECT_TRUE(outcomes[1].stalled);
    EXPECT_EQ(outcomes[1].error.find("run 1 ("), 0u);
    EXPECT_NE(outcomes[1].error.find("forward-progress watchdog"),
              std::string::npos);
    EXPECT_NE(outcomes[1].error.find("flight recorder"),
              std::string::npos);

    for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
        EXPECT_FALSE(outcomes[i].stalled);
        expectIdentical(outcomes[i].result, simulate(batch[i]));
    }
}

/** A panic (golden divergence) is captured per-run, not process-
 *  fatal, and carries the flight-recorder trace. */
TEST(SimulationRunner, PanicIsCapturedPerRun)
{
    auto batch = smallBatch();
    batch[0].checkGolden = true;
    batch[0].injectFault = core::InjectedFault::CommitWrongPath;

    const auto outcomes = SimulationRunner(2).runCaptured(batch);
    ASSERT_FALSE(outcomes[0].ok());
    EXPECT_FALSE(outcomes[0].stalled);
    EXPECT_NE(outcomes[0].error.find("panic"), std::string::npos);
    EXPECT_NE(outcomes[0].error.find("flight recorder"),
              std::string::npos);
    for (size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].error;
}

/** Transient failures within the attempt budget retry to success;
 *  beyond it the last error is reported. */
TEST(SimulationRunner, RetriesTransientFailures)
{
    auto batch = smallBatch();
    batch[1].injectTransientFails = 2;

    SimulationRunner runner(2);
    runner.setRetryPolicy({3, 0});
    const auto outcomes = runner.runCaptured(batch);
    ASSERT_TRUE(outcomes[1].ok()) << outcomes[1].error;
    EXPECT_EQ(outcomes[1].attempts, 3u);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    expectIdentical(outcomes[1].result, [&] {
        auto p = batch[1];
        p.injectTransientFails = 0;
        return simulate(p);
    }());

    SimulationRunner strict(2);
    strict.setRetryPolicy({2, 0});
    const auto failed = strict.runCaptured(batch);
    ASSERT_FALSE(failed[1].ok());
    EXPECT_EQ(failed[1].attempts, 2u);
    EXPECT_NE(failed[1].error.find("transient"), std::string::npos);
}

/** Journal round-trip: a second runner over the same batch serves
 *  every point from the journal, bit-identically. */
TEST(SimulationRunner, JournalServesCompletedPoints)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_roundtrip." +
        std::to_string(getpid());
    std::remove(path.c_str());
    const auto batch = smallBatch();

    {
        SweepJournal journal(path);
        EXPECT_EQ(journal.loadedPoints(), 0u);
        SimulationRunner runner(4);
        runner.setJournal(&journal);
        const auto fresh = runner.runCaptured(batch);
        for (const auto &o : fresh) {
            ASSERT_TRUE(o.ok()) << o.error;
            EXPECT_FALSE(o.fromJournal);
            EXPECT_EQ(o.attempts, 1u);
        }
        EXPECT_EQ(journal.appendedPoints(), batch.size());
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedPoints(), batch.size());
    SimulationRunner runner(4);
    runner.setJournal(&reloaded);
    const auto cached = runner.runCaptured(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(cached[i].ok()) << cached[i].error;
        EXPECT_TRUE(cached[i].fromJournal);
        EXPECT_EQ(cached[i].attempts, 0u);
        expectIdentical(cached[i].result, simulate(batch[i]));
    }
    std::remove(path.c_str());
}

/** A journal whose writer died mid-line loads every complete entry
 *  and skips the torn tail, so only that point reruns. */
TEST(SimulationRunner, JournalSkipsTornLines)
{
    const std::string path =
        testing::TempDir() + "pri_test_journal_torn." +
        std::to_string(getpid());
    std::remove(path.c_str());
    const auto batch = smallBatch();

    {
        SweepJournal journal(path);
        SimulationRunner runner(1);
        runner.setJournal(&journal);
        runner.run(batch);
    }

    // Simulate a SIGKILL mid-append: truncated final line, plus some
    // unrelated garbage the parser must also reject.
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_NE(f, nullptr);
        std::fprintf(f, "garbage line\n");
        std::fprintf(f, "PRIJ1\tdeadbeef\ttorn-mid-li");
        std::fclose(f);
    }

    SweepJournal reloaded(path);
    EXPECT_EQ(reloaded.loadedPoints(), batch.size());
    RunResult out;
    EXPECT_TRUE(reloaded.lookup(paramsHash(batch[0]), out));
    EXPECT_EQ(out.report, simulate(batch[0]).report);
    std::remove(path.c_str());
}

/** The journal key ignores attempt/watchdog/timeout knobs and the
 *  observation-only settings (invariant checks, audit cadence, the
 *  transient-failure seam) but distinguishes everything that
 *  changes the persisted result record. */
TEST(SimulationRunner, ParamsHashSeparatesResultsOnly)
{
    RunParams a;
    RunParams b = a;
    b.attempt = 3;
    b.watchdog = false;
    b.watchdogCycles = 777;
    b.timeoutMs = 123;
    b.checkInvariants = true;
    b.goldenAuditInterval = 16;
    b.injectTransientFails = 2;
    EXPECT_EQ(paramsHash(a), paramsHash(b));

    for (auto mutate : std::vector<void (*)(RunParams &)>{
             [](RunParams &p) { p.benchmark = "mcf"; },
             [](RunParams &p) { p.seed += 1; },
             [](RunParams &p) { p.physRegs = 128; },
             [](RunParams &p) { p.scheme = Scheme::PriPlusEr; },
             [](RunParams &p) { p.measureInsts += 1; },
             [](RunParams &p) { p.cycleBudget = 5; },
             [](RunParams &p) { p.prfReadPorts = 4; },
             [](RunParams &p) { p.checkGolden = true; },
             [](RunParams &p) {
                 p.injectFault =
                     core::InjectedFault::WedgeScheduler;
             }}) {
        RunParams c;
        mutate(c);
        EXPECT_NE(paramsHash(a), paramsHash(c));
    }
}

} // namespace
} // namespace pri::sim
