/**
 * @file
 * One-live-lane footprint gate: a SweepBatch runs its lanes one at a
 * time in one reused arena, so a 16-lane batch must leave the
 * process's peak RSS no higher than a one-lane batch does, give or
 * take about one lane. A batch that kept all sixteen machines live
 * at once would grow the peak by fifteen more.
 *
 * Peak RSS is process-wide, so the gate is its own executable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include <sys/resource.h>

#include "sim/batch/sweep_batch.hh"

namespace pri::sim
{
namespace
{

/** Peak resident set size of this process, in bytes. */
uint64_t
peakRssBytes()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024; // KiB on Linux
}

/** Run @p pts as one batch and require every lane to succeed. */
void
runBatch(const std::vector<RunParams> &pts)
{
    BatchGroup group;
    for (size_t i = 0; i < pts.size(); ++i)
        group.indices.push_back(i);
    SweepBatch batch(pts, group);
    batch.prepare();
    batch.drain();
    for (const LaneOutcome &o : batch.finalize())
        ASSERT_TRUE(o.ok()) << o.error;
}

TEST(LaneFootprint, SixteenLaneBatchHoldsOneLiveLane)
{
    // Sixteen distinct 8-wide gcc points of one workload
    // fingerprint: eight schemes at two register-file sizes.
    std::vector<RunParams> pts;
    for (unsigned pregs : {64u, 80u}) {
        for (Scheme s : {Scheme::Base, Scheme::EarlyRelease,
                         Scheme::PriRefcountCkptcount,
                         Scheme::PriRefcountLazy,
                         Scheme::PriIdealCkptcount,
                         Scheme::PriIdealLazy, Scheme::PriPlusEr,
                         Scheme::InfinitePregs}) {
            RunParams p;
            p.benchmark = "gcc";
            p.width = 8;
            p.physRegs = pregs;
            p.scheme = s;
            p.warmupInsts = 2000;
            p.measureInsts = 8000;
            pts.push_back(p);
        }
    }
    ASSERT_EQ(pts.size(), 16u);

    // One lane: the shared workload, the worker's arena and one
    // machine. Its growth of the peak is the per-lane allowance.
    const uint64_t before = peakRssBytes();
    runBatch({pts.back()});
    const uint64_t afterOne = peakRssBytes();
    const uint64_t oneLane = afterOne - before;

    runBatch(pts);
    const uint64_t afterSixteen = peakRssBytes();
    EXPECT_LE(afterSixteen - afterOne, oneLane)
        << "a 16-lane batch raised peak RSS by "
        << (afterSixteen - afterOne) << " bytes; one lane raised it "
        << "by " << oneLane;
}

} // namespace
} // namespace pri::sim
