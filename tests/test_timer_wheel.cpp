/**
 * @file
 * Property tests of the core's intrusive timer wheel against a naive
 * reference model: random schedule, cancel and drain sequences,
 * including cancels and schedules raised while a bucket is being
 * drained, must deliver the same nodes in the same (cycle, lane,
 * insertion) order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/timer_wheel.hh"

namespace
{

using pri::core::kNever;

constexpr unsigned kHorizon = 16;
constexpr unsigned kLanes = 2;
constexpr unsigned kNodes = 48;

using Wheel = pri::core::TimerWheel<kHorizon, kLanes>;

/** Every pending node with its due cycle, lane and insertion stamp;
 *  a pop takes the oldest insertion due now in the lane. */
struct Model
{
    struct Rec
    {
        uint64_t at = kNever;
        unsigned lane = 0;
        uint64_t stamp = 0;
        uint8_t tag = 0;
    };

    std::vector<Rec> recs = std::vector<Rec>(kNodes);
    uint64_t nextStamp = 0;

    bool pending(uint32_t n) const { return recs[n].at != kNever; }

    void
    schedule(uint32_t n, uint64_t when, unsigned lane, uint8_t tag)
    {
        recs[n] = Rec{when, lane, nextStamp++, tag};
    }

    void cancel(uint32_t n) { recs[n].at = kNever; }

    int32_t
    pop(uint64_t now, unsigned lane)
    {
        int32_t best = -1;
        for (uint32_t n = 0; n < kNodes; ++n) {
            const Rec &r = recs[n];
            if (r.at == now && r.lane == lane &&
                (best < 0 || r.stamp < recs[best].stamp))
                best = static_cast<int32_t>(n);
        }
        if (best >= 0)
            recs[best].at = kNever;
        return best;
    }

    bool
    idle(uint64_t now) const
    {
        for (const Rec &r : recs) {
            if (r.at == now)
                return false;
        }
        return true;
    }
};

struct Rng
{
    uint64_t s;

    uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s >> 33;
    }

    unsigned
    below(unsigned n)
    {
        return static_cast<unsigned>(next() % n);
    }
};

/** Schedule a random idle node on both sides, due 1 .. horizon - 1
 *  cycles after @p now. */
void
scheduleRandom(Wheel &w, Model &m, Rng &rng, uint64_t now)
{
    const uint32_t n = rng.below(kNodes);
    if (m.pending(n))
        return;
    const uint64_t when = now + 1 + rng.below(kHorizon - 1);
    const unsigned lane = rng.below(kLanes);
    const auto tag = static_cast<uint8_t>(rng.below(3));
    w.schedule(n, when, lane, tag);
    m.schedule(n, when, lane, tag);
}

/** Cancel a random pending node on both sides. */
void
cancelRandom(Wheel &w, Model &m, Rng &rng)
{
    const uint32_t n = rng.below(kNodes);
    if (!m.pending(n))
        return;
    w.cancel(n);
    m.cancel(n);
}

void
expectSameState(const Wheel &w, const Model &m, uint64_t now)
{
    w.checkInvariants();
    EXPECT_EQ(w.idle(now), m.idle(now)) << "cycle " << now;
    for (uint32_t n = 0; n < kNodes; ++n) {
        ASSERT_EQ(w.pending(n), m.pending(n)) << "node " << n;
        if (m.pending(n)) {
            EXPECT_EQ(w.at(n), m.recs[n].at) << "node " << n;
            EXPECT_EQ(w.tag(n), m.recs[n].tag) << "node " << n;
        }
    }
}

} // namespace

TEST(TimerWheel, RandomSchedulesDeliverInReferenceOrder)
{
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Wheel w(kNodes);
        Model m;
        Rng rng{seed};
        uint64_t delivered = 0;
        for (uint64_t now = 0; now < 3000; ++now) {
            // Between drains: a burst of schedules and cancels.
            const unsigned ops = rng.below(8);
            for (unsigned k = 0; k < ops; ++k) {
                if (rng.below(4) == 0)
                    cancelRandom(w, m, rng);
                else
                    scheduleRandom(w, m, rng, now);
            }
            expectSameState(w, m, now);
            // Drain lane by lane, one node at a time. A delivery may
            // cancel nodes (possibly queued behind it in this very
            // list, as a squash does) or schedule later ones.
            for (unsigned lane = 0; lane < kLanes; ++lane) {
                for (;;) {
                    const int32_t got = w.pop(now, lane);
                    const int32_t want = m.pop(now, lane);
                    ASSERT_EQ(got, want)
                        << "cycle " << now << " lane " << lane;
                    if (got < 0)
                        break;
                    const auto n = static_cast<uint32_t>(got);
                    EXPECT_EQ(w.tag(n), m.recs[n].tag);
                    EXPECT_FALSE(w.pending(n));
                    ++delivered;
                    const unsigned reactions = rng.below(4);
                    for (unsigned k = 0; k < reactions; ++k) {
                        if (rng.below(2) == 0)
                            cancelRandom(w, m, rng);
                        else
                            scheduleRandom(w, m, rng, now);
                    }
                }
            }
            EXPECT_TRUE(w.idle(now));
        }
        expectSameState(w, m, 3000);
        EXPECT_GT(delivered, 1000u);
    }
}

TEST(TimerWheel, MidDrainCancelUnlinksQueuedNodes)
{
    // Nodes 0..5 due together in lane 0, node 6 in lane 1. Delivering
    // node 1 cancels nodes 3 and 5 (still queued behind it) and node
    // 6 (the next lane), as a squash inside the event drain would.
    Wheel w(kNodes);
    for (uint32_t n = 0; n < 6; ++n)
        w.schedule(n, 5, 0);
    w.schedule(6, 5, 1);
    std::vector<int32_t> order;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        for (int32_t n; (n = w.pop(5, lane)) != Wheel::kNil;) {
            order.push_back(n);
            if (n == 1) {
                w.cancel(3);
                w.cancel(5);
                w.cancel(6);
            }
        }
    }
    EXPECT_EQ(order, (std::vector<int32_t>{0, 1, 2, 4}));
    EXPECT_TRUE(w.idle(5));
    w.checkInvariants();
}

TEST(TimerWheel, TagSurvivesDeliveryAndNodesRescheduleALapLater)
{
    Wheel w(kNodes);
    w.schedule(3, 2, 1, 2);
    EXPECT_EQ(w.pop(2, 0), Wheel::kNil);
    EXPECT_EQ(w.pop(2, 1), 3);
    EXPECT_EQ(w.tag(3), 2);
    EXPECT_FALSE(w.pending(3));
    // Same bucket, one lap on.
    w.schedule(3, 2 + kHorizon, 1, 1);
    EXPECT_EQ(w.at(3), 2 + kHorizon);
    EXPECT_EQ(w.pop(2 + kHorizon, 1), 3);
    EXPECT_EQ(w.tag(3), 1);
    EXPECT_TRUE(w.idle(2 + kHorizon));
    w.checkInvariants();
}
