/**
 * @file
 * Intrusive timer wheel over a fixed population of nodes.
 *
 * The core keeps two, each with one node per ROB slot: the event
 * wheel (ExeStart / ExeComplete / Retire, in two drain lanes) and
 * the timed-wakeup wheel (one lane). A node is pending in at most
 * one bucket list at a time. Each bucket holds one FIFO list per
 * lane, doubly linked through the nodes, so scheduling, cancelling
 * and popping are O(1) and a squash can unlink any pending node,
 * including one in the bucket being drained. Storage is
 * O(nodes + horizon x lanes), allocated once at construction, so
 * the steady state never touches the heap (DESIGN.md §11).
 */

#ifndef PRI_CORE_TIMER_WHEEL_HH
#define PRI_CORE_TIMER_WHEEL_HH

#include <bit>
#include <cstdint>

#include "common/arena.hh"
#include "common/logging.hh"

namespace pri::core
{

/** Sentinel "never" cycle. */
constexpr uint64_t kNever = ~uint64_t{0};

/**
 * @p Horizon buckets (a power of two) of @p Lanes lists each. A node
 * may be scheduled at most Horizon - 1 cycles ahead of the cycle
 * being drained.
 */
template <unsigned Horizon, unsigned Lanes>
class TimerWheel
{
    static_assert(std::has_single_bit(Horizon) && Lanes > 0);

  public:
    /** No node (empty list / end of list). */
    static constexpr int32_t kNil = -1;

    /** Nodes 0 .. @p nodes - 1, all idle. */
    explicit TimerWheel(unsigned nodes)
        : lists_(size_t{Horizon} * Lanes), nodes_(nodes)
    {
    }

    bool pending(uint32_t n) const { return nodes_[n].at != kNever; }
    /** Cycle a pending node is due (kNever when not pending). */
    uint64_t at(uint32_t n) const { return nodes_[n].at; }
    /** Caller's tag from the node's latest schedule (the core's
     *  event type); still readable once pop() delivered it. */
    uint8_t tag(uint32_t n) const { return nodes_[n].tag; }

    /** Append idle node @p n to the list of (@p when, @p lane). */
    void
    schedule(uint32_t n, uint64_t when, unsigned lane, uint8_t tag = 0)
    {
        Node &x = nodes_[n];
        PRI_ASSERT(x.at == kNever, "node already pending");
        x.at = when;
        x.lane = static_cast<uint8_t>(lane);
        x.tag = tag;
        List &l = list(when, lane);
        x.prev = l.tail;
        x.next = kNil;
        if (l.tail != kNil)
            nodes_[l.tail].next = static_cast<int32_t>(n);
        else
            l.head = static_cast<int32_t>(n);
        l.tail = static_cast<int32_t>(n);
    }

    /** Unlink pending node @p n without delivering it. */
    void
    cancel(uint32_t n)
    {
        Node &x = nodes_[n];
        List &l = list(x.at, x.lane);
        if (x.prev != kNil)
            nodes_[x.prev].next = x.next;
        else
            l.head = x.next;
        if (x.next != kNil)
            nodes_[x.next].prev = x.prev;
        else
            l.tail = x.prev;
        x.next = x.prev = kNil;
        x.at = kNever;
    }

    /** No node due at @p now in any lane. */
    bool
    idle(uint64_t now) const
    {
        const List *l = &lists_[(now % Horizon) * Lanes];
        for (unsigned k = 0; k < Lanes; ++k) {
            if (l[k].head != kNil)
                return false;
        }
        return true;
    }

    /**
     * Unlink and return the oldest node of (@p now, @p lane), or
     * kNil. Draining one node at a time lets a handler cancel nodes
     * still queued behind it.
     */
    int32_t
    pop(uint64_t now, unsigned lane)
    {
        List &l = list(now, lane);
        const int32_t n = l.head;
        if (n == kNil)
            return kNil;
        Node &x = nodes_[n];
        l.head = x.next;
        if (x.next != kNil)
            nodes_[x.next].prev = kNil;
        else
            l.tail = kNil;
        x.next = kNil;
        x.at = kNever;
        return n;
    }

    /**
     * Check the link structure: every list is well formed, holds
     * only nodes due in its bucket and lane, and the lists hold
     * exactly the pending nodes. Panics on violation.
     */
    void
    checkInvariants() const
    {
        size_t listed = 0;
        for (size_t b = 0; b < lists_.size(); ++b) {
            int32_t prev = kNil;
            for (int32_t n = lists_[b].head; n != kNil;
                 n = nodes_[n].next) {
                const Node &x = nodes_[n];
                PRI_ASSERT(x.at != kNever &&
                               (x.at % Horizon) * Lanes + x.lane == b,
                           "timer node in the wrong bucket");
                PRI_ASSERT(x.prev == prev, "timer list back-link");
                PRI_ASSERT(++listed <= nodes_.size(),
                           "timer list cycle");
                prev = n;
            }
            PRI_ASSERT(lists_[b].tail == prev, "timer list tail");
        }
        size_t pending_nodes = 0;
        for (const Node &x : nodes_)
            pending_nodes += x.at != kNever ? 1 : 0;
        PRI_ASSERT(listed == pending_nodes, "timer node leak");
    }

  private:
    struct List
    {
        int32_t head = kNil;
        int32_t tail = kNil;
    };

    struct Node
    {
        int32_t next = kNil;
        int32_t prev = kNil;
        uint64_t at = kNever; ///< kNever = not pending
        uint8_t lane = 0;
        uint8_t tag = 0;
    };

    List &
    list(uint64_t when, unsigned lane)
    {
        return lists_[(when % Horizon) * Lanes + lane];
    }

    HotVec<List> lists_;
    HotVec<Node> nodes_;
};

} // namespace pri::core

#endif // PRI_CORE_TIMER_WHEEL_HH
