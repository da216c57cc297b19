/**
 * @file
 * Self-time arithmetic of the span stack: a span's self time is its
 * duration minus the intervals its child spans cover, and a child's
 * duration counts against its direct parent only.
 */

#include <cstdio>

#include "probe.hh"

namespace
{

int failures = 0;

void
expect(uint64_t got, uint64_t want, const char *what)
{
    if (got != want) {
        std::printf("FAIL %s: got %llu, want %llu\n", what,
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want));
        ++failures;
    }
}

} // namespace

int
main()
{
    using perfbench::SpanStack;

    // run [0, 100) holding next [10, 30) and access [40, 45), the
    // latter holding a nested leaf [41, 43).
    SpanStack s;
    s.enter(0);
    s.enter(10);
    const auto next = s.exit(30);
    expect(next.duration, 20, "leaf duration");
    expect(static_cast<uint64_t>(next.self), 20, "leaf self = duration");
    s.enter(40);
    s.enter(41);
    const auto leaf = s.exit(43);
    const auto access = s.exit(45);
    expect(static_cast<uint64_t>(leaf.self), 2, "nested leaf self");
    expect(access.duration, 5, "middle duration");
    expect(static_cast<uint64_t>(access.self), 3, "middle self = 5 - 2");
    const auto run = s.exit(100);
    expect(run.duration, 100, "root duration");
    // The grandchild is covered by its parent, not subtracted twice.
    expect(static_cast<uint64_t>(run.self), 75, "root self = 100 - 20 - 5");
    expect(s.size(), 0, "stack empty");

    // A sampled child stands for its whole stride: one timed call
    // of 4 ticks in a stride of 8 covers 32 ticks of the parent.
    s.enter(200);
    s.cover(4 * 8);
    const auto sampled = s.exit(250);
    expect(sampled.duration, 50, "sampled parent duration");
    expect(static_cast<uint64_t>(sampled.self), 18,
           "sampled parent self = 50 - 32");

    // A span with no children is all self time.
    s.enter(7);
    const auto lone = s.exit(19);
    expect(static_cast<uint64_t>(lone.self), 12, "childless self");

    if (failures == 0)
        std::printf("probe_test: ok\n");
    return failures == 0 ? 0 : 1;
}
