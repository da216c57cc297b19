/**
 * @file
 * Construction footprint gate: the bytes requested from operator new
 * while one 8-wide PRI SimInstance is built (program, traces, core)
 * must stay under 4 MiB. Core storage is sized by the ROB and the
 * register files, not by their product with a wheel horizon; a
 * capacity x capacity reservation would push this test over.
 *
 * The binary replaces the global operator new, so it is its own
 * executable.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/sim_instance.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_bytes{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    void *p = align > alignof(std::max_align_t)
        ? std::aligned_alloc(align, (size + align - 1) / align * align)
        : std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

TEST(Footprint, EightWidePriInstanceBuildsInUnderFourMiB)
{
    pri::sim::RunParams p;
    p.benchmark = "gcc";
    p.width = 8;
    p.scheme = pri::sim::Scheme::PriRefcountCkptcount;

    g_bytes = 0;
    g_counting = true;
    auto inst = std::make_unique<pri::sim::SimInstance>(p);
    g_counting = false;
    const uint64_t bytes = g_bytes;

    constexpr uint64_t kLimit = uint64_t{4} << 20;
    EXPECT_LE(bytes, kLimit)
        << "constructing an 8-wide PRI instance requested " << bytes
        << " bytes from operator new";
    // The instance still runs: the gate measures a working machine.
    EXPECT_FALSE(inst->step(1000));
}
