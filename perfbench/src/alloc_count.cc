/**
 * @file
 * Heap-allocation counter of the traced benchmark binary: replaces
 * the global operator new so the core-run probe can count the
 * allocations a point makes after warm-up (core.steady_allocs), and
 * keeps the count of those the walker probes identify as call-stack
 * growth.
 */

#include <cstdlib>
#include <new>

#include "probe.hh"

namespace
{

thread_local uint64_t t_allocs = 0;
thread_local uint64_t t_stackGrowths = 0;

void *
countedAlloc(std::size_t size)
{
    ++t_allocs;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++t_allocs;
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

uint64_t
perfbench::threadAllocs()
{
    return t_allocs;
}

uint64_t
perfbench::threadStackGrowths()
{
    return t_stackGrowths;
}

void
perfbench::noteStackGrowth()
{
    ++t_stackGrowths;
}

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
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
