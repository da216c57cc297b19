#include "arena.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace pri
{

namespace
{

/** Slab alignment and size granularity: a page covers every
 *  alignment a simulator type asks for. */
constexpr size_t kSlabAlign = 4096;

thread_local LaneArena *tlsArena = nullptr;

size_t
roundUp(size_t v, size_t align)
{
    return (v + align - 1) & ~(align - 1);
}

std::byte *
allocSlab(size_t bytes)
{
    void *mem = nullptr;
    if (posix_memalign(&mem, kSlabAlign, bytes) != 0)
        throw std::bad_alloc();
    return static_cast<std::byte *>(mem);
}

} // namespace

LaneArena *
currentArena()
{
    return tlsArena;
}

ArenaScope::ArenaScope(LaneArena *arena) : prev(tlsArena)
{
    tlsArena = arena;
}

ArenaScope::~ArenaScope()
{
    tlsArena = prev;
}

LaneArena::~LaneArena()
{
    for (auto &s : slabs)
        std::free(s.mem);
}

void
LaneArena::grow(size_t min_bytes)
{
    // Advance through retained slabs first; only allocate fresh
    // storage when every retained slab is exhausted or too small.
    while (curSlab + 1 < slabs.size()) {
        ++curSlab;
        offset = 0;
        if (slabs[curSlab].cap >= min_bytes)
            return;
    }
    const size_t cap = roundUp(std::max(min_bytes, kSlabBytes),
                               kSlabAlign);
    slabs.push_back(Slab{allocSlab(cap), cap});
    curSlab = slabs.size() - 1;
    offset = 0;
}

void *
LaneArena::allocate(size_t bytes, size_t align)
{
    PRI_ASSERT((align & (align - 1)) == 0,
               "arena alignment must be a power of two");
    if (slabs.empty())
        grow(bytes);
    size_t at = roundUp(offset, align);
    if (at + bytes > slabs[curSlab].cap) {
        grow(bytes);
        at = 0;
    }
    std::byte *p = slabs[curSlab].mem + at;
    offset = at + bytes;
    return p;
}

void
LaneArena::reset()
{
    curSlab = 0;
    offset = 0;
}

} // namespace pri
