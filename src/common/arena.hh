/**
 * @file
 * LaneArena: a slab bump allocator backing the simulator state of
 * one SweepBatch lane (DESIGN.md §14).
 *
 * A lane's machine is constructed inside one ArenaScope, so every
 * fixed-size container it allocates at construction — ROB hot/cold
 * arrays, scheduler bitmaps, event wheel slots, rename free lists,
 * cache tag arrays, predictor tables — lands contiguous in the arena
 * instead of scattered across the heap. Each worker thread owns one
 * arena and rewinds it (slabs retained, bump pointer reset) before
 * every lane, so every lane after the first reuses already-faulted,
 * already-hot pages: per-point construction cost drops from
 * "malloc + page fault + zero" to "zero".
 *
 * Deallocation is a no-op; memory is reclaimed only by reset(). That
 * is safe exactly because a lane is destroyed before the next one is
 * built (the only caller of reset()). Containers that grow mid-run
 * leak their old block into the slab — bounded, because steady-state
 * simulation does not grow (core.scratchGrowths gates that
 * invariant).
 *
 * ArenaAlloc<T> is a minimal allocator over the *ambient* arena: the
 * thread-local currentArena() set by ArenaScope. A container
 * captures the arena active when it is constructed (null = plain
 * heap, byte-for-byte the legacy behavior), so arena-backing a
 * member is a type change only — no constructor plumbing through
 * core/rename/memory/branch.
 */

#ifndef PRI_COMMON_ARENA_HH
#define PRI_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace pri
{

/** Slab bump allocator; see file comment. Not thread-safe: one
 *  arena belongs to one worker thread. */
class LaneArena
{
  public:
    LaneArena() = default;
    ~LaneArena();

    LaneArena(const LaneArena &) = delete;
    LaneArena &operator=(const LaneArena &) = delete;

    /** Bump-allocate @p bytes aligned to @p align. Never fails soft:
     *  grows a new slab (or a dedicated oversized one) on demand. */
    void *allocate(size_t bytes, size_t align);

    /** Rewind every slab; all outstanding allocations must be dead.
     *  Slab storage is retained for reuse. */
    void reset();

    /** Granularity of slab growth. */
    static constexpr size_t kSlabBytes = 8u << 20;

  private:
    struct Slab
    {
        std::byte *mem = nullptr;
        size_t cap = 0;
    };

    void grow(size_t min_bytes);

    std::vector<Slab> slabs;
    size_t curSlab = 0; ///< slab currently bumping
    size_t offset = 0;  ///< bump offset within curSlab
};

/** The thread's ambient arena (null outside any ArenaScope). */
LaneArena *currentArena();

/** RAII: containers constructed inside the scope allocate from
 *  @p arena. Nests; restores the previous ambient arena on exit. */
class ArenaScope
{
  public:
    explicit ArenaScope(LaneArena *arena);
    ~ArenaScope();

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    LaneArena *prev;
};

/**
 * Allocator over the ambient arena. Captures currentArena() at
 * construction; a null arena falls back to operator new/delete, so
 * containers built outside any ArenaScope behave exactly as before.
 */
template <class T>
struct ArenaAlloc
{
    using value_type = T;

    LaneArena *arena;

    ArenaAlloc() : arena(currentArena()) {}
    explicit ArenaAlloc(LaneArena *a) : arena(a) {}
    template <class U>
    ArenaAlloc(const ArenaAlloc<U> &o) : arena(o.arena)
    {
    }

    T *
    allocate(size_t n)
    {
        const size_t bytes = n * sizeof(T);
        if (arena != nullptr) {
            return static_cast<T *>(
                arena->allocate(bytes, alignof(T)));
        }
        return static_cast<T *>(
            ::operator new(bytes, std::align_val_t{alignof(T)}));
    }

    void
    deallocate(T *p, size_t n)
    {
        if (arena != nullptr)
            return; // reclaimed wholesale by LaneArena::reset()
        ::operator delete(p, n * sizeof(T),
                          std::align_val_t{alignof(T)});
    }

    bool
    operator==(const ArenaAlloc &o) const
    {
        return arena == o.arena;
    }
};

/**
 * A std::vector whose storage comes from the ambient arena when one
 * is active at construction time (and from the heap otherwise). The
 * hot per-lane simulator containers are declared with this alias so
 * a batched lane packs into its arena (DESIGN.md §14) with zero
 * call-site changes.
 */
template <class T>
using HotVec = std::vector<T, ArenaAlloc<T>>;

} // namespace pri

#endif // PRI_COMMON_ARENA_HH
