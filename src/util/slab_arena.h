/**
 * @file
 * Slab/bump allocation for hot-path node storage (DAOS gurt-style).
 *
 * Three layers, all deterministic and single-owner:
 *
 *  - SlabArena: a chunked bump allocator. allocate() carves aligned
 *    bytes out of fixed-size chunks (growing by whole chunks, never
 *    moving prior allocations); reset() recycles every chunk at once
 *    without returning memory to the system. There is no per-object
 *    free — objects freed individually live in a SlabPool instead.
 *
 *  - SlabPool<T>: a fixed-size object pool on top of an arena. Nodes
 *    are carved from the arena and recycled through an intrusive
 *    free list, so steady-state allocate()/release() touches no
 *    global allocator at all. This is where the event-queue callback
 *    nodes, socket segment nodes, and ledger slots live.
 *
 *  - ChunkedVector<T>: an arena-backed dense sequence with stable
 *    element addresses (it grows by chunks, never reallocates), an
 *    O(1) operator[], and forward iteration. Span nodes live here:
 *    references returned by SpanCollector::span() stay valid across
 *    growth, which std::vector could not promise.
 *
 * Lifetime contract: memory obtained from an arena dies with the
 * arena (or at reset()). Under AddressSanitizer, reclaimed regions
 * are poisoned, so a use-after-reset or use-after-release is a hard
 * ASan error instead of silent corruption (see the arena tests).
 * None of this is thread-safe; each arena has exactly one owner
 * (per-queue, per-kernel, per-collector), like everything driven by
 * the single-threaded simulation (DESIGN.md §2b).
 */

#ifndef PCON_UTIL_SLAB_ARENA_H
#define PCON_UTIL_SLAB_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PCON_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PCON_ASAN 1
#endif
#endif
#ifndef PCON_ASAN
#define PCON_ASAN 0
#endif

#if PCON_ASAN
#include <sanitizer/asan_interface.h>
#define PCON_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define PCON_UNPOISON(addr, size) \
    ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define PCON_POISON(addr, size) ((void)(addr), (void)(size))
#define PCON_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace pcon {
namespace util {

/**
 * Chunked bump allocator. Allocations never move; reset() recycles
 * all chunks in O(chunks) without freeing them.
 */
class SlabArena
{
  public:
    /** Default chunk payload size (64 KiB). */
    static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

    /**
     * @param chunk_bytes Payload bytes per chunk; allocations larger
     *        than this get a dedicated oversize chunk.
     */
    explicit SlabArena(std::size_t chunk_bytes = kDefaultChunkBytes);

    SlabArena(const SlabArena &) = delete;
    SlabArena &operator=(const SlabArena &) = delete;
    ~SlabArena();

    /**
     * Carve `bytes` aligned to `align` (a power of two <= 64).
     * Never returns nullptr; growth fatal()s only on OOM from the
     * system allocator. A zero-byte request returns a unique,
     * aligned, dereferenceable-for-zero-bytes pointer.
     */
    void *allocate(std::size_t bytes, std::size_t align);

    /** Typed construct-in-place on arena storage. */
    template <typename T, typename... Args>
    T *
    create(Args &&...args)
    {
        void *raw = allocate(sizeof(T), alignof(T));
        return ::new (raw) T(std::forward<Args>(args)...);
    }

    /**
     * Recycle every chunk: all outstanding allocations become
     * invalid (and poisoned under ASan). Destructors are NOT run —
     * arenas hold trivially-destructible nodes or nodes whose owner
     * destroys them first. Chunk memory is retained for reuse.
     */
    void reset();

    /** Bytes handed out since construction or the last reset(). */
    std::size_t bytesAllocated() const { return bytesAllocated_; }

    /** Total payload bytes reserved from the system allocator. */
    std::size_t bytesReserved() const { return bytesReserved_; }

    /** Number of chunks owned (regular + oversize). */
    std::size_t chunkCount() const { return chunks_.size(); }

    /** Allocations served since construction or the last reset(). */
    std::uint64_t allocationCount() const { return allocationCount_; }

  private:
    struct Chunk
    {
        unsigned char *data = nullptr;
        std::size_t size = 0;
    };

    /** Sentinel for "no active chunk" (fresh arena or just reset). */
    static constexpr std::size_t kNoChunk =
        static_cast<std::size_t>(-1);

    /** Advance to a reusable or freshly grown chunk. */
    void activateNextChunk(std::size_t min_bytes);

    std::size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    /** Index of the chunk currently being bumped. */
    std::size_t activeChunk_ = kNoChunk;
    /** Bump offset within the active chunk. */
    std::size_t offset_ = 0;
    std::size_t bytesAllocated_ = 0;
    std::size_t bytesReserved_ = 0;
    std::uint64_t allocationCount_ = 0;
};

/**
 * Fixed-size object pool over a SlabArena: allocate() pops the free
 * list or bumps the arena; release() runs the destructor and pushes
 * the node back (poisoned under ASan until reused). Node addresses
 * are stable for the node's lifetime.
 */
template <typename T>
class SlabPool
{
  public:
    /** @param arena Backing arena; must outlive the pool. */
    explicit SlabPool(SlabArena &arena) : arena_(arena) {}

    SlabPool(const SlabPool &) = delete;
    SlabPool &operator=(const SlabPool &) = delete;

    template <typename... Args>
    T *
    allocate(Args &&...args)
    {
        void *raw;
        if (freeHead_ != nullptr) {
            FreeNode *node = freeHead_;
            PCON_UNPOISON(node, slotBytes());
            freeHead_ = node->next;
            raw = node;
        } else {
            raw = arena_.allocate(slotBytes(), slotAlign());
            ++capacity_;
        }
        ++live_;
        return ::new (raw) T(std::forward<Args>(args)...);
    }

    /** Destroy the object and recycle its slot. */
    void
    release(T *obj)
    {
        obj->~T();
        FreeNode *node = reinterpret_cast<FreeNode *>(obj);
        node->next = freeHead_;
        freeHead_ = node;
        --live_;
        // Poison all but the embedded free-list link so a stale
        // pointer into the payload trips ASan immediately.
        PCON_POISON(reinterpret_cast<unsigned char *>(node) +
                        sizeof(FreeNode),
                    slotBytes() - sizeof(FreeNode));
    }

    /** Live (allocated, unreleased) objects. */
    std::size_t liveCount() const { return live_; }

    /** Slots ever carved from the arena (live + free-listed). */
    std::size_t capacity() const { return capacity_; }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    static constexpr std::size_t
    slotBytes()
    {
        return sizeof(T) > sizeof(FreeNode) ? sizeof(T)
                                            : sizeof(FreeNode);
    }

    static constexpr std::size_t
    slotAlign()
    {
        return alignof(T) > alignof(FreeNode) ? alignof(T)
                                              : alignof(FreeNode);
    }

    SlabArena &arena_;
    FreeNode *freeHead_ = nullptr;
    std::size_t live_ = 0;
    std::size_t capacity_ = 0;
};

/**
 * Arena-backed sequence with stable element addresses: grows by
 * fixed-size chunks, so push_back() never moves existing elements
 * and references/iterators to existing elements stay valid (only
 * end() is invalidated). Elements are destroyed by clear() and the
 * destructor, in index order.
 */
template <typename T, std::size_t ChunkElems = 256>
class ChunkedVector
{
    static_assert(ChunkElems > 0 && (ChunkElems & (ChunkElems - 1)) == 0,
                  "ChunkElems must be a power of two");

  public:
    ChunkedVector() = default;

    ChunkedVector(const ChunkedVector &) = delete;
    ChunkedVector &operator=(const ChunkedVector &) = delete;

    ChunkedVector(ChunkedVector &&other) noexcept
        : arena_(std::move(other.arena_)),
          chunks_(std::move(other.chunks_)),
          size_(std::exchange(other.size_, 0))
    {
    }

    ChunkedVector &
    operator=(ChunkedVector &&other) noexcept
    {
        if (this != &other) {
            clear();
            arena_ = std::move(other.arena_);
            chunks_ = std::move(other.chunks_);
            size_ = std::exchange(other.size_, 0);
        }
        return *this;
    }

    ~ChunkedVector() { clear(); }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if ((size_ & (ChunkElems - 1)) == 0)
            chunks_.push_back(static_cast<T *>(arena_->allocate(
                ChunkElems * sizeof(T), alignof(T))));
        T *slot = chunks_[size_ / ChunkElems] + (size_ % ChunkElems);
        T *obj = ::new (static_cast<void *>(slot))
            T(std::forward<Args>(args)...);
        ++size_;
        return *obj;
    }

    void push_back(const T &value) { emplace_back(value); }
    void push_back(T &&value) { emplace_back(std::move(value)); }

    T &
    operator[](std::size_t i)
    {
        return chunks_[i / ChunkElems][i % ChunkElems];
    }

    const T &
    operator[](std::size_t i) const
    {
        return chunks_[i / ChunkElems][i % ChunkElems];
    }

    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Destroy all elements and recycle the chunks. */
    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            (*this)[i].~T();
        size_ = 0;
        chunks_.clear();
        if (arena_ != nullptr) // moved-from vectors have no arena
            arena_->reset();
    }

    /** Forward iterator (also usable as a const iterator). */
    template <typename CV, typename Ref>
    class Iter
    {
      public:
        Iter(CV *owner, std::size_t index)
            : owner_(owner), index_(index)
        {
        }

        Ref operator*() const { return (*owner_)[index_]; }

        Iter &
        operator++()
        {
            ++index_;
            return *this;
        }

        bool
        operator!=(const Iter &other) const
        {
            return index_ != other.index_;
        }

        bool
        operator==(const Iter &other) const
        {
            return index_ == other.index_;
        }

      private:
        CV *owner_;
        std::size_t index_;
    };

    using iterator = Iter<ChunkedVector, T &>;
    using const_iterator = Iter<const ChunkedVector, const T &>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, size_); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, size_); }

  private:
    /**
     * unique_ptr keeps the type movable while SlabArena itself stays
     * pinned (outstanding chunk pointers must not move).
     */
    std::unique_ptr<SlabArena> arena_ =
        std::make_unique<SlabArena>(ChunkElems * sizeof(T) + alignof(T));
    std::vector<T *> chunks_;
    std::size_t size_ = 0;
};

} // namespace util
} // namespace pcon

#endif // PCON_UTIL_SLAB_ARENA_H
