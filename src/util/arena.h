#ifndef VKG_UTIL_ARENA_H_
#define VKG_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace vkg::util {

/// 64-byte-aligned heap allocation (the easel esl_alloc discipline):
/// blocks returned by AlignedAlloc start on a cache line.
void* AlignedAlloc(size_t bytes);
void AlignedFree(void* p);

/// Bump allocator for per-query scratch (candidate distance buffers,
/// re-rank heaps, JL projection output). Engines call Reset() on entry
/// and then allocate with pointer bumps instead of malloc on the hot
/// path; nothing is freed individually.
///
/// Lifetime rules (DESIGN.md §6j): every span handed out stays valid
/// until the NEXT Reset() of the same arena — i.e. for the duration of
/// one query on one context. Arenas are single-threaded by design: one
/// per QueryContext, and contexts are never shared between concurrent
/// callers (shard workers and batch workers each own one, so arenas are
/// per-shard for free). Only trivially-destructible types may live in
/// an arena — nothing runs destructors.
///
/// Growth allocates a new block of twice the previous capacity (at
/// least kMinBlockBytes, at least the request); Reset() keeps only the
/// largest block so a steady-state query makes zero mallocs. Block
/// growth evaluates the `alloc.arena` failpoint and throws
/// std::bad_alloc when it fires — the same per-request isolation
/// contract as `alloc.scratch` (shard workers catch it and answer
/// ResourceExhausted for that request alone).
class Arena {
 public:
  static constexpr size_t kMinBlockBytes = 64 * 1024;
  static constexpr size_t kAlignment = 64;

  Arena();
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bumps out `bytes` bytes aligned to kAlignment. Never returns null;
  /// throws std::bad_alloc if a needed block cannot be allocated (or
  /// the `alloc.arena` failpoint fires).
  void* Allocate(size_t bytes);

  /// Typed uninitialized scratch: a span of `n` Ts the caller fills.
  template <typename T>
  std::span<T> AllocateSpan(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory never runs destructors");
    static_assert(alignof(T) <= kAlignment);
    if (n == 0) return {};
    return {static_cast<T*>(Allocate(n * sizeof(T))), n};
  }

  /// Invalidates everything allocated so far and keeps only the largest
  /// block for reuse. Call once per query, on engine entry.
  void Reset();

  /// Bytes handed out since the last Reset().
  size_t bytes_used() const { return bytes_used_; }
  /// Bytes of blocks currently owned (survives Reset()).
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Largest bytes_used() ever observed on this arena.
  size_t high_water_bytes() const { return high_water_bytes_; }

  /// Process-wide aggregates across all live arenas, mirrored into
  /// vkg_arena_* gauges by obs::PublishArenaStats().
  struct GlobalStats {
    size_t arenas = 0;          // live Arena objects
    size_t reserved_bytes = 0;  // sum of bytes_reserved()
    size_t blocks_allocated = 0;  // cumulative block mallocs (cold path)
  };
  static GlobalStats GetGlobalStats();

 private:
  struct Block {
    char* data = nullptr;
    size_t capacity = 0;
  };

  void* AllocateSlow(size_t bytes);

  std::vector<Block> blocks_;
  char* head_ = nullptr;  // next free byte in the active (last) block
  char* end_ = nullptr;   // one past the active block
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  size_t high_water_bytes_ = 0;
};

/// std::allocator adapter so standard containers (the re-rank heap, the
/// traversal frontier) can live in an arena. deallocate() is a no-op —
/// memory comes back at Reset() — so containers that grow geometrically
/// leave their old buffers behind; reserve() first where the size is
/// known.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T)));
  }
  void deallocate(T*, size_t) noexcept {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace vkg::util

#endif  // VKG_UTIL_ARENA_H_
