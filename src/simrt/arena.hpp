#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace vpar::simrt {

/// Handle to one arena-owned buffer. `cls` is the size-class index the block
/// must be returned to; -1 marks an oversize block that bypassed the classes
/// and is freed directly.
struct ArenaBlock {
  std::byte* data = nullptr;
  std::size_t capacity = 0;
  int cls = -1;
};

/// Process-wide size-classed recycling arena for message payload buffers.
///
/// Size classes are powers of two from 64 B to 4 MiB; release() parks a block
/// on its class free list (bounded per class) instead of freeing it, so the
/// steady-state message traffic of a run — halo exchanges, collective
/// fragments, transpose blocks of a handful of recurring sizes — stops
/// touching the system allocator after the first few iterations. A bounded
/// per-thread front cache absorbs same-thread release/acquire cycles without
/// taking the mutex; the shared lists back it. Requests above the largest
/// class fall through to plain heap allocation.
///
/// instance() returns a deliberately leaked singleton: payloads cached inside
/// the shared Executor's runtime state are released during static
/// destruction, and the arena must still be alive to take them back.
class BufferArena {
 public:
  static BufferArena& instance();

  /// A buffer with capacity >= `bytes`. Sets `*recycled` to true when the
  /// block came off a free list rather than from a fresh allocation.
  [[nodiscard]] ArenaBlock acquire(std::size_t bytes, bool* recycled);

  /// Return a block obtained from acquire(). Blocks beyond the per-class
  /// cache bound are freed.
  void release(const ArenaBlock& block);

  static constexpr std::size_t kMinClassBytes = 64;
  static constexpr std::size_t kMaxClassBytes = std::size_t{4} << 20;
  static constexpr int kNumClasses = 17;  // 64 B, 128 B, ..., 4 MiB

 private:
  BufferArena() = default;

  std::mutex mutex_;
  std::vector<std::byte*> free_lists_[kNumClasses];
};

}  // namespace vpar::simrt
