#include "simrt/arena.hpp"

#include <algorithm>

#include "simrt/fault.hpp"

namespace vpar::simrt {

namespace {

/// Per-class caching caps: ~8 MiB shared (at least 4 blocks) so a burst of
/// large transposes cannot pin unbounded memory, 256 KiB per-thread front
/// cache (at least 2 blocks) so the messaging hot paths skip the arena mutex.
constexpr std::size_t kSharedBytesPerClass = std::size_t{8} << 20;
constexpr std::size_t kThreadCacheBytesPerClass = std::size_t{256} << 10;

struct ThreadCache {
  std::vector<std::byte*> lists[BufferArena::kNumClasses];
};

// `t_cache`/`t_cache_dead` are trivially destructible, so they stay readable
// after thread-local destructors have run. Payloads released during static
// destruction (e.g. cached in the shared Executor's mailboxes) then see a
// null cache and take the shared-list path instead of touching a destroyed
// object.
thread_local ThreadCache* t_cache = nullptr;
thread_local bool t_cache_dead = false;

struct ThreadCacheHolder {
  ThreadCache cache;
  ~ThreadCacheHolder() {
    t_cache = nullptr;
    t_cache_dead = true;
    // Drain to the shared lists (release() now bypasses the thread cache).
    for (int cls = 0; cls < BufferArena::kNumClasses; ++cls) {
      for (std::byte* data : cache.lists[cls]) {
        ArenaBlock block;
        block.data = data;
        block.capacity = BufferArena::kMinClassBytes << cls;
        block.cls = cls;
        BufferArena::instance().release(block);
      }
    }
  }
};

ThreadCache* thread_cache() {
  if (t_cache != nullptr) return t_cache;
  if (t_cache_dead) return nullptr;
  static thread_local ThreadCacheHolder holder;
  t_cache = &holder.cache;
  return t_cache;
}

}  // namespace

BufferArena& BufferArena::instance() {
  static BufferArena* arena = new BufferArena;  // leaked: see class comment
  return *arena;
}

ArenaBlock BufferArena::acquire(std::size_t bytes, bool* recycled) {
  maybe_inject_alloc_failure(bytes);  // seeded chaos: memory exhaustion
  ArenaBlock block;
  if (bytes > kMaxClassBytes) {
    block.data = new std::byte[bytes];
    block.capacity = bytes;
    block.cls = -1;
    *recycled = false;
    return block;
  }
  int cls = 0;
  std::size_t capacity = kMinClassBytes;
  while (capacity < bytes) {
    capacity <<= 1;
    ++cls;
  }
  block.capacity = capacity;
  block.cls = cls;
  if (ThreadCache* tc = thread_cache();
      tc != nullptr && !tc->lists[cls].empty()) {
    block.data = tc->lists[cls].back();
    tc->lists[cls].pop_back();
    *recycled = true;
    return block;
  }
  {
    std::lock_guard lock(mutex_);
    auto& list = free_lists_[cls];
    if (!list.empty()) {
      block.data = list.back();
      list.pop_back();
      *recycled = true;
      return block;
    }
  }
  block.data = new std::byte[capacity];
  *recycled = false;
  return block;
}

void BufferArena::release(const ArenaBlock& block) {
  if (block.data == nullptr) return;
  if (block.cls < 0) {
    delete[] block.data;
    return;
  }
  if (ThreadCache* tc = thread_cache(); tc != nullptr) {
    auto& list = tc->lists[block.cls];
    const std::size_t cap = std::max<std::size_t>(
        2, kThreadCacheBytesPerClass / block.capacity);
    if (list.size() < cap) {
      list.push_back(block.data);
      return;
    }
  }
  {
    std::lock_guard lock(mutex_);
    auto& list = free_lists_[block.cls];
    const std::size_t cap = std::max<std::size_t>(
        4, kSharedBytesPerClass / block.capacity);
    if (list.size() < cap) {
      list.push_back(block.data);
      return;
    }
  }
  delete[] block.data;
}

}  // namespace vpar::simrt
