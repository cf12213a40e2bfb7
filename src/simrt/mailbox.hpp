#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "simrt/arena.hpp"
#include "simrt/fault.hpp"
#include "simrt/request.hpp"

namespace vpar::simrt {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Move-only immutable message payload with three storage tiers chosen for
/// zero steady-state allocation:
///  - Inline: payloads up to kInlineCapacity live inside the Payload object
///    itself (no heap traffic at all — the common case for collective
///    fragments, barrier signals and small control messages).
///  - Arena: larger copy_of() payloads borrow a recycled buffer from the
///    process-wide BufferArena and return it on destruction.
///  - Adopted: adopt() takes ownership of the sender's vector (any element
///    type) with no data copy — the move-handoff path of isend/pipelined
///    transposes.
/// The payload is copied exactly once, into the receiver's destination
/// buffer, at match time.
class Payload {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  Payload() = default;
  Payload(Payload&& other) noexcept { move_from(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { release(); }

  /// Copy `data` into inline or arena storage (records the payload storage
  /// event on the calling thread's recorder).
  static Payload copy_of(std::span<const std::byte> data);

  template <typename T>
  static Payload adopt(std::vector<T>&& v) {
    const std::size_t bytes = v.size() * sizeof(T);
    if (bytes <= kInlineCapacity) {
      // Inlining beats keeping the vector alive for tiny handoffs.
      return copy_of(std::as_bytes(std::span<const T>(v)));
    }
    Payload p;
    auto owned = std::make_shared<std::vector<T>>(std::move(v));
    p.data_ = reinterpret_cast<const std::byte*>(owned->data());
    p.size_ = bytes;
    p.owner_ = std::move(owned);
    p.storage_ = Storage::Adopted;
    return p;
  }

  [[nodiscard]] const std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const std::byte> bytes() const { return {data_, size_}; }

  /// Mutable view for the fault injector's in-transit bit-flips. Only valid
  /// before delivery, while the sender exclusively owns the payload.
  [[nodiscard]] std::span<std::byte> mutable_bytes() {
    return {const_cast<std::byte*>(data_), size_};
  }

 private:
  enum class Storage : std::uint8_t { None, Inline, Arena, Adopted };

  void move_from(Payload& other) noexcept {
    storage_ = other.storage_;
    size_ = other.size_;
    owner_ = std::move(other.owner_);
    block_ = other.block_;
    if (storage_ == Storage::Inline) {
      if (size_ > 0) std::memcpy(inline_buf_, other.inline_buf_, size_);
      data_ = inline_buf_;
    } else {
      data_ = other.data_;
    }
    other.storage_ = Storage::None;
    other.data_ = nullptr;
    other.size_ = 0;
    other.block_ = {};
  }

  void release() noexcept {
    if (storage_ == Storage::Arena) BufferArena::instance().release(block_);
    owner_.reset();
    storage_ = Storage::None;
    data_ = nullptr;
    size_ = 0;
    block_ = {};
  }

  std::shared_ptr<const void> owner_;
  ArenaBlock block_;
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  Storage storage_ = Storage::None;
  std::byte inline_buf_[kInlineCapacity];
};

/// One in-flight message: payload plus (source, tag) matching metadata.
/// `checksum` (when `checksummed`) is the sender-side FNV-1a of the payload,
/// verified at match time; `reorder` asks deliver() to enqueue the message
/// ahead of up to that many queued messages from other (source, tag) streams
/// (fault injection — per-stream FIFO is still preserved).
struct Message {
  int source = 0;
  int tag = 0;
  std::uint64_t checksum = 0;
  bool checksummed = false;
  int reorder = 0;
  /// Nonzero when tracing: flow id stamped by the sender (emit_flow_begin);
  /// the receive-side match emits the paired FlowEnd, drawing a send→recv
  /// arrow in the exported Chrome trace.
  std::uint64_t trace_id = 0;
  Payload payload;
};

/// Power-of-two circular buffer of Messages — the mailbox's queue storage.
/// Steady-state delivery reuses slots in place (a std::deque allocates and
/// frees chunk nodes as the queue breathes), so the messaging hot path stops
/// touching the allocator once the ring has grown to the job's queue depth.
/// Middle insert/take (reorder injection, tag-selective receive) shift
/// whichever side is shorter. Indices are logical: 0 is the oldest message.
class MessageRing {
 public:
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] Message& operator[](std::size_t i) { return slots_[at(i)]; }
  [[nodiscard]] const Message& operator[](std::size_t i) const {
    return slots_[at(i)];
  }

  void push_back(Message&& msg) { insert(count_, std::move(msg)); }

  /// Insert before logical position `pos` (0 = front, size() = back).
  void insert(std::size_t pos, Message&& msg);

  /// Remove and return the message at logical position `pos`.
  [[nodiscard]] Message take(std::size_t pos);

  /// Release every queued payload; capacity is retained for reuse.
  void clear();

 private:
  [[nodiscard]] std::size_t at(std::size_t i) const {
    return (head_ + i) & (slots_.size() - 1);
  }
  void grow(std::size_t min_capacity);

  std::vector<Message> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Per-rank inbound message queue with MPI-style (source, tag) matching and
/// posted-receive handoff:
///  - deliver() first tries the *pending receive list* (receives posted with
///    post_recv that nothing has matched yet), oldest first; on a match the
///    payload is copied directly into the posted buffer and the request
///    completes — on the sender's thread, which is what lets the receiver
///    overlap packing/compute with communication. Unmatched messages queue.
///  - post_recv() first tries the queue (oldest compatible message wins,
///    preserving the MPI non-overtaking guarantee per (sender, tag)); else
///    the receive parks in the pending list.
///  - receive() is the blocking, dynamically-sized variant used by
///    collectives and variable-size protocols; posted receives always have
///    matching priority over it because they were posted earlier.
class Mailbox {
 public:
  /// Bind this mailbox to its owning rank's job control block (done once by
  /// RuntimeState). Blocking receives then honour cooperative abort and
  /// register their blocked state for the deadlock watchdog.
  void attach(JobControl* control, int owner) {
    control_ = control;
    owner_ = owner;
  }

  /// Enqueue or hand off a message (called from the sender's thread).
  void deliver(Message msg);

  /// Block until a message matching (source, tag) is available and return it.
  /// `source`/`tag` may be kAnySource/kAnyTag wildcards. A polling job's
  /// waiter spins on the arrival counter for its WaitPoll budget before it
  /// parks. `what` names the
  /// operation in blocked-state reports (e.g. "recv", "barrier"). Throws
  /// JobAborted if the job is cooperatively aborted while waiting, and
  /// ChecksumError if the matched payload fails verification.
  [[nodiscard]] Message receive(int source, int tag, const char* what = "recv");

  /// Post a nonblocking receive into `dest`; the returned state completes
  /// once a matching message has been copied into `dest` (possibly already).
  [[nodiscard]] std::shared_ptr<RequestState> post_recv(int source, int tag,
                                                        std::span<std::byte> dest);

  /// Non-blocking probe: true if a matching message is queued.
  [[nodiscard]] bool probe(int source, int tag);

  /// Queue depths for blocked-state reports.
  struct Stats {
    std::size_t queued = 0;
    std::size_t pending = 0;
  };
  [[nodiscard]] Stats stats();

  /// Wake the owning rank out of any blocking receive or Request::wait after
  /// a cooperative abort: notifies the mailbox condvar and every parked
  /// pending receive (their waiters recheck JobControl::aborted()).
  void abort_wake();

  /// Drop any queued messages and pending receives. Called by the pooled
  /// executor between jobs so a recycled mailbox starts clean; after a
  /// well-formed job both containers are already empty.
  void reset();

 private:
  // kAnyTag matches *user* tags only (>= 0); internal collective traffic
  // rides in the negative tag space and must be matched exactly, so a
  // wildcard receive can never steal a collective fragment.
  static bool matches(int msg_source, int msg_tag, int source, int tag) {
    return (source == kAnySource || msg_source == source) &&
           (tag == kAnyTag ? msg_tag >= 0 : msg_tag == tag);
  }

  /// Copy `msg`'s payload into `rs->dest` and complete it (caller holds
  /// rs->mutex). A size mismatch completes the request with an error.
  static void complete_locked(RequestState& rs, const Message& msg);

  std::mutex mutex_;
  std::condition_variable cv_;
  /// Bumped after every enqueue, once mutex_ is released: a receive()
  /// polls it off the lock instead of sleeping on cv_ (WaitPoll).
  std::atomic<std::uint64_t> arrivals_{0};
  MessageRing queue_;
  std::deque<std::shared_ptr<RequestState>> pending_;
  JobControl* control_ = nullptr;
  int owner_ = 0;
};

}  // namespace vpar::simrt
