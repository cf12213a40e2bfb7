#include "simrt/mailbox.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "perf/recorder.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {

Payload Payload::copy_of(std::span<const std::byte> data) {
  Payload p;
  p.size_ = data.size();
  if (data.size() <= kInlineCapacity) {
    if (!data.empty()) std::memcpy(p.inline_buf_, data.data(), data.size());
    p.data_ = p.inline_buf_;
    p.storage_ = Storage::Inline;
    perf::record_payload(perf::PayloadEvent::Inline);
  } else {
    bool recycled = false;
    p.block_ = BufferArena::instance().acquire(data.size(), &recycled);
    std::memcpy(p.block_.data, data.data(), data.size());
    p.data_ = p.block_.data;
    p.storage_ = Storage::Arena;
    perf::record_payload(recycled ? perf::PayloadEvent::Recycle
                                  : perf::PayloadEvent::Alloc);
  }
  return p;
}

void MessageRing::grow(std::size_t min_capacity) {
  std::size_t cap = 16;
  while (cap < min_capacity) cap <<= 1;
  std::vector<Message> next(cap);
  for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(slots_[at(i)]);
  slots_ = std::move(next);
  head_ = 0;
}

void MessageRing::insert(std::size_t pos, Message&& msg) {
  if (count_ == slots_.size()) grow(count_ + 1);
  const std::size_t mask = slots_.size() - 1;
  if (pos <= count_ / 2) {
    // Rotate the shorter front side back one slot.
    head_ = (head_ + mask) & mask;  // head - 1 mod capacity
    for (std::size_t i = 0; i < pos; ++i) {
      slots_[at(i)] = std::move(slots_[at(i + 1)]);
    }
  } else {
    for (std::size_t i = count_; i > pos; --i) {
      slots_[at(i)] = std::move(slots_[at(i - 1)]);
    }
  }
  slots_[at(pos)] = std::move(msg);
  ++count_;
}

Message MessageRing::take(std::size_t pos) {
  Message msg = std::move(slots_[at(pos)]);
  if (pos <= count_ / 2) {
    for (std::size_t i = pos; i > 0; --i) {
      slots_[at(i)] = std::move(slots_[at(i - 1)]);
    }
    head_ = (head_ + 1) & (slots_.size() - 1);
  } else {
    for (std::size_t i = pos; i + 1 < count_; ++i) {
      slots_[at(i)] = std::move(slots_[at(i + 1)]);
    }
  }
  --count_;
  return msg;
}

void MessageRing::clear() {
  // Reset occupied slots to release their payloads; the allocation stays.
  for (std::size_t i = 0; i < count_; ++i) slots_[at(i)] = Message{};
  head_ = 0;
  count_ = 0;
}

void Mailbox::complete_locked(RequestState& rs, const Message& msg) {
  // The flow lands where the match happens — which for a posted receive is
  // the *sender's* thread (handoff); the event's rank field still tells the
  // reader which simulated rank was executing.
  if (msg.trace_id != 0) trace::emit_flow_end("msg", msg.trace_id);
  if (msg.payload.size() != rs.dest.size()) {
    rs.error = "recv: payload size mismatch (got " +
               std::to_string(msg.payload.size()) + " bytes, posted " +
               std::to_string(rs.dest.size()) + ")";
  } else if (msg.checksummed && fnv1a64(msg.payload.bytes()) != msg.checksum) {
    rs.checksum_error = true;
    rs.error = "recv: payload checksum mismatch (source " +
               std::to_string(msg.source) + ", tag " + std::to_string(msg.tag) +
               ", " + std::to_string(msg.payload.size()) + " bytes)";
  } else if (!rs.dest.empty()) {
    std::memcpy(rs.dest.data(), msg.payload.data(), rs.dest.size());
  }
  rs.complete.store(true, std::memory_order_release);
  rs.cv.notify_all();
}

void Mailbox::deliver(Message msg) {
  {
    std::lock_guard lock(mutex_);
    // Posted receives have matching priority, oldest first. Cancelled
    // entries (abandoned Requests) are pruned as we walk. The local copy of
    // the shared state keeps it alive past the erase: the pending list may
    // hold the last reference, and the state must outlive its own lock.
    for (auto it = pending_.begin(); it != pending_.end();) {
      std::shared_ptr<RequestState> rs = *it;
      std::lock_guard state_lock(rs->mutex);
      if (rs->cancelled) {
        it = pending_.erase(it);
        continue;
      }
      if (matches(msg.source, msg.tag, rs->want_source, rs->want_tag)) {
        complete_locked(*rs, msg);
        pending_.erase(it);
        return;
      }
      ++it;
    }
    // Injected reorder: jump ahead of up to msg.reorder queued messages, but
    // never past one from the same (source, tag) stream — per-stream FIFO is
    // a documented guarantee, chaos or not.
    std::size_t pos = queue_.size();
    for (int jump = msg.reorder; jump > 0 && pos > 0; --jump) {
      const Message& prev = queue_[pos - 1];
      if (prev.source == msg.source && prev.tag == msg.tag) break;
      --pos;
    }
    queue_.insert(pos, std::move(msg));
  }
  // After the unlock, so a poller that sees the bump finds the lock free.
  arrivals_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
}

Message Mailbox::receive(int source, int tag, const char* what) {
  std::unique_lock lock(mutex_);
  BlockGuard guard;
  WaitPoll poll(control_);
  for (;;) {
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Message& m = queue_[i];
      if (!matches(m.source, m.tag, source, tag)) continue;
      Message msg = queue_.take(i);
      if (msg.trace_id != 0) trace::emit_flow_end("msg", msg.trace_id);
      if (msg.checksummed && fnv1a64(msg.payload.bytes()) != msg.checksum) {
        perf::record_checksum_failure();
        throw ChecksumError("recv: payload checksum mismatch (source " +
                            std::to_string(msg.source) + ", tag " +
                            std::to_string(msg.tag) + ", " +
                            std::to_string(msg.payload.size()) + " bytes)");
      }
      return msg;
    }
    if (control_ != nullptr) {
      if (control_->aborted()) control_->throw_aborted();
      if (poll.budget_left()) {
        // Spin off the lock until something new is queued, then rescan; a
        // spent budget falls through to the park on the next pass. Every
        // enqueue after the scan bumps the counter past `seen`.
        const std::uint64_t seen = arrivals_.load(std::memory_order_relaxed);
        lock.unlock();
        poll.spin([&] { return arrivals_.load(std::memory_order_relaxed) != seen; });
        lock.lock();
        continue;
      }
      guard.engage(*control_, owner_, BlockKind::Recv, what, source, tag);
    }
    cv_.wait(lock);
  }
}

std::shared_ptr<RequestState> Mailbox::post_recv(int source, int tag,
                                                 std::span<std::byte> dest) {
  if (control_ != nullptr && control_->aborted()) control_->throw_aborted();
  auto state = std::make_shared<RequestState>();
  state->want_source = source;
  state->want_tag = tag;
  state->dest = dest;
  state->control = control_;
  state->owner = owner_;

  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (!matches(m.source, m.tag, source, tag)) continue;
    const Message msg = queue_.take(i);
    std::lock_guard state_lock(state->mutex);
    complete_locked(*state, msg);
    return state;
  }
  pending_.push_back(state);
  return state;
}

bool Mailbox::probe(int source, int tag) {
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (matches(m.source, m.tag, source, tag)) return true;
  }
  return false;
}

Mailbox::Stats Mailbox::stats() {
  std::lock_guard lock(mutex_);
  return {queue_.size(), pending_.size()};
}

void Mailbox::abort_wake() {
  std::vector<std::shared_ptr<RequestState>> parked;
  {
    std::lock_guard lock(mutex_);
    parked.assign(pending_.begin(), pending_.end());
  }
  cv_.notify_all();
  for (const auto& rs : parked) {
    // Lock-then-notify so a waiter between its predicate check and cv.wait
    // cannot miss the wake-up.
    { std::lock_guard state_lock(rs->mutex); }
    rs->cv.notify_all();
  }
}

void Mailbox::reset() {
  std::lock_guard lock(mutex_);
  queue_.clear();
  pending_.clear();
}

}  // namespace vpar::simrt
