#include "simrt/request.hpp"

#include <stdexcept>

#include "perf/recorder.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {

Request& Request::operator=(Request&& other) noexcept {
  if (this != &other) {
    cancel();
    state_ = std::move(other.state_);
  }
  return *this;
}

Request::~Request() { cancel(); }

void Request::cancel() noexcept {
  if (!state_) return;
  {
    std::lock_guard lock(state_->mutex);
    state_->cancelled = true;  // deliverers skip cancelled receives
  }
  // Release only after the lock is gone: this may be the last reference and
  // a mutex must not be destroyed while held.
  state_.reset();
}

void Request::wait() {
  if (!state_) return;
  trace::TraceSpan span("comm.wait", state_->want_source, state_->want_tag);
  RequestState& rs = *state_;
  JobControl* control = rs.control;
  auto done = [&rs] { return rs.complete.load(std::memory_order_acquire); };
  WaitPoll(control).spin(done);
  if (!done()) {
    std::unique_lock lock(rs.mutex);
    BlockGuard guard;
    while (!done()) {
      if (control != nullptr && control->aborted()) {
        // The match will never arrive: mark cancelled so the deliverer skips
        // this (soon to dangle) buffer, then surface the abort.
        rs.cancelled = true;
        lock.unlock();
        state_.reset();
        control->throw_aborted();
      }
      if (control != nullptr) {
        guard.engage(*control, rs.owner, BlockKind::RequestWait, "wait(irecv)",
                     rs.want_source, rs.want_tag);
      }
      rs.cv.wait(lock);
    }
  }
  release_completed();
}

bool Request::test() {
  if (!state_) return true;
  if (!state_->complete.load(std::memory_order_acquire)) return false;
  release_completed();
  return true;
}

void Request::release_completed() {
  // `complete` was read with acquire, so the error fields written before it
  // are visible without the lock.
  const std::string error = state_->error;
  const bool checksum = state_->checksum_error;
  state_.reset();
  if (!error.empty()) {
    if (checksum) {
      perf::record_checksum_failure();
      throw ChecksumError(error);
    }
    throw std::runtime_error(error);
  }
}

void waitall(std::span<Request> requests) {
  for (auto& r : requests) r.wait();
}

}  // namespace vpar::simrt
