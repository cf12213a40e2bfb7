#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "simrt/fault.hpp"

namespace vpar::simrt {

/// Shared completion state of one nonblocking operation. Receives park here
/// until a matching message is delivered; the *sender's* thread then copies
/// the payload straight into the posted destination buffer (a handoff — the
/// message never sits in the queue) and flips `complete`. Errors discovered
/// at match time (payload/buffer size mismatch) are stored and rethrown by
/// Request::wait()/test() on the posting thread.
struct RequestState {
  std::mutex mutex;
  std::condition_variable cv;
  /// Stored (release, under `mutex`) after the payload copy and the error
  /// fields, so Request::wait can poll it without the lock (WaitPoll).
  std::atomic<bool> complete{false};
  bool cancelled = false;
  bool checksum_error = false;
  std::string error;

  // Matching metadata and destination of a posted receive.
  int want_source = 0;
  int want_tag = 0;
  std::span<std::byte> dest{};

  // Owning rank's job control block (set by Mailbox::post_recv); lets wait()
  // honour cooperative abort and register with the deadlock watchdog.
  JobControl* control = nullptr;
  int owner = 0;
};

/// Handle to a nonblocking send or receive. Move-only, MPI_Request-flavoured:
///   wait()     block until complete (throws a stored matching error),
///   test()     poll without blocking,
/// Default-constructed and already-waited requests are complete. Destroying
/// a request that never completed *cancels* it: the runtime stops matching
/// it and will never write through its (possibly dangling) buffer — the safe
/// interpretation of MPI_Request_free for a simulated runtime.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> state) : state_(std::move(state)) {}
  Request(Request&&) noexcept = default;
  Request& operator=(Request&& other) noexcept;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;
  ~Request();

  /// Block until the operation completes, then release the handle: a
  /// polling job's waiter spins on `complete` for its WaitPoll budget before
  /// it parks. Throws std::runtime_error if the match failed (size mismatch).
  void wait();

  /// True if the operation has completed (always true for a null handle).
  /// Completion with a stored error throws, like wait().
  [[nodiscard]] bool test();

  /// False for default-constructed or already-waited handles.
  [[nodiscard]] bool active() const { return state_ != nullptr; }

 private:
  void cancel() noexcept;
  /// Release a completed state; rethrow its stored matching error, if any.
  void release_completed();

  std::shared_ptr<RequestState> state_;
};

/// Wait on every request in the span (in order; all are complete on return).
void waitall(std::span<Request> requests);

}  // namespace vpar::simrt
