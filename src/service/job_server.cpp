#include "service/job_server.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <utility>

#include "simrt/communicator.hpp"
#include "trace/trace.hpp"

namespace vpar::service {

namespace {

double to_ms(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::uint64_t to_u64(double v) {
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

/// Minimal JSON string escape for failure reports (error strings carry
/// quotes and newlines — the watchdog report is multi-line).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '-';
  }
  return out;
}

}  // namespace

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::Completed: return "completed";
    case Outcome::RetriedThenCompleted: return "retried-then-completed";
    case Outcome::Failed: return "failed";
    case Outcome::Rejected: return "rejected";
  }
  return "?";
}

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::None: return "none";
    case RejectReason::BadRequest: return "bad-request";
    case RejectReason::ShuttingDown: return "shutting-down";
    case RejectReason::QueueFull: return "queue-full";
    case RejectReason::BreakerOpen: return "breaker-open";
  }
  return "?";
}

JobServer::JobServer(const ServerConfig& config)
    : config_(config), breaker_(config.breaker) {
  // Read VPAR_TRACE and VPAR_TRACE_EVENTS now: a malformed value throws from
  // this constructor, not from an admission or a lane thread half-way
  // through its bookkeeping.
  (void)trace::mode();
  config_.lanes = std::max(config_.lanes, 1);
  config_.queue_capacity = std::max(config_.queue_capacity, 1);
  config_.max_ranks = std::max(config_.max_ranks, 1);
  lanes_.resize(static_cast<std::size_t>(config_.lanes));
  for (int i = 0; i < config_.lanes; ++i) {
    lanes_[static_cast<std::size_t>(i)].executor =
        std::make_unique<simrt::Executor>();
  }
  for (int i = 0; i < config_.lanes; ++i) {
    lanes_[static_cast<std::size_t>(i)].thread =
        std::thread([this, i] { lane_loop(i); });
  }
}

JobServer::~JobServer() { stop(); }

Admission JobServer::submit(JobSpec spec) {
  auto reject = [&](RejectReason why, std::string reason) {
    trace::emit_instant("service.reject", static_cast<std::int64_t>(why));
    Admission admission;
    admission.reject = why;
    admission.reason = reason;
    JobResult result;
    result.app = spec.app;
    result.tenant = spec.tenant;
    result.outcome = Outcome::Rejected;
    result.reject = why;
    result.error_type = "Rejected";
    result.error = std::move(reason);
    admission.ticket.complete(std::move(result));
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.rejected;
    switch (why) {
      case RejectReason::BadRequest: ++stats_.rejected_bad_request; break;
      case RejectReason::ShuttingDown: ++stats_.rejected_shutdown; break;
      case RejectReason::QueueFull: ++stats_.rejected_queue_full; break;
      case RejectReason::BreakerOpen: ++stats_.rejected_breaker; break;
      case RejectReason::None: break;
    }
    return admission;
  };

  if (!spec.body) {
    return reject(RejectReason::BadRequest, "bad request: job has no body");
  }
  if (spec.size < 1 || spec.size > config_.max_ranks) {
    return reject(RejectReason::BadRequest,
                  "bad request: size " + std::to_string(spec.size) +
                      " outside [1, " + std::to_string(config_.max_ranks) +
                      "]");
  }

  Admission admission;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      lock.unlock();
      return reject(RejectReason::ShuttingDown,
                    "server is shutting down, not accepting jobs");
    }
    if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
      lock.unlock();
      return reject(
          RejectReason::QueueFull,
          "queue full (" + std::to_string(config_.queue_capacity) + "/" +
              std::to_string(config_.queue_capacity) + "), resubmit later");
    }
    // Last gate, so a half-open probe slot is only consumed by a job that is
    // actually admitted.
    bool probe = false;
    if (!breaker_.allow(probe)) {
      lock.unlock();
      return reject(RejectReason::BreakerOpen,
                    "breaker open: recent job failure rate over threshold, "
                    "shedding load until the backend recovers");
    }

    Pending pending;
    pending.id = ++next_id_;
    pending.admitted = std::chrono::steady_clock::now();
    if (spec.deadline.count() > 0) {
      pending.deadline = pending.admitted + spec.deadline;
    }
    pending.breaker_probe = probe;
    pending.spec = std::move(spec);
    admission.accepted = true;
    admission.ticket = pending.ticket;
    ++stats_.submitted;
    trace::emit_instant("service.admit", static_cast<std::int64_t>(pending.id),
                        pending.spec.size);
    queue_.push_back(std::move(pending));
  }
  cv_work_.notify_one();
  return admission;
}

void JobServer::lane_loop(int lane) {
  trace::set_thread_label("svc-lane", lane);
  simrt::Executor& executor = *lanes_[static_cast<std::size_t>(lane)].executor;
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // stop() fails whatever is still queued
      pending = std::move(queue_.front());
      queue_.pop_front();
      ++busy_lanes_;
    }

    const auto start = std::chrono::steady_clock::now();
    JobResult result;
    result.queue_ms = to_ms(start - pending.admitted);
    const bool expired_in_queue =
        pending.deadline.time_since_epoch().count() > 0 &&
        start >= pending.deadline;
    if (expired_in_queue) {
      // Never ran: deadline spent waiting. Not breaker feedback — queue
      // expiry signals overload (which backpressure already handles), not a
      // faulty backend.
      result.outcome = Outcome::Failed;
      result.error_type = "DeadlineExceeded";
      result.error = "deadline expired while queued (waited " +
                     std::to_string(static_cast<long>(result.queue_ms)) +
                     " ms)";
      breaker_.forget(pending.breaker_probe);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.queue_expired;
    } else {
      result = run_job(executor, pending);
      result.queue_ms = to_ms(start - pending.admitted);
      breaker_.record(result.completed(), pending.breaker_probe);
    }
    finish_job(pending, std::move(result));

    {
      std::lock_guard<std::mutex> lock(mutex_);
      --busy_lanes_;
    }
    cv_idle_.notify_all();
  }
}

JobResult JobServer::run_job(simrt::Executor& executor, Pending& pending) {
  const JobSpec& spec = pending.spec;
  JobResult result;

  simrt::RunOptions options;
  options.size = spec.size;
  options.fault = spec.fault;
  options.checksums = spec.checksums;
  options.watchdog =
      spec.watchdog.count() > 0 ? spec.watchdog : config_.default_watchdog;
  options.deadline = pending.deadline;
  // Concurrent lanes cannot quiesce the process-wide trace rings, so the
  // in-Executor flight-recorder postmortem is off; finish_job writes the
  // per-job failure report instead.
  options.postmortem = false;

  simrt::RetryPolicy policy = spec.retry;
  if (policy.jitter == 0.0) policy.jitter = config_.default_retry_jitter;
  if (policy.jitter_seed == 0) policy.jitter_seed = spec.seed ^ pending.id;

  // Exact attempt count even when the final failure is rethrown through the
  // retry loop: rank 0 bumps it on body entry, before any fault can fire.
  std::atomic<int> attempts{0};
  const std::function<void(simrt::Communicator&)> body =
      [&](simrt::Communicator& comm) {
        if (comm.rank() == 0) attempts.fetch_add(1, std::memory_order_relaxed);
        spec.body(comm);
      };

  auto fail = [&result](const char* type, const char* what) {
    result.outcome = Outcome::Failed;
    result.error_type = type;
    result.error = what;
  };

  trace::TraceSpan span("service.job", static_cast<std::int64_t>(pending.id),
                        spec.size);
  trace::Metrics scope;  // per-job registry: this job's results only
  const auto start = std::chrono::steady_clock::now();
  try {
    simrt::RetryResult rr =
        simrt::run_with_retry(executor, options, body, policy);
    result.outcome = rr.attempts > 1 ? Outcome::RetriedThenCompleted
                                     : Outcome::Completed;
    const auto& comm = rr.result.merged.comm();
    result.total_messages = comm.total_messages();
    result.total_bytes = comm.total_bytes();
    result.faults_injected = comm.faults_injected();
    result.checksum_failures = comm.checksum_failures();
    auto& rank_messages = scope.histogram("rank.messages");
    auto& rank_bytes = scope.histogram("rank.bytes");
    for (const auto& r : rr.result.per_rank) {
      rank_messages.record(to_u64(r.comm().total_messages()));
      rank_bytes.record(to_u64(r.comm().total_bytes()));
    }
  } catch (const simrt::DeadlineExceeded& e) {
    fail("DeadlineExceeded", e.what());
  } catch (const simrt::WatchdogTimeout& e) {
    fail("WatchdogTimeout", e.what());
  } catch (const simrt::RankError& e) {
    result.failed_rank = e.failed_rank();
    fail("RankError", e.what());
  } catch (const simrt::JobAborted& e) {
    fail("JobAborted", e.what());
  } catch (const std::exception& e) {
    fail("Exception", e.what());
  }
  result.run_ms = to_ms(std::chrono::steady_clock::now() - start);
  result.attempts =
      std::max(attempts.load(std::memory_order_relaxed), 1);

  scope.counter("job.attempts").add(static_cast<std::uint64_t>(result.attempts));
  scope.counter("comm.messages").add(to_u64(result.total_messages));
  scope.counter("comm.bytes").add(to_u64(result.total_bytes));
  scope.counter("faults.injected").add(to_u64(result.faults_injected));
  scope.counter("checksum.failures").add(to_u64(result.checksum_failures));
  result.metrics = scope.snapshot();
  return result;
}

void JobServer::finish_job(Pending& pending, JobResult result) {
  result.id = pending.id;
  result.app = pending.spec.app;
  result.tenant = pending.spec.tenant;
  result.latency_ms =
      to_ms(std::chrono::steady_clock::now() - pending.admitted);

  {
    std::lock_guard<std::mutex> lock(tenants_mutex_);
    auto& slot = tenants_[result.tenant];
    if (!slot) slot = std::make_unique<trace::Metrics>();
    trace::Metrics& tenant = *slot;
    switch (result.outcome) {
      case Outcome::Completed: tenant.counter("jobs.completed").add(); break;
      case Outcome::RetriedThenCompleted:
        tenant.counter("jobs.retried").add();
        break;
      default: tenant.counter("jobs.failed").add(); break;
    }
    tenant.counter("comm.messages").add(to_u64(result.total_messages));
    tenant.counter("comm.bytes").add(to_u64(result.total_bytes));
    tenant.counter("faults.injected").add(to_u64(result.faults_injected));
    tenant.counter("checksum.failures").add(to_u64(result.checksum_failures));
    tenant.histogram("job.latency_ms").record(to_u64(result.latency_ms));
    tenant.histogram("job.queue_ms").record(to_u64(result.queue_ms));
    tenant.histogram("job.run_ms").record(to_u64(result.run_ms));
  }

  if (result.outcome == Outcome::Failed && config_.failure_reports) {
    write_failure_report(result);
  }
  trace::emit_instant("service.job.done", static_cast<std::int64_t>(result.id),
                      static_cast<std::int64_t>(result.outcome));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (result.outcome) {
      case Outcome::Completed: ++stats_.completed; break;
      case Outcome::RetriedThenCompleted:
        ++stats_.retried_then_completed;
        break;
      case Outcome::Failed: ++stats_.failed; break;
      case Outcome::Rejected: ++stats_.rejected; break;  // not reached
    }
  }
  pending.ticket.complete(std::move(result));
}

void JobServer::write_failure_report(const JobResult& result) const {
  const std::string path = config_.failure_report_dir + "/vpar_job." +
                           std::to_string(result.id) + "." +
                           sanitize(result.tenant) + ".json";
  std::ofstream out(path);
  if (!out) return;
  out << "{\"id\":" << result.id << ",\"app\":\"" << json_escape(result.app)
      << "\",\"tenant\":\"" << json_escape(result.tenant)
      << "\",\"outcome\":\"" << to_string(result.outcome)
      << "\",\"error_type\":\"" << json_escape(result.error_type)
      << "\",\"error\":\"" << json_escape(result.error)
      << "\",\"failed_rank\":" << result.failed_rank
      << ",\"attempts\":" << result.attempts
      << ",\"queue_ms\":" << result.queue_ms
      << ",\"run_ms\":" << result.run_ms
      << ",\"latency_ms\":" << result.latency_ms << "}\n";
}

void JobServer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && busy_lanes_ == 0; });
}

void JobServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& lane : lanes_) {
    if (lane.thread.joinable()) lane.thread.join();
  }
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftovers.swap(queue_);
  }
  for (auto& pending : leftovers) {
    breaker_.forget(pending.breaker_probe);
    JobResult result;
    result.outcome = Outcome::Failed;
    result.error_type = "ServerStopped";
    result.error = "server stopped before the job ran";
    result.queue_ms = to_ms(std::chrono::steady_clock::now() - pending.admitted);
    finish_job(pending, std::move(result));
  }
}

ServerStats JobServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats stats = stats_;
  stats.queue_depth = static_cast<int>(queue_.size());
  stats.busy_lanes = busy_lanes_;
  stats.breaker_opens = breaker_.opens();
  return stats;
}

CircuitBreaker::State JobServer::breaker_state() const {
  return breaker_.state();
}

trace::MetricsSnapshot JobServer::tenant_snapshot(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  return it->second->snapshot();
}

}  // namespace vpar::service
