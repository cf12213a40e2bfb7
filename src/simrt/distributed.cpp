#include "simrt/distributed.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "simrt/transport_socket.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

long env_long(const char* name, long fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') {
    throw TransportError(std::string(name) + "='" + s + "' is not a number");
  }
  return v;
}

/// True while the calling thread is inside a distributed rank body: a nested
/// run() must fall back to the local in-process executor, not re-enter the
/// one-rank-per-process session.
thread_local bool t_in_distributed = false;

/// Process-wide distributed session: the RuntimeState and transport are
/// brought up once (full socket mesh, blocking until every rank arrives) and
/// reused by every subsequent run() — mailboxes deliberately carry over,
/// because a peer racing ahead into the next run may deliver that run's
/// first frames before this rank gets there.
struct DistSession {
  DistConfig config = dist_config_from_env();
  std::unique_ptr<RuntimeState> state;
  Transport* transport = nullptr;
  std::mutex run_mutex;  // serializes whole run_distributed invocations

  DistSession() {
    // Flow ids must be globally unique across the job so merged Perfetto
    // traces pair send -> recv arrows between processes.
    trace::seed_flow_ids((static_cast<std::uint64_t>(config.rank) + 1) << 40);
    trace::set_thread_label("rank", config.rank);
    state = std::make_unique<RuntimeState>(config.world);
    SocketTransport::Config sc;
    sc.rank = config.rank;
    sc.world = config.world;
    sc.dir = config.session_dir;
    sc.tcp_base = config.tcp_base;
    sc.connect_timeout = config.connect_timeout;
    sc.heartbeat = config.heartbeat;
    sc.peer_timeout = config.peer_timeout;
    auto t = std::make_unique<SocketTransport>(sc, state->mailboxes,
                                               state->control);
    transport = t.get();
    state->install_transport(std::move(t));
  }
};

DistSession& dist_session() {
  // Meyers singleton: a bring-up failure propagates to the caller and is
  // retried on the next run() call. Destroyed during static destruction —
  // the transport's teardown (Goodbye frames, thread joins) is the
  // clean end-of-process handshake peers wait on.
  static DistSession session;
  return session;
}

/// Per-rank watchdog + deadline enforcement for distributed jobs. The
/// in-process executor's scanner reads every rank's blocked-state registry;
/// here only the local rank's is live, so the verdict is local — this rank
/// blocked with no progress past the timeout — and the transport's
/// peer-liveness report is folded in to say why (a dead peer is caught
/// earlier by the failure detector; a merely-slow one shows as alive).
class LocalSupervisor {
 public:
  LocalSupervisor(RuntimeState& state, Transport& transport, int rank)
      : state_(state), transport_(transport), rank_(rank) {
    if (state_.control.watchdog_armed() || state_.control.deadline_armed()) {
      thread_ = std::thread([this] { loop(); });
    }
  }
  ~LocalSupervisor() { stop(); }

  void stop() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::exception_ptr verdict() {
    std::lock_guard lock(mutex_);
    return verdict_;
  }

 private:
  void loop() {
    const bool watchdog = state_.control.watchdog_armed();
    const bool deadline = state_.control.deadline_armed();
    const auto timeout = state_.control.watchdog();
    const auto base_chunk =
        watchdog ? std::chrono::nanoseconds(std::clamp<std::int64_t>(
                       timeout.count() / 4, 5'000'000, 200'000'000))
                 : std::chrono::nanoseconds(20'000'000);
    std::uint64_t last_seq = 0;
    bool primed = false;

    std::unique_lock lock(mutex_);
    while (!done_) {
      auto chunk = base_chunk;
      if (deadline) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                state_.control.deadline() - std::chrono::steady_clock::now());
        chunk = std::clamp(remaining, std::chrono::nanoseconds(1'000'000), chunk);
      }
      if (cv_.wait_for(lock, chunk, [this] { return done_; })) break;
      if (deadline) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= state_.control.deadline()) {
          const auto over =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - state_.control.deadline());
          trace::emit_instant("deadline.exceeded", over.count());
          const std::string reason =
              "job deadline exceeded (rank " + std::to_string(rank_) +
              " of " + std::to_string(state_.size) + ", aborted " +
              std::to_string(over.count()) + " ms past the deadline)";
          decide(std::make_exception_ptr(DeadlineExceeded(reason)), reason,
                 lock);
          break;
        }
      }
      if (!watchdog) continue;
      trace::emit_instant("watchdog.scan");
      const auto& s = state_.control.status(rank_);
      if (s.finished.load(std::memory_order_acquire)) continue;
      if (s.blocked.load(std::memory_order_acquire) == 0) {
        primed = false;  // the rank is running: the job is alive
        continue;
      }
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (!primed || seq != last_seq) {
        last_seq = seq;
        primed = true;  // verdict needs stability across two scans
        continue;
      }
      const std::uint64_t now = now_ns();
      const std::uint64_t since = s.since_ns.load(std::memory_order_relaxed);
      if (now - since < static_cast<std::uint64_t>(timeout.count())) continue;

      trace::emit_instant("watchdog.timeout");
      const char* what = s.what.load(std::memory_order_relaxed);
      std::string report =
          "deadlock watchdog: rank " + std::to_string(rank_) + " of " +
          std::to_string(state_.size) + " made no progress for " +
          std::to_string(timeout.count() / 1'000'000) + " ms; blocked in " +
          ((what != nullptr) ? what : "unknown wait") + " (source " +
          std::to_string(s.source.load(std::memory_order_relaxed)) + ", tag " +
          std::to_string(s.tag.load(std::memory_order_relaxed)) + ")";
      const char* op = s.last_op.load(std::memory_order_relaxed);
      if (op != nullptr) {
        report += "; comm call #" +
                  std::to_string(s.calls.load(std::memory_order_relaxed)) +
                  " (" + op + ")";
      }
      report += "\n" + transport_.peer_report();
      decide(std::make_exception_ptr(WatchdogTimeout(report)), report, lock);
      break;
    }
  }

  void decide(std::exception_ptr error, const std::string& reason,
              std::unique_lock<std::mutex>& lock) {
    verdict_ = std::move(error);
    lock.unlock();
    state_.control.abort(reason);
    lock.lock();
  }

  RuntimeState& state_;
  Transport& transport_;
  int rank_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::exception_ptr verdict_;
  std::thread thread_;
};

}  // namespace

DistConfig dist_config_from_env() {
  DistConfig config;
  config.kind = transport_kind_from_env();
  if (config.kind == TransportKind::Inproc) return config;

  if (std::getenv("VPAR_RANK") == nullptr ||
      std::getenv("VPAR_WORLD") == nullptr) {
    throw TransportError(std::string("VPAR_TRANSPORT=") +
                         to_string(config.kind) +
                         " needs VPAR_RANK and VPAR_WORLD — launch the "
                         "processes with scripts/vpar_launch");
  }
  config.rank = static_cast<int>(env_long("VPAR_RANK", 0));
  config.world = static_cast<int>(env_long("VPAR_WORLD", 1));
  if (config.world < 1 || config.rank < 0 || config.rank >= config.world) {
    throw TransportError("bad VPAR_RANK/VPAR_WORLD (" +
                         std::to_string(config.rank) + "/" +
                         std::to_string(config.world) + ")");
  }
  if (const char* dir = std::getenv("VPAR_SESSION_DIR")) {
    config.session_dir = dir;
  }
  config.tcp_base = static_cast<int>(env_long("VPAR_TCP_BASE", 0));
  config.heartbeat =
      std::chrono::milliseconds(std::max(env_long("VPAR_HEARTBEAT_MS", 200), 1L));
  config.peer_timeout = std::chrono::milliseconds(
      std::max(env_long("VPAR_PEER_TIMEOUT_MS", 2'000), 0L));
  config.connect_timeout = std::chrono::milliseconds(
      std::max(env_long("VPAR_CONNECT_TIMEOUT_MS", 10'000), 1L));

  if (config.tcp_base == 0 && config.session_dir.empty()) {
    throw TransportError(
        "socket transport needs VPAR_SESSION_DIR (Unix endpoints) or "
        "VPAR_TCP_BASE (loopback TCP)");
  }
  return config;
}

bool distributed_env_active() {
  // Read once: the dispatch decision must not flip mid-process even if a
  // test mutates the environment later. Parsing is the strict path — a junk
  // VPAR_TRANSPORT or a half-configured distributed environment throws
  // TransportError here rather than silently running single-process.
  static const bool active = [] {
    if (std::getenv("VPAR_TRANSPORT") == nullptr) return false;
    return dist_config_from_env().kind != TransportKind::Inproc;
  }();
  return active;
}

int distributed_rank() {
  static const int rank =
      distributed_env_active() ? static_cast<int>(env_long("VPAR_RANK", -1)) : -1;
  return rank;
}

int distributed_world() {
  static const int world =
      distributed_env_active() ? static_cast<int>(env_long("VPAR_WORLD", 0)) : 0;
  return world;
}

bool in_distributed_body() { return t_in_distributed; }

RunResult run_distributed(const RunOptions& options,
                          const std::function<void(Communicator&)>& body) {
  if (t_in_distributed) {
    throw std::runtime_error(
        "run_distributed: nested distributed runs are not supported (a "
        "nested simrt::run of a different size runs in-process)");
  }
  DistSession& session = dist_session();
  if (options.size != session.config.world) {
    throw TransportError("run_distributed: options.size " +
                         std::to_string(options.size) + " != VPAR_WORLD " +
                         std::to_string(session.config.world));
  }
  std::lock_guard serial(session.run_mutex);
  const int rank = session.config.rank;
  RuntimeState& state = *session.state;

  // Per-run refresh. Mailboxes are NOT reset: a peer racing ahead into this
  // run may already have delivered its first frames, and the per-(sender,
  // tag) FIFO keeps them correctly ordered for the matching receives.
  {
    std::lock_guard lock(state.registry_mutex);
    state.registry.clear();
  }
  for (auto& r : state.recorders) r.clear();
  state.control.configure(options);

  // Every rank of the job is a process on this host: count them all, as
  // Executor::run counts its threads (waits_may_poll).
  const RunningRanks running(state.size);
  std::exception_ptr error;
  LocalSupervisor supervisor(state, *session.transport, rank);
  trace::set_thread_rank(rank);
  {
    trace::TraceSpan job_span("job", rank, state.size);
    perf::ScopedRecorder scoped(
        state.recorders[static_cast<std::size_t>(rank)]);
    Communicator comm(state, rank);
    t_in_distributed = true;
    try {
      body(comm);
    } catch (...) {
      error = std::current_exception();
    }
    t_in_distributed = false;
  }
  trace::set_thread_rank(-1);
  state.control.finish(rank);
  supervisor.stop();

  if (error) {
    // A bare JobAborted is the symptom of a cooperative abort; surface the
    // cause instead: the transport's PeerLost (a peer process died) first,
    // then the supervisor's verdict (watchdog/deadline).
    bool bare_abort = false;
    try {
      std::rethrow_exception(error);
    } catch (const PeerLost&) {
    } catch (const WatchdogTimeout&) {
    } catch (const DeadlineExceeded&) {
    } catch (const JobAborted&) {
      bare_abort = true;
    } catch (...) {
    }
    if (bare_abort) {
      if (auto failure = session.transport->failure()) {
        error = failure;
      } else if (auto verdict = supervisor.verdict()) {
        error = verdict;
      }
    }
    // Peers must see this rank's failure as PeerLost, not as a clean finish.
    session.transport->note_local_failure();
    std::rethrow_exception(error);
  }

  RunResult result;
  result.per_rank.assign(state.recorders.begin(), state.recorders.end());
  result.merged.merge(state.recorders[static_cast<std::size_t>(rank)]);
  return result;
}

}  // namespace vpar::simrt
