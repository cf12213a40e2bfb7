#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "perf/recorder.hpp"
#include "simrt/mailbox.hpp"
#include "simrt/rendezvous.hpp"
#include "simrt/request.hpp"
#include "simrt/transport.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {

/// Reduction operations supported by allreduce.
enum class ReduceOp { Sum, Max, Min };

/// Shared state of one simulated parallel job.
struct RuntimeState {
  explicit RuntimeState(int size_in)
      : size(size_in),
        mailboxes(static_cast<std::size_t>(size_in)),
        rendezvous(size_in),
        recorders(static_cast<std::size_t>(size_in)),
        control(size_in),
        transport(std::make_unique<InprocTransport>(mailboxes)) {
    for (int r = 0; r < size_in; ++r) {
      mailboxes[static_cast<std::size_t>(r)].attach(&control, r);
    }
    rendezvous.attach(&control);
    // Wake every blocking primitive after a cooperative abort so blocked
    // ranks observe JobControl::aborted() instead of sleeping forever.
    control.set_waker([this] {
      for (auto& mb : mailboxes) mb.abort_wake();
      rendezvous.abort_wake();
    });
  }

  /// Swap in a multi-process backend (done once by the distributed bootstrap
  /// before any Communicator is constructed on this state). The state's own
  /// mailboxes stay the receive side — only this process's rank's inbox is
  /// ever populated; routing to every other rank crosses the wire.
  void install_transport(std::unique_ptr<Transport> t) {
    transport = std::move(t);
  }

  /// True when this job's ranks live in separate processes.
  [[nodiscard]] bool multiprocess() const { return transport->multiprocess(); }

  /// Restore the state for reuse by a subsequent job on the same pooled
  /// executor: drop stale messages, shared objects and instrumentation.
  /// Must only be called while no rank threads are active. The Rendezvous is
  /// generation-counted and self-resetting, so it carries no stale state.
  /// (The executor never reuses the state of an *aborted* job — its
  /// rendezvous generation count is forfeit — so no abort state is cleared
  /// here; JobControl::configure re-arms the control block per job.)
  void reset() {
    for (auto& mb : mailboxes) mb.reset();
    {
      std::lock_guard lock(registry_mutex);
      registry.clear();
    }
    for (auto& r : recorders) r.clear();
  }

  int size;
  std::vector<Mailbox> mailboxes;
  Rendezvous rendezvous;
  std::mutex registry_mutex;
  std::map<std::string, std::shared_ptr<void>> registry;
  std::vector<perf::Recorder> recorders;
  JobControl control;
  std::unique_ptr<Transport> transport;  // message routing backend (see transport.hpp)
};

/// MPI-flavoured communicator bound to one rank of a simulated job.
///
/// Point-to-point semantics are those of buffered MPI sends: send()/isend()
/// enqueue the payload at the destination and return immediately (isend
/// additionally hands large payloads off by move, with no eager copy);
/// recv() blocks until a matching message arrives; irecv() posts the
/// destination buffer so the transfer completes while the caller does other
/// work, synchronized through the returned Request.
///
/// Collectives are built on log-depth pairwise exchanges over the mailboxes
/// (binomial gather/broadcast trees, a dissemination barrier, pipelined
/// pairwise all-to-all); the global Rendezvous remains only as the barrier
/// fallback for tiny jobs and the CoArray phase fence. User tags must be
/// >= 0 — the
/// negative tag space carries collective traffic, and kAnyTag wildcards
/// match user messages only, so a wildcard receive can never steal a
/// collective fragment.
///
/// Every operation reports its volume to the installed perf::Recorder so
/// network models can cost the run afterwards; traffic posted inside a
/// perf::OverlapScope is recorded as overlapped (see perf/comm_profile.hpp).
class Communicator {
 public:
  /// Binding a communicator also installs its injector as the calling
  /// thread's ambient injector (restored on destruction), so fault decisions
  /// made below the communicator — arena allocation failures — are drawn
  /// from this rank's seeded stream.
  Communicator(RuntimeState& state, int rank)
      : state_(&state),
        rank_(rank),
        injector_(state.control.fault(), rank),
        prev_injector_(exchange_thread_injector(&injector_)) {}
  ~Communicator() { exchange_thread_injector(prev_injector_); }
  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return state_->size; }

  /// Public communication calls made through this communicator so far — the
  /// call index FaultPlan::fail_at_call and failure reports refer to.
  [[nodiscard]] std::uint64_t comm_calls() const { return calls_; }

  // --- point to point -----------------------------------------------------

  void send_bytes(int dest, std::span<const std::byte> data, int tag);
  void recv_bytes(int source, std::span<std::byte> data, int tag);

  /// Nonblocking send (buffered: completes immediately, payload copied once).
  Request isend_bytes(int dest, std::span<const std::byte> data, int tag);

  /// Nonblocking receive into `data`; the buffer must stay valid until the
  /// returned Request is waited on (or the Request is destroyed, which
  /// cancels the receive).
  [[nodiscard]] Request irecv_bytes(int source, std::span<std::byte> data, int tag);

  /// Blocking receive of a message whose size the receiver does not know;
  /// used by variable-size protocols (particle migration, transposes).
  [[nodiscard]] Message recv_message(int source, int tag);

  template <typename T>
  void send(int dest, std::span<const T> data, int tag) {
    send_bytes(dest, std::as_bytes(data), tag);
  }
  template <typename T>
  void recv(int source, std::span<T> data, int tag) {
    recv_bytes(source, std::as_writable_bytes(data), tag);
  }

  template <typename T>
  [[nodiscard]] Request isend(int dest, std::span<const T> data, int tag) {
    return isend_bytes(dest, std::as_bytes(data), tag);
  }

  /// Move-handoff nonblocking send: adopts the vector with no payload copy.
  template <typename T>
  [[nodiscard]] Request isend(int dest, std::vector<T>&& data, int tag) {
    check_dest_tag(dest, tag);
    trace::TraceSpan span("comm.isend", dest,
                          static_cast<std::int64_t>(data.size() * sizeof(T)));
    begin_op("isend");
    const double bytes = static_cast<double>(data.size() * sizeof(T));
    raw_send(dest, Payload::adopt(std::move(data)), tag);
    perf::record_comm(perf::CommKind::PointToPoint, 1.0, bytes);
    return Request();
  }

  template <typename T>
  [[nodiscard]] Request irecv(int source, std::span<T> data, int tag) {
    return irecv_bytes(source, std::as_writable_bytes(data), tag);
  }

  /// Exchange: send to `dest` and receive from `source` with the same tag.
  /// Never deadlocks because sends are buffered.
  template <typename T>
  void sendrecv(int dest, std::span<const T> send_data, int source,
                std::span<T> recv_data, int tag) {
    send(dest, send_data, tag);
    recv(source, recv_data, tag);
  }

  // --- collectives ----------------------------------------------------------

  void barrier();

  template <typename T>
  [[nodiscard]] T allreduce(T value, ReduceOp op) {
    T result = value;
    allreduce_inplace(std::span<T>(&result, 1), op);
    return result;
  }

  /// Element-wise reduction of equal-length buffers across all ranks; every
  /// rank receives the reduced vector in place. Internally: binomial-tree
  /// gather of the raw contributions to rank 0, a sequential rank-ordered
  /// fold there (bitwise-identical result on every rank, independent of the
  /// tree shape), and a binomial broadcast of the reduced vector.
  template <typename T>
  void allreduce_inplace(std::span<T> values, ReduceOp op) {
    const int P = size();
    const std::size_t n = values.size();
    trace::TraceSpan span("comm.allreduce", P,
                          static_cast<std::int64_t>(n * sizeof(T)));
    begin_op("allreduce");
    if (P > 1) {
      perf::CommRecordSuppressor mute;
      // Gather phase: each rank accumulates the contributions of the
      // contiguous rank block [rank, rank + 2^k) in rank order, then hands
      // the block to its binomial parent.
      std::vector<T> block(values.begin(), values.end());
      bool sent = false;
      for (int step = 1; step < P && !sent; step <<= 1) {
        if ((rank_ & step) != 0) {
          raw_send(rank_ - step, Payload::adopt(std::move(block)),
                   kTagAllreduceGather);
          sent = true;
        } else if (rank_ + step < P) {
          const int partner = rank_ + step;
          const auto pcov = static_cast<std::size_t>(std::min(step, P - partner));
          Message m = raw_receive(partner, kTagAllreduceGather, "allreduce");
          if (m.payload.size() != pcov * n * sizeof(T)) {
            throw std::runtime_error("allreduce: tree block size mismatch");
          }
          const auto old = block.size();
          block.resize(old + pcov * n);
          if (n > 0) {
            std::memcpy(block.data() + old, m.payload.data(), m.payload.size());
          }
        }
      }
      if (rank_ == 0) {
        // Fold left-to-right in rank order — the exact association the
        // rendezvous implementation used, so numerics are unchanged.
        for (std::size_t i = 0; i < n; ++i) {
          T acc = block[i];
          for (int r = 1; r < P; ++r) {
            acc = apply(acc, block[static_cast<std::size_t>(r) * n + i], op);
          }
          values[i] = acc;
        }
      }
      // Broadcast phase: after round k, ranks [0, 2^k) hold the result.
      for (int step = 1; step < P; step <<= 1) {
        if (rank_ < step) {
          if (rank_ + step < P) {
            raw_send(rank_ + step, Payload::copy_of(std::as_bytes(values)),
                     kTagAllreduceBcast);
          }
        } else if (rank_ < 2 * step) {
          Message m = raw_receive(rank_ - step, kTagAllreduceBcast, "allreduce");
          if (m.payload.size() != n * sizeof(T)) {
            throw std::runtime_error("allreduce: result size mismatch");
          }
          if (n > 0) std::memcpy(values.data(), m.payload.data(), m.payload.size());
        }
      }
    }
    const double bytes = static_cast<double>(n * sizeof(T));
    perf::record_comm(perf::CommKind::Reduction, log2ceil(P), bytes * log2ceil(P));
  }

  /// Binomial-tree broadcast from `root`.
  template <typename T>
  void broadcast(std::span<T> values, int root) {
    const int P = size();
    check_root(root);
    trace::TraceSpan span("comm.broadcast", root,
                          static_cast<std::int64_t>(values.size() * sizeof(T)));
    begin_op("broadcast");
    {
      perf::CommRecordSuppressor mute;
      const int vr = (rank_ - root + P) % P;
      for (int step = 1; step < P; step <<= 1) {
        if (vr < step) {
          if (vr + step < P) {
            raw_send((vr + step + root) % P,
                     Payload::copy_of(std::as_bytes(std::span<const T>(values))),
                     kTagBroadcast);
          }
        } else if (vr < 2 * step) {
          Message m = raw_receive((vr - step + root) % P, kTagBroadcast, "broadcast");
          if (m.payload.size() != values.size() * sizeof(T)) {
            throw std::runtime_error("broadcast: size mismatch");
          }
          if (!values.empty()) {
            std::memcpy(values.data(), m.payload.data(), m.payload.size());
          }
        }
      }
    }
    if (rank_ == root) {
      perf::record_comm(perf::CommKind::Broadcast, log2ceil(size()),
                        static_cast<double>(values.size() * sizeof(T)) * log2ceil(size()));
    }
  }

  /// Gather contributions to `root` over a binomial tree; on `root`, `out`
  /// receives rank-ordered data (contributions may differ in length; `out`
  /// must hold their total). On other ranks `out` is ignored. Every rank
  /// records the gather as a log-depth collective on its own contribution.
  template <typename T>
  void gather(std::span<const T> contribution, std::span<T> out, int root) {
    const int P = size();
    check_root(root);
    trace::TraceSpan span("comm.gather", root,
                          static_cast<std::int64_t>(contribution.size() * sizeof(T)));
    begin_op("gather");
    {
      perf::CommRecordSuppressor mute;
      const int vr = (rank_ - root + P) % P;
      // Accumulated block: per-virtual-rank element counts for the covered
      // contiguous range [vr, vr + covered), then their concatenated data.
      std::vector<std::uint64_t> counts{contribution.size()};
      std::vector<T> data(contribution.begin(), contribution.end());
      bool sent = false;
      for (int step = 1; step < P && !sent; step <<= 1) {
        if ((vr & step) != 0) {
          std::vector<std::byte> wire(counts.size() * sizeof(std::uint64_t) +
                                      data.size() * sizeof(T));
          std::memcpy(wire.data(), counts.data(), counts.size() * sizeof(std::uint64_t));
          if (!data.empty()) {
            std::memcpy(wire.data() + counts.size() * sizeof(std::uint64_t),
                        data.data(), data.size() * sizeof(T));
          }
          raw_send((vr - step + root) % P, Payload::adopt(std::move(wire)), kTagGather);
          sent = true;
        } else if (vr + step < P) {
          const int pvr = vr + step;
          const auto pcov = static_cast<std::size_t>(std::min(step, P - pvr));
          Message m = raw_receive((pvr + root) % P, kTagGather, "gather");
          if (m.payload.size() < pcov * sizeof(std::uint64_t)) {
            throw std::runtime_error("gather: tree block header mismatch");
          }
          const auto old_counts = counts.size();
          counts.resize(old_counts + pcov);
          std::memcpy(counts.data() + old_counts, m.payload.data(),
                      pcov * sizeof(std::uint64_t));
          std::size_t elems = 0;
          for (std::size_t i = old_counts; i < counts.size(); ++i) {
            elems += static_cast<std::size_t>(counts[i]);
          }
          if (m.payload.size() != pcov * sizeof(std::uint64_t) + elems * sizeof(T)) {
            throw std::runtime_error("gather: tree block size mismatch");
          }
          const auto old_data = data.size();
          data.resize(old_data + elems);
          if (elems > 0) {
            std::memcpy(data.data() + old_data,
                        m.payload.data() + pcov * sizeof(std::uint64_t),
                        elems * sizeof(T));
          }
        }
      }
      if (vr == 0) {
        // counts/data are ordered by virtual rank; lay out by real rank.
        std::vector<std::size_t> real_count(static_cast<std::size_t>(P));
        for (int v = 0; v < P; ++v) {
          real_count[static_cast<std::size_t>((v + root) % P)] =
              static_cast<std::size_t>(counts[static_cast<std::size_t>(v)]);
        }
        std::vector<std::size_t> offset(static_cast<std::size_t>(P), 0);
        std::size_t total = 0;
        for (int r = 0; r < P; ++r) {
          offset[static_cast<std::size_t>(r)] = total;
          total += real_count[static_cast<std::size_t>(r)];
        }
        if (total > out.size()) {
          throw std::runtime_error("gather: output buffer too small");
        }
        std::size_t consumed = 0;
        for (int v = 0; v < P; ++v) {
          const std::size_t cnt = static_cast<std::size_t>(counts[static_cast<std::size_t>(v)]);
          if (cnt > 0) {
            std::copy_n(data.data() + consumed, cnt,
                        out.data() + offset[static_cast<std::size_t>((v + root) % P)]);
          }
          consumed += cnt;
        }
      }
    }
    perf::record_comm(perf::CommKind::Gather, log2ceil(P),
                      static_cast<double>(contribution.size() * sizeof(T)) * log2ceil(P));
  }

  /// Personalized all-to-all, the global-transpose pattern of the
  /// distributed 3D FFT: `pack(dest)` returns this rank's block for rank
  /// `dest` (a std::vector<T>) just before it is sent, by move with no
  /// payload copy; `unpack(src, block)` consumes the block rank `src` sent
  /// here as soon as it arrives. The self block is packed and unpacked
  /// first and never crosses the wire. P-1 pairwise rounds follow (round r
  /// sends to rank+r and receives from rank-r), so the packing and
  /// unpacking of round r overlap the traffic of rounds r±1. Recorded as one
  /// overlapped AllToAll operation carrying the non-self bytes. A block
  /// whose byte size is not a whole number of T (a peer called with another
  /// element type) throws std::runtime_error.
  template <typename T, typename PackFn, typename UnpackFn>
  void alltoallv_pipelined(PackFn&& pack, UnpackFn&& unpack) {
    const int P = size();
    trace::TraceSpan span("comm.alltoallv_pipelined", P);
    begin_op("alltoallv");
    perf::OverlapScope window;
    double bytes = 0.0;
    {
      perf::CommRecordSuppressor mute;
      unpack(rank_, pack(rank_));  // self block never crosses the wire
      for (int r = 1; r < P; ++r) {
        const int dest = (rank_ + r) % P;
        const int src = (rank_ + P - r) % P;
        std::vector<T> box = pack(dest);
        bytes += static_cast<double>(box.size() * sizeof(T));
        raw_send(dest, Payload::adopt(std::move(box)), kTagAlltoallPipe);
        Message m = raw_receive(src, kTagAlltoallPipe, "alltoallv");
        if (m.payload.size() % sizeof(T) != 0) {
          throw std::runtime_error("alltoallv: block is not a whole number of elements");
        }
        std::vector<T> in(m.payload.size() / sizeof(T));
        if (!in.empty()) std::memcpy(in.data(), m.payload.data(), m.payload.size());
        unpack(src, std::move(in));
      }
    }
    perf::record_comm(perf::CommKind::AllToAll, 1.0, bytes);
  }

  // --- registry (used by CoArray and other collective objects) -------------

  /// Find-or-create a named shared object; `make` runs exactly once across
  /// the job. All ranks must call with the same name concurrently.
  template <typename T>
  std::shared_ptr<T> shared_object(const std::string& name,
                                   const std::function<std::shared_ptr<T>()>& make) {
    if (size() > 1 && state_->multiprocess()) {
      // Each rank process has its own address space; a "shared" object here
      // would silently be per-rank. Fail loudly instead of computing wrong
      // answers — CAF-style exchanges require the inproc backend.
      throw std::runtime_error(
          "shared_object('" + name +
          "'): cross-rank shared objects require the inproc transport");
    }
    std::shared_ptr<T> object;
    {
      std::lock_guard lock(state_->registry_mutex);
      auto it = state_->registry.find(name);
      if (it == state_->registry.end()) {
        object = make();
        state_->registry[name] = object;
      } else {
        object = std::static_pointer_cast<T>(it->second);
      }
    }
    return object;
  }

  [[nodiscard]] RuntimeState& state() { return *state_; }

 private:
  // Collective traffic rides in the negative tag space (kAnyTag wildcards
  // match user tags >= 0 only), one tag per collective phase; correctness
  // across back-to-back collectives follows from SPMD program order plus the
  // mailbox's per-(sender, tag) FIFO guarantee.
  static constexpr int kTagAllreduceGather = -10;
  static constexpr int kTagAllreduceBcast = -11;
  static constexpr int kTagBroadcast = -12;
  static constexpr int kTagGather = -13;
  static constexpr int kTagAlltoallPipe = -15;
  static constexpr int kTagBarrier = -16;

  /// Largest team size still served by the centralized rendezvous barrier;
  /// larger teams use the log-depth dissemination barrier over the
  /// mailboxes (see barrier()).
  static constexpr int kBarrierRendezvousMax = 8;

  void check_dest_tag(int dest, int tag) const {
    if (dest < 0 || dest >= size()) throw std::runtime_error("send: bad destination rank");
    if (tag < 0) throw std::runtime_error("send: user tags must be >= 0");
  }
  void check_root(int root) const {
    if (root < 0 || root >= size()) throw std::runtime_error("collective: bad root rank");
  }

  /// Entry hook of every public communication operation: honours cooperative
  /// abort, advances the per-rank call counter for blocked-state reports, and
  /// gives the fault injector its chance to stall or kill this rank. Internal
  /// raw_send/raw_receive fragments deliberately do NOT count as calls —
  /// "comm call #N" in failure reports means the N-th *public* operation.
  void begin_op(const char* op) {
    JobControl& ctl = state_->control;
    if (ctl.aborted()) ctl.throw_aborted();
    ++calls_;
    ctl.note_call(rank_, op, calls_);
    injector_.on_call(calls_);
  }

  /// Unrecorded, unvalidated delivery — the transport under the collectives.
  /// raw_send stamps the payload checksum (before fault injection, so an
  /// injected bit-flip is detectable) and applies send-side faults;
  /// raw_receive names the enclosing operation for blocked-state reports.
  void raw_send(int dest, Payload payload, int tag);
  [[nodiscard]] Message raw_receive(int source, int tag,
                                    const char* what = "recv");

  template <typename T>
  static T apply(T a, T b, ReduceOp op) {
    switch (op) {
      case ReduceOp::Sum: return a + b;
      case ReduceOp::Max: return a > b ? a : b;
      case ReduceOp::Min: return a < b ? a : b;
    }
    return a;
  }

  static double log2ceil(int n) {
    double steps = 0.0;
    int v = 1;
    while (v < n) {
      v *= 2;
      steps += 1.0;
    }
    return steps > 0.0 ? steps : 1.0;
  }

  RuntimeState* state_;
  int rank_;
  FaultInjector injector_;
  FaultInjector* prev_injector_ = nullptr;
  std::uint64_t calls_ = 0;
};

}  // namespace vpar::simrt
