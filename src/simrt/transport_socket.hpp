#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "simrt/fault.hpp"
#include "simrt/transport.hpp"

namespace vpar::simrt {

/// Backend #2: one process per rank, full-mesh stream sockets over Unix
/// domain sockets (default) or loopback TCP. Frames use the wire format of
/// transport.hpp: length-prefixed, FNV-checksummed, carrying the
/// application checksum and simtrace flow id across the process boundary.
///
/// Mesh bring-up (deadlock-free by induction on rank): every rank first
/// binds and listens on its own endpoint, then connects to every lower rank
/// (retrying until the listener appears, bounded by connect_timeout), then
/// accepts one connection from every higher rank, identified by its Hello
/// frame. One reader thread per peer delivers inbound Data frames straight
/// into the local rank's Mailbox — all matching/posted-receive/checksum/
/// watchdog semantics are untouched.
///
/// Peer-failure detector: a monitor thread heartbeats every peer on a fixed
/// period and watches per-peer last-heard clocks; a peer silent past
/// peer_timeout — or whose connection hits EOF without a Goodbye — is
/// declared lost: the job is cooperatively aborted and failure() carries a
/// PeerLost with the per-rank liveness report.
class SocketTransport final : public Transport {
 public:
  struct Config {
    int rank = 0;
    int world = 1;
    /// Directory holding the per-rank Unix socket endpoints
    /// (<dir>/rank<i>.sock). Ignored when tcp_base > 0.
    std::string dir;
    /// When > 0: use loopback TCP instead, rank i listening on tcp_base + i.
    int tcp_base = 0;
    std::chrono::milliseconds connect_timeout{10'000};
    std::chrono::milliseconds heartbeat{200};
    /// Peer silent for longer than this => lost. 0 disables the detector
    /// (EOF-without-Goodbye still triggers it).
    std::chrono::milliseconds peer_timeout{2'000};
  };

  /// Brings up the full mesh (blocking, bounded by connect_timeout) and
  /// starts the reader + monitor threads. `mailboxes[config.rank]` is the
  /// local inbox; `control` is aborted when a peer is lost.
  SocketTransport(const Config& config, std::vector<Mailbox>& mailboxes,
                  JobControl& control);
  ~SocketTransport() override;

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::Socket;
  }
  [[nodiscard]] int world() const override { return config_.world; }
  [[nodiscard]] bool multiprocess() const override { return true; }

  void send(int dest, Message msg) override;

  [[nodiscard]] std::vector<int> lost_peers() const override;
  [[nodiscard]] std::string peer_report() const override;

  /// First transport-detected failure (a PeerLost), if any: rethrown by the
  /// distributed runner in place of the bare cooperative-abort JobAborted.
  [[nodiscard]] std::exception_ptr failure() const override;

  /// Suppress the Goodbye on teardown: this rank failed, and its peers must
  /// see the broken connection as PeerLost, not as a clean finish.
  void note_local_failure() override {
    local_failure_.store(true, std::memory_order_release);
  }

 private:
  struct Peer {
    int fd = -1;
    std::mutex write_mutex;               // app sends + heartbeats interleave
    std::thread reader;
    std::atomic<std::uint64_t> last_heard_ns{0};
    std::atomic<bool> finished{false};    // Goodbye received: EOF is clean
    std::atomic<bool> lost{false};
  };

  [[nodiscard]] std::string endpoint_of(int rank) const;
  void connect_mesh();
  void reader_loop(int peer_rank);
  void monitor_loop();
  void write_frame(int peer_rank, const FrameHeader& header,
                   std::span<const std::byte> payload);
  void mark_lost(int peer_rank, const std::string& why);

  Config config_;
  std::vector<Mailbox>* mailboxes_;
  JobControl* control_;
  std::vector<std::unique_ptr<Peer>> peers_;  // index = rank; [rank_] unused
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> local_failure_{false};
  std::thread monitor_;

  mutable std::mutex failure_mutex_;
  std::exception_ptr failure_;
};

}  // namespace vpar::simrt
