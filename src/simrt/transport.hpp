#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "simrt/mailbox.hpp"

namespace vpar::simrt {

/// Which message-routing backend carries a job's traffic (VPAR_TRANSPORT).
///  - Inproc: the zero-copy in-process mailbox/arena path — every rank is a
///    pooled worker thread in one address space (the default, unchanged).
///  - Socket: one process per rank; frames travel over Unix-domain (or
///    loopback TCP) stream sockets with length-prefixed, checksummed framing.
enum class TransportKind { Inproc, Socket };

[[nodiscard]] const char* to_string(TransportKind kind);

/// Backend selected by the VPAR_TRANSPORT environment variable
/// ("inproc" | "socket"); Inproc when unset. Throws on junk values —
/// a typo must not silently fall back to single-process mode.
[[nodiscard]] TransportKind transport_kind_from_env();

/// Transport-layer failure (framing violation, connect failure, world
/// mismatch). Distinct from ChecksumError: that one means an *application
/// payload* failed its end-to-end checksum; this one means the wire itself
/// misbehaved.
class TransportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// --- wire framing -----------------------------------------------------------
//
// The multi-process backend speaks a length-prefixed frame protocol
// (documented in docs/transport.md): a fixed 48-byte native-endian header
// followed by the payload. The frame checksum is FNV-1a-64 over the header
// (with the checksum field zeroed) and the payload, so both metadata and
// data corruption are caught at the receiving edge. The application-level
// per-message checksum (RunOptions::checksums) rides through unchanged in
// `app_checksum` and is still verified at mailbox match time — end to end,
// not just hop by hop.

enum class FrameType : std::uint8_t {
  Data = 1,       ///< one Message (source, tag, payload)
  Heartbeat = 2,  ///< liveness beacon for the peer-failure detector
  Hello = 3,      ///< post-connect identification (source = sender's rank)
  Goodbye = 4,    ///< clean shutdown notice: EOF after this is not PeerLost
};

inline constexpr std::uint32_t kFrameMagic = 0x56504152;  // "RAPV" ("VPAR" LE)
inline constexpr std::uint8_t kFrameVersion = 1;

/// Header flag bits.
inline constexpr std::uint16_t kFrameFlagChecksummed = 1u << 0;
/// Injected-reorder slot count rides in flags bits 8..11 (chaos plans ask
/// the receiving mailbox to jump the queue by up to 15 slots).
inline constexpr unsigned kFrameReorderShift = 8;
inline constexpr std::uint16_t kFrameReorderMask = 0xF;

struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint8_t version = kFrameVersion;
  std::uint8_t type = 0;
  std::uint16_t flags = 0;
  std::int32_t source = 0;
  std::int32_t tag = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t app_checksum = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t frame_checksum = 0;
};
static_assert(sizeof(FrameHeader) == 48, "wire header is exactly 48 bytes");

/// Build the header for one outbound Message (payload is written separately,
/// immediately after the header). Seals the frame checksum.
[[nodiscard]] FrameHeader encode_frame(const Message& msg);

/// Build a sealed payload-free control frame (Heartbeat/Hello/Goodbye).
/// Hello carries the sender's world size in `tag` so both ends can reject a
/// mismatched job before any data flows.
[[nodiscard]] FrameHeader encode_control(FrameType type, int source, int tag = 0);

/// Validate an inbound header + payload: magic, version, length consistency
/// and the frame checksum. Throws TransportError naming what failed.
void verify_frame(const FrameHeader& header, std::span<const std::byte> payload);

/// Rebuild the Message a verified Data frame carries (payload copied into
/// the arena/inline tiers, exactly like a local send).
[[nodiscard]] Message decode_message(const FrameHeader& header,
                                     std::span<const std::byte> payload);

// --- transport interface ----------------------------------------------------

/// Message-routing seam under the Communicator: every raw send goes through
/// Transport::send, which delivers into the destination rank's Mailbox —
/// directly for the in-process backend, over sockets for the multi-process
/// one. Receive-side matching, posted receives, checksum verification,
/// watchdog registration and cooperative abort all stay in the Mailbox and
/// are therefore identical across backends.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const = 0;
  [[nodiscard]] virtual int world() const = 0;

  /// True when ranks live in separate processes: collectives must use the
  /// message-based barrier (no shared rendezvous), and cross-rank shared
  /// objects (shared_object/CoArray) are unavailable.
  [[nodiscard]] virtual bool multiprocess() const = 0;

  /// Route `msg` (sent by a locally-hosted rank) to rank `dest`'s inbox.
  virtual void send(int dest, Message msg) = 0;

  /// Ranks whose processes are known dead (missed heartbeats or closed
  /// connections). Empty when everyone is healthy.
  [[nodiscard]] virtual std::vector<int> lost_peers() const { return {}; }

  /// Human-readable per-peer liveness lines for failure reports.
  [[nodiscard]] virtual std::string peer_report() const { return {}; }

  /// First transport-detected failure (a PeerLost), if any: the distributed
  /// runner rethrows it in place of the bare cooperative-abort JobAborted
  /// the local rank observed.
  [[nodiscard]] virtual std::exception_ptr failure() const { return nullptr; }

  /// Tell the transport this process's rank body failed: suppress the clean
  /// Goodbye so peers observe the failure (EOF without Goodbye) as
  /// PeerLost instead of mistaking it for a finished rank.
  virtual void note_local_failure() {}
};

/// Backend #1: the existing zero-copy in-process path. send() is exactly the
/// pre-transport-seam delivery — one virtual call and then
/// Mailbox::deliver — so single-process behavior and output stay bitwise
/// identical.
class InprocTransport final : public Transport {
 public:
  explicit InprocTransport(std::vector<Mailbox>& mailboxes)
      : mailboxes_(&mailboxes) {}

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::Inproc;
  }
  [[nodiscard]] int world() const override {
    return static_cast<int>(mailboxes_->size());
  }
  [[nodiscard]] bool multiprocess() const override { return false; }

  void send(int dest, Message msg) override {
    (*mailboxes_)[static_cast<std::size_t>(dest)].deliver(std::move(msg));
  }

 private:
  std::vector<Mailbox>* mailboxes_;
};

}  // namespace vpar::simrt
