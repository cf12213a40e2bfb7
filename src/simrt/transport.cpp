#include "simrt/transport.hpp"

#include <cstdlib>
#include <cstring>

#include "simrt/fault.hpp"

namespace vpar::simrt {

namespace {

/// Incremental FNV-1a-64 (same constants as fault.cpp's one-shot fnv1a64):
/// the frame checksum folds the header and the payload in one stream.
std::uint64_t fnv1a64_accumulate(std::uint64_t hash,
                                 std::span<const std::byte> data) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (const std::byte b : data) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= kPrime;
  }
  return hash;
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// Frame checksum: FNV-1a over the header bytes with frame_checksum zeroed,
/// continued over the payload.
std::uint64_t frame_checksum(const FrameHeader& header,
                             std::span<const std::byte> payload) {
  FrameHeader clean = header;
  clean.frame_checksum = 0;
  std::uint64_t hash = fnv1a64_accumulate(
      kFnvOffset, std::span<const std::byte>(
                      reinterpret_cast<const std::byte*>(&clean), sizeof clean));
  return fnv1a64_accumulate(hash, payload);
}

}  // namespace

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::Inproc: return "inproc";
    case TransportKind::Socket: return "socket";
  }
  return "unknown";
}

TransportKind transport_kind_from_env() {
  const char* s = std::getenv("VPAR_TRANSPORT");
  if (s == nullptr || *s == '\0') return TransportKind::Inproc;
  const std::string v(s);
  if (v == "inproc") return TransportKind::Inproc;
  if (v == "socket") return TransportKind::Socket;
  throw TransportError("VPAR_TRANSPORT=" + v +
                       " is not a transport (inproc|socket)");
}

FrameHeader encode_frame(const Message& msg) {
  FrameHeader h;
  h.type = static_cast<std::uint8_t>(FrameType::Data);
  h.source = msg.source;
  h.tag = msg.tag;
  h.trace_id = msg.trace_id;
  h.app_checksum = msg.checksum;
  h.payload_bytes = msg.payload.size();
  if (msg.checksummed) h.flags |= kFrameFlagChecksummed;
  const unsigned reorder =
      static_cast<unsigned>(msg.reorder) & kFrameReorderMask;
  h.flags |= static_cast<std::uint16_t>(reorder << kFrameReorderShift);
  h.frame_checksum = frame_checksum(h, msg.payload.bytes());
  return h;
}

FrameHeader encode_control(FrameType type, int source, int tag) {
  FrameHeader h;
  h.type = static_cast<std::uint8_t>(type);
  h.source = source;
  h.tag = tag;
  h.frame_checksum = frame_checksum(h, {});
  return h;
}

void verify_frame(const FrameHeader& header, std::span<const std::byte> payload) {
  if (header.magic != kFrameMagic) {
    throw TransportError("frame: bad magic (stream desynchronized)");
  }
  if (header.version != kFrameVersion) {
    throw TransportError("frame: protocol version " +
                         std::to_string(header.version) + " != " +
                         std::to_string(kFrameVersion));
  }
  if (header.payload_bytes != payload.size()) {
    throw TransportError("frame: payload length mismatch (header says " +
                         std::to_string(header.payload_bytes) + ", got " +
                         std::to_string(payload.size()) + ")");
  }
  if (frame_checksum(header, payload) != header.frame_checksum) {
    throw TransportError("frame: checksum mismatch (source " +
                         std::to_string(header.source) + ", tag " +
                         std::to_string(header.tag) + ", " +
                         std::to_string(payload.size()) + " payload bytes)");
  }
}

Message decode_message(const FrameHeader& header,
                       std::span<const std::byte> payload) {
  Message msg;
  msg.source = header.source;
  msg.tag = header.tag;
  msg.trace_id = header.trace_id;
  msg.checksum = header.app_checksum;
  msg.checksummed = (header.flags & kFrameFlagChecksummed) != 0;
  msg.reorder = static_cast<int>((header.flags >> kFrameReorderShift) &
                                 kFrameReorderMask);
  msg.payload = Payload::copy_of(payload);
  return msg;
}

}  // namespace vpar::simrt
