#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "part/partition.hpp"
#include "perf/recorder.hpp"
#include "simrt/communicator.hpp"
#include "simrt/request.hpp"
#include "trace/trace.hpp"

namespace vpar::part {

/// Ghost widths per axis plus the base of the user-tag range a schedule may
/// use. A schedule consumes tags [base_tag, base_tag + 2N): data moving in
/// the + direction along axis a rides tag base_tag + 2a, the - direction
/// base_tag + 2a + 1, so opposite-direction traffic between the same pair of
/// ranks never cross-matches (and a rank that is its own neighbor finds the
/// ghost box of each face it copies by the same tag).
template <std::size_t N>
struct HaloSpec {
  Extent<N> width{};
  int base_tag = 0;
};

/// Memory layout of one ghost-extended local tile: axis 0 contiguous,
/// stride[a] = stride[a-1] * (interior[a-1] + 2*ghost[a-1]), and offset()
/// addressing shifted so interior cells live at local indices
/// [0, interior[a]) with ghosts at negative / >= interior[a] indices — the
/// layout GridFunctions and FieldSet already use.
template <std::size_t N>
struct TileLayout {
  Extent<N> interior{};
  Extent<N> ghost{};
  std::array<std::size_t, N> stride{};

  [[nodiscard]] static TileLayout make(Extent<N> interior, Extent<N> ghost) {
    TileLayout l;
    l.interior = interior;
    l.ghost = ghost;
    std::size_t s = 1;
    for (std::size_t a = 0; a < N; ++a) {
      l.stride[a] = s;
      s *= interior[a] + 2 * ghost[a];
    }
    return l;
  }

  /// Linear offset of a (possibly ghost) local index into one plane.
  [[nodiscard]] std::size_t offset(const Index<N>& i) const {
    std::size_t o = 0;
    for (std::size_t a = 0; a < N; ++a) {
      o += static_cast<std::size_t>(i[a] +
                                    static_cast<std::ptrdiff_t>(ghost[a])) *
           stride[a];
    }
    return o;
  }

  /// Elements of one ghost-extended plane.
  [[nodiscard]] std::size_t total() const {
    std::size_t p = 1;
    for (std::size_t a = 0; a < N; ++a) p *= interior[a] + 2 * ghost[a];
    return p;
  }
};

/// One direction of one phase: the peer rank, the tag, and the local box to
/// pack (for a send) or fill (for a receive).
template <std::size_t N>
struct HaloMessage {
  int peer = -1;
  int tag = 0;
  Box<N> box{};
};

/// One axis sweep. Boxes of axes already swept span their ghosts, so corner
/// and edge values propagate across phases without dedicated diagonal
/// messages — the idiom both the LBMHD and Cactus hand-rolled exchanges used.
template <std::size_t N>
struct HaloPhase {
  std::size_t axis = 0;
  std::vector<HaloMessage<N>> sends;
  std::vector<HaloMessage<N>> recvs;
};

template <std::size_t N>
struct HaloSchedule {
  std::vector<HaloPhase<N>> phases;

  /// Elements sent per exchanged plane (both directions, all phases).
  [[nodiscard]] std::size_t send_elements_per_plane() const {
    std::size_t n = 0;
    for (const auto& ph : phases) {
      for (const auto& s : ph.sends) n += s.box.volume();
    }
    return n;
  }
};

/// Plan rank `rank`'s halo exchange under `partition`: one phase per axis
/// with nonzero ghost width, swept in axis order. Each phase sends the rank's
/// two boundary faces to its ± neighbors and receives the matching faces into
/// its ghost shells; faces are skipped at non-periodic domain boundaries
/// (neighbor() == -1). A send in the + direction pairs with the peer's
/// - ghost receive under the same tag, so schedules of neighboring ranks
/// always pair up message-for-message.
///
/// Throws std::invalid_argument when a ghost width exceeds the local extent
/// on an axis that has a neighbor: that face would include ghosts of the
/// same axis, which are not exchanged yet.
template <std::size_t N>
[[nodiscard]] HaloSchedule<N> plan_halo(const BlockPartition<N>& partition,
                                        int rank, const HaloSpec<N>& spec) {
  const Extent<N> n = partition.local_extent(rank);
  HaloSchedule<N> schedule;
  for (std::size_t axis = 0; axis < N; ++axis) {
    const auto g = static_cast<std::ptrdiff_t>(spec.width[axis]);
    if (g == 0) continue;
    HaloPhase<N> phase;
    phase.axis = axis;

    // Base box: swept axes span their ghosts, later axes interior only.
    Box<N> base;
    for (std::size_t b = 0; b < N; ++b) {
      const auto nb = static_cast<std::ptrdiff_t>(n[b]);
      const auto gb = static_cast<std::ptrdiff_t>(spec.width[b]);
      if (b < axis) {
        base.lo[b] = -gb;
        base.hi[b] = nb + gb;
      } else {
        base.lo[b] = 0;
        base.hi[b] = nb;
      }
    }

    const int plus = partition.neighbor(rank, axis, +1);
    const int minus = partition.neighbor(rank, axis, -1);
    const auto na = static_cast<std::ptrdiff_t>(n[axis]);
    if ((plus >= 0 || minus >= 0) && g > na) {
      throw std::invalid_argument(
          "plan_halo: ghost width exceeds the local extent on axis " +
          std::to_string(axis) + " of rank " + std::to_string(rank));
    }
    const int tag_plus = spec.base_tag + 2 * static_cast<int>(axis);
    const int tag_minus = tag_plus + 1;

    // Receives first in schedule order: exchange_halo posts them before
    // packing, so transfers land while the sender is still packing.
    if (minus >= 0) {  // + traffic: minus peer's high face -> my low ghost
      Box<N> box = base;
      box.lo[axis] = -g;
      box.hi[axis] = 0;
      phase.recvs.push_back({minus, tag_plus, box});
    }
    if (plus >= 0) {  // - traffic: plus peer's low face -> my high ghost
      Box<N> box = base;
      box.lo[axis] = na;
      box.hi[axis] = na + g;
      phase.recvs.push_back({plus, tag_minus, box});
    }
    if (plus >= 0) {  // + traffic: my high face -> plus peer
      Box<N> box = base;
      box.lo[axis] = na - g;
      box.hi[axis] = na;
      phase.sends.push_back({plus, tag_plus, box});
    }
    if (minus >= 0) {  // - traffic: my low face -> minus peer
      Box<N> box = base;
      box.lo[axis] = 0;
      box.hi[axis] = g;
      phase.sends.push_back({minus, tag_minus, box});
    }
    if (!phase.sends.empty() || !phase.recvs.empty()) {
      schedule.phases.push_back(std::move(phase));
    }
  }
  return schedule;
}

namespace detail {

/// Metric hooks live in halo.cpp so the templates stay header-only without
/// paying a registry lookup per message.
void note_exchange();
void note_message(std::size_t bytes);

/// Row-major odometer over a box with axis-0 rows handled contiguously.
template <std::size_t N, typename RowFn>
void for_each_row(const Box<N>& box, RowFn&& row) {
  if (box.empty()) return;
  Index<N> it = box.lo;
  const std::size_t len = static_cast<std::size_t>(box.hi[0] - box.lo[0]);
  for (;;) {
    row(it, len);
    std::size_t a = 1;
    for (; a < N; ++a) {
      if (++it[a] < box.hi[a]) break;
      it[a] = box.lo[a];
    }
    if (a == N) return;
  }
}

template <std::size_t N>
void pack_box(const TileLayout<N>& layout, const Box<N>& box,
              std::span<double* const> planes, double* out) {
  for (const double* plane : planes) {
    for_each_row<N>(box, [&](const Index<N>& row, std::size_t len) {
      const double* src = plane + layout.offset(row);
      for (std::size_t i = 0; i < len; ++i) out[i] = src[i];
      out += len;
    });
  }
}

template <std::size_t N>
void unpack_box(const TileLayout<N>& layout, const Box<N>& box,
                std::span<double* const> planes, const double* in) {
  for (double* plane : planes) {
    for_each_row<N>(box, [&](const Index<N>& row, std::size_t len) {
      double* dst = plane + layout.offset(row);
      for (std::size_t i = 0; i < len; ++i) dst[i] = in[i];
      in += len;
    });
  }
}

/// Copy box `from` onto the equally-shaped box `to` within every plane: a
/// self-peer face moved straight into its ghost box. The boxes are disjoint
/// because plan_halo rejects ghost widths above the local extent.
template <std::size_t N>
void copy_box(const TileLayout<N>& layout, const Box<N>& from, const Box<N>& to,
              std::span<double* const> planes) {
  const auto shift = static_cast<std::ptrdiff_t>(layout.offset(to.lo)) -
                     static_cast<std::ptrdiff_t>(layout.offset(from.lo));
  for (double* plane : planes) {
    for_each_row<N>(from, [&](const Index<N>& row, std::size_t len) {
      const double* src = plane + layout.offset(row);
      double* dst = plane + layout.offset(row) + shift;
      for (std::size_t i = 0; i < len; ++i) dst[i] = src[i];
    });
  }
}

}  // namespace detail

/// Execute a planned halo exchange for a set of equally-shaped planes.
/// Per phase: the receives are posted, every send is packed plane-major /
/// row-major and handed off by move, and the phase completes inside one
/// perf::OverlapScope so the network model costs the traffic as overlapped.
/// A self-peer face (peer == comm.rank(): a periodic axis the rank grid does
/// not split) is no message: it is copied straight into the ghost box of the
/// receive with the same tag, so comm.* and the comm profile see only
/// cross-rank faces, while part.halo_bytes counts every face.
/// The phase barrier between axes is the data dependence that carries corner
/// values; there is no other synchronization.
template <std::size_t N>
void exchange_halo(simrt::Communicator& comm, const HaloSchedule<N>& schedule,
                   const TileLayout<N>& layout,
                   std::span<double* const> planes) {
  detail::note_exchange();
  const int self = comm.rank();
  for (const auto& phase : schedule.phases) {
    trace::TraceSpan span("part.exchange",
                          static_cast<std::int64_t>(phase.axis));
    perf::OverlapScope window;
    std::vector<std::vector<double>> inbox(phase.recvs.size());
    std::vector<simrt::Request> pending;
    pending.reserve(phase.recvs.size());
    for (std::size_t i = 0; i < phase.recvs.size(); ++i) {
      const auto& r = phase.recvs[i];
      if (r.peer == self) continue;
      inbox[i].resize(planes.size() * r.box.volume());
      pending.push_back(
          comm.irecv(r.peer, std::span<double>(inbox[i]), r.tag));
    }
    for (const auto& s : phase.sends) {
      detail::note_message(planes.size() * s.box.volume() * sizeof(double));
      if (s.peer == self) {
        for (const auto& r : phase.recvs) {
          if (r.peer == self && r.tag == s.tag) {
            detail::copy_box(layout, s.box, r.box, planes);
          }
        }
        continue;
      }
      std::vector<double> buf(planes.size() * s.box.volume());
      detail::pack_box(layout, s.box, planes, buf.data());
      comm.isend(s.peer, std::move(buf), s.tag).wait();
    }
    simrt::waitall(pending);
    for (std::size_t i = 0; i < phase.recvs.size(); ++i) {
      if (phase.recvs[i].peer == self) continue;
      detail::unpack_box(layout, phase.recvs[i].box, planes, inbox[i].data());
    }
  }
}

}  // namespace vpar::part
