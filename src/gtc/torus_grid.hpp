#pragma once

#include <cstddef>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace vpar::gtc {

/// Field grid of the simplified torus: nplanes poloidal cross-sections
/// (toroidal angle zeta in [0, 2pi), decomposed 1D over ranks exactly like
/// GTC's coarse-grained toroidal decomposition, which caps MPI concurrency
/// at the plane count — the paper's 64-subdomain limit), each an ngx x ngy
/// periodic Cartesian grid with unit spacing.
///
/// The charge array holds one extra "ghost" plane: particles between this
/// rank's last plane and the neighbour's first deposit into it, and the
/// ghost is flushed to the right neighbour after deposition. The field
/// arrays ex/ey carry the same ghost plane the other way round: it holds the
/// right neighbour's first plane (Simulation fetches it after the solve), so
/// the push gathers from planes [0, planes_local] of one array.
///
/// A rank's planes, ghost included, index with 32-bit offsets (the SIMD
/// stencil strips store int32 cell indices), so they must hold fewer than
/// 2^31 points.
class TorusGrid {
 public:
  TorusGrid(std::size_t ngx, std::size_t ngy, int nplanes_global, int procs,
            int rank)
      : ngx_(ngx), ngy_(ngy), nplanes_global_(nplanes_global), procs_(procs),
        rank_(rank) {
    if (nplanes_global % procs != 0) {
      throw std::runtime_error("TorusGrid: planes not divisible by ranks");
    }
    planes_local_ = nplanes_global / procs;
    plane0_ = rank * planes_local_;
    const std::size_t with_ghost =
        static_cast<std::size_t>(planes_local_ + 1) * plane_size();
    if (with_ghost > static_cast<std::size_t>(INT32_MAX)) {
      throw std::runtime_error("TorusGrid: a rank's planes exceed 2^31 points");
    }
    charge_.assign(with_ghost, 0.0);
    phi_.assign(static_cast<std::size_t>(planes_local_) * plane_size(), 0.0);
    ex_.assign(with_ghost, 0.0);
    ey_.assign(with_ghost, 0.0);
  }

  [[nodiscard]] std::size_t ngx() const { return ngx_; }
  [[nodiscard]] std::size_t ngy() const { return ngy_; }
  [[nodiscard]] std::size_t plane_size() const { return ngx_ * ngy_; }
  [[nodiscard]] int nplanes_global() const { return nplanes_global_; }
  [[nodiscard]] int planes_local() const { return planes_local_; }
  [[nodiscard]] int plane0() const { return plane0_; }
  [[nodiscard]] int procs() const { return procs_; }
  [[nodiscard]] int rank() const { return rank_; }

  [[nodiscard]] double dzeta() const {
    return 2.0 * std::numbers::pi / static_cast<double>(nplanes_global_);
  }
  [[nodiscard]] double zeta_min() const { return plane0_ * dzeta(); }
  [[nodiscard]] double zeta_max() const { return (plane0_ + planes_local_) * dzeta(); }

  /// Charge plane p in [0, planes_local] (the last is the ghost plane).
  [[nodiscard]] double* charge_plane(int p) {
    return charge_.data() + static_cast<std::size_t>(p) * plane_size();
  }
  [[nodiscard]] const double* charge_plane(int p) const {
    return charge_.data() + static_cast<std::size_t>(p) * plane_size();
  }

  [[nodiscard]] double* phi_plane(int p) {
    return phi_.data() + static_cast<std::size_t>(p) * plane_size();
  }
  /// Field plane p in [0, planes_local] (the last is the ghost plane).
  [[nodiscard]] double* ex_plane(int p) {
    return ex_.data() + static_cast<std::size_t>(p) * plane_size();
  }
  [[nodiscard]] double* ey_plane(int p) {
    return ey_.data() + static_cast<std::size_t>(p) * plane_size();
  }
  [[nodiscard]] const double* ex_plane(int p) const {
    return ex_.data() + static_cast<std::size_t>(p) * plane_size();
  }
  [[nodiscard]] const double* ey_plane(int p) const {
    return ey_.data() + static_cast<std::size_t>(p) * plane_size();
  }

  [[nodiscard]] std::vector<double>& charge() { return charge_; }
  [[nodiscard]] std::vector<double>& phi() { return phi_; }

  void zero_charge() { charge_.assign(charge_.size(), 0.0); }

  [[nodiscard]] double total_charge_local() const {
    double s = 0.0;
    const std::size_t owned = static_cast<std::size_t>(planes_local_) * plane_size();
    for (std::size_t i = 0; i < owned; ++i) s += charge_[i];
    return s;
  }

 private:
  std::size_t ngx_, ngy_;
  int nplanes_global_, procs_, rank_;
  int planes_local_ = 0, plane0_ = 0;
  std::vector<double> charge_, phi_, ex_, ey_;
};

}  // namespace vpar::gtc
