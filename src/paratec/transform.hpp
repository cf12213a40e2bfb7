#pragma once

#include <span>
#include <vector>

#include "paratec/basis.hpp"
#include "paratec/layout.hpp"
#include "simrt/communicator.hpp"

namespace vpar::paratec {

/// The specialized parallel 3D FFT transforming wavefunctions between the
/// column-distributed G-sphere and z-plane-slab real space (paper §4.2,
/// Figure 4): 1D FFTs along z on the owned columns, a global transpose that
/// moves ONLY the non-zero columns' data (the communication-saving trick the
/// paper describes), then batched 2D FFTs on the owned planes.
class WavefunctionTransform {
 public:
  WavefunctionTransform(simrt::Communicator& comm, const Basis& basis,
                        const Layout& layout);

  [[nodiscard]] std::size_t local_coeffs() const {
    return layout_->local_size(comm_->rank());
  }
  [[nodiscard]] std::size_t planes_local() const { return planes_local_; }
  [[nodiscard]] std::size_t slab_size() const {
    return planes_local_ * basis_->grid_n() * basis_->grid_n();
  }

  /// Sphere coefficients (owner's column order) -> real-space slab,
  /// (z_local, y, x) with x contiguous.
  [[nodiscard]] std::vector<Complex> to_real(std::span<const Complex> coeffs);

  /// Inverse of to_real (exact round trip).
  [[nodiscard]] std::vector<Complex> to_fourier(std::span<const Complex> slab);

 private:
  simrt::Communicator* comm_;
  const Basis* basis_;
  const Layout* layout_;
  std::size_t planes_local_;
};

/// In-place 2D FFTs of the n x n planes that make up `slab` (rows
/// contiguous, x fastest): along x, then along y through a transpose. The
/// plane stage of both the wavefunction transform and the Hartree solve.
void plane_ffts(std::span<Complex> slab, std::size_t n, bool invert);

}  // namespace vpar::paratec
