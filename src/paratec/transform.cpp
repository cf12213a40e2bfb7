#include "paratec/transform.hpp"

#include <stdexcept>

#include "fft/fft_multi.hpp"
#include "perf/recorder.hpp"

namespace vpar::paratec {

void plane_ffts(std::span<Complex> slab, std::size_t n, bool invert) {
  const fft::MultiFft1d f(n);
  std::vector<Complex> t(n * n);
  for (std::size_t z = 0; z < slab.size() / (n * n); ++z) {
    const auto plane = slab.subspan(z * n * n, n * n);
    f.simultaneous(plane, n, invert);  // along x
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) t[x * n + y] = plane[y * n + x];
    }
    f.simultaneous(std::span<Complex>(t), n, invert);  // along y
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) plane[y * n + x] = t[x * n + y];
    }
  }
}

WavefunctionTransform::WavefunctionTransform(simrt::Communicator& comm,
                                             const Basis& basis, const Layout& layout)
    : comm_(&comm), basis_(&basis), layout_(&layout) {
  const std::size_t n = basis.grid_n();
  if (n % static_cast<std::size_t>(comm.size()) != 0) {
    throw std::runtime_error(
        "WavefunctionTransform: FFT grid not divisible by ranks");
  }
  planes_local_ = n / static_cast<std::size_t>(comm.size());
}

std::vector<Complex> WavefunctionTransform::to_real(std::span<const Complex> coeffs) {
  const std::size_t n = basis_->grid_n();
  const auto& my_columns = layout_->columns_of(comm_->rank());
  if (coeffs.size() != local_coeffs()) {
    throw std::runtime_error("to_real: coefficient count mismatch");
  }

  // Stage 1: z-lines of the owned columns, transformed together.
  std::vector<Complex> lines(my_columns.size() * n, Complex{});
  for (std::size_t lc = 0; lc < my_columns.size(); ++lc) {
    const auto& col = basis_->columns()[my_columns[lc]];
    const std::size_t base = layout_->local_offset(my_columns[lc]);
    for (std::size_t m = 0; m < col.gz.size(); ++m) {
      lines[lc * n + basis_->grid_index(col.gz[m])] = coeffs[base + m];
    }
  }
  if (!my_columns.empty()) {
    const fft::MultiFft1d fz(n);
    fz.simultaneous(std::span<Complex>(lines), my_columns.size(), /*invert=*/true);
  }

  // Stage 2: transpose only the non-zero columns' data to the plane owners,
  // scattering each arriving block into full planes (zeros outside the
  // sphere's columns).
  std::vector<Complex> slab(slab_size(), Complex{});
  comm_->alltoallv_pipelined<Complex>(
      [&](int dest) {
        const std::size_t z0 = static_cast<std::size_t>(dest) * planes_local_;
        std::vector<Complex> box;
        box.reserve(my_columns.size() * planes_local_);
        for (std::size_t lc = 0; lc < my_columns.size(); ++lc) {
          const Complex* line = lines.data() + lc * n + z0;
          box.insert(box.end(), line, line + planes_local_);
        }
        return box;
      },
      [&](int src, std::vector<Complex> box) {
        const auto& cols = layout_->columns_of(src);
        if (box.size() != cols.size() * planes_local_) {
          throw std::runtime_error("to_real: transpose block size mismatch");
        }
        for (std::size_t lc = 0; lc < cols.size(); ++lc) {
          const auto& col = basis_->columns()[cols[lc]];
          const std::size_t gy = basis_->grid_index(col.gy);
          const std::size_t gx = basis_->grid_index(col.gx);
          for (std::size_t z = 0; z < planes_local_; ++z) {
            slab[(z * n + gy) * n + gx] = box[lc * planes_local_ + z];
          }
        }
      });
  {
    perf::LoopRecord rec;  // pack + scatter data movement
    rec.vectorizable = true;
    rec.instances = 2.0;
    rec.trips = static_cast<double>(my_columns.size() * planes_local_);
    rec.flops_per_trip = 0.0;
    rec.bytes_per_trip = 2.0 * sizeof(Complex);
    rec.access = perf::AccessPattern::Strided;
    perf::record_loop("fft_transpose", rec);
  }

  // Stage 3: 2D transforms of the owned planes.
  plane_ffts(slab, n, /*invert=*/true);
  return slab;
}

std::vector<Complex> WavefunctionTransform::to_fourier(std::span<const Complex> slab) {
  const std::size_t n = basis_->grid_n();
  if (slab.size() != slab_size()) {
    throw std::runtime_error("to_fourier: slab size mismatch");
  }

  // Stage 3 inverse: forward 2D FFTs on the owned planes.
  std::vector<Complex> work(slab.begin(), slab.end());
  plane_ffts(work, n, /*invert=*/false);

  // Stage 2 inverse: return each column owner its (gx, gy) samples, and
  // reassemble this rank's z-lines from the blocks that come back.
  const auto& my_columns = layout_->columns_of(comm_->rank());
  std::vector<Complex> lines(my_columns.size() * n, Complex{});
  comm_->alltoallv_pipelined<Complex>(
      [&](int dest) {
        const auto& cols = layout_->columns_of(dest);
        std::vector<Complex> box;
        box.reserve(cols.size() * planes_local_);
        for (std::size_t lc = 0; lc < cols.size(); ++lc) {
          const auto& col = basis_->columns()[cols[lc]];
          const std::size_t gy = basis_->grid_index(col.gy);
          const std::size_t gx = basis_->grid_index(col.gx);
          for (std::size_t z = 0; z < planes_local_; ++z) {
            box.push_back(work[(z * n + gy) * n + gx]);
          }
        }
        return box;
      },
      [&](int src, std::vector<Complex> box) {
        if (box.size() != my_columns.size() * planes_local_) {
          throw std::runtime_error("to_fourier: transpose block size mismatch");
        }
        const std::size_t z0 = static_cast<std::size_t>(src) * planes_local_;
        for (std::size_t lc = 0; lc < my_columns.size(); ++lc) {
          for (std::size_t z = 0; z < planes_local_; ++z) {
            lines[lc * n + z0 + z] = box[lc * planes_local_ + z];
          }
        }
      });
  if (!my_columns.empty()) {
    const fft::MultiFft1d fz(n);
    fz.simultaneous(std::span<Complex>(lines), my_columns.size(), /*invert=*/false);
  }
  {
    perf::LoopRecord rec;
    rec.vectorizable = true;
    rec.instances = 2.0;
    rec.trips = static_cast<double>(my_columns.size() * planes_local_);
    rec.flops_per_trip = 0.0;
    rec.bytes_per_trip = 2.0 * sizeof(Complex);
    rec.access = perf::AccessPattern::Strided;
    perf::record_loop("fft_transpose", rec);
  }

  // Truncate back onto the sphere.
  std::vector<Complex> coeffs(local_coeffs(), Complex{});
  for (std::size_t lc = 0; lc < my_columns.size(); ++lc) {
    const auto& col = basis_->columns()[my_columns[lc]];
    const std::size_t base = layout_->local_offset(my_columns[lc]);
    for (std::size_t m = 0; m < col.gz.size(); ++m) {
      coeffs[base + m] = lines[lc * n + basis_->grid_index(col.gz[m])];
    }
  }
  return coeffs;
}

}  // namespace vpar::paratec
