#include "paratec/scf.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/fft_multi.hpp"
#include "trace/trace.hpp"

namespace vpar::paratec {

namespace {

double wavenumber(std::size_t m, std::size_t n) {
  const auto half = n / 2;
  const double g = m <= half ? static_cast<double>(m)
                             : static_cast<double>(m) - static_cast<double>(n);
  return 2.0 * std::numbers::pi * g;
}

}  // namespace

std::vector<double> compute_density(Solver& solver,
                                    const std::vector<double>& occupations) {
  auto& h = solver.hamiltonian();
  auto& tf = h.transform();
  // psi_phys(r_j) = sum_G c_G exp(iG r_j) = N^3 * (inverse-FFT values), so
  // |psi_phys|^2 carries a factor N^6 relative to the transform output.
  const double n3 = std::pow(static_cast<double>(h.basis().grid_n()), 3.0);
  const double n6 = n3 * n3;
  std::vector<double> density(tf.slab_size(), 0.0);
  for (int b = 0; b < solver.nbands(); ++b) {
    const double f = occupations[static_cast<std::size_t>(b)];
    if (f == 0.0) continue;
    const auto grid = tf.to_real(solver.band(b));
    for (std::size_t i = 0; i < density.size(); ++i) {
      density[i] += f * n6 * std::norm(grid[i]);
    }
  }
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(solver.nbands());
  rec.trips = static_cast<double>(density.size());
  rec.flops_per_trip = 4.0;
  rec.bytes_per_trip = 3.0 * sizeof(double);
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("handwritten_f90", rec);
  return density;
}

std::vector<double> solve_hartree(simrt::Communicator& comm,
                                  const std::vector<double>& density,
                                  std::size_t grid_n) {
  const auto P = static_cast<std::size_t>(comm.size());
  const std::size_t n = grid_n;
  if (n % P != 0) throw std::runtime_error("solve_hartree: grid not divisible");
  const std::size_t zl = n / P;  // z planes per rank (input layout)
  const std::size_t xl = n / P;  // x columns per rank (transposed layout)
  if (density.size() != zl * n * n) {
    throw std::runtime_error("solve_hartree: slab size mismatch");
  }
  const std::size_t block = zl * n * xl;  // one rank pair's transpose block

  // 2D transforms of the owned z planes.
  std::vector<Complex> slab(density.size());
  for (std::size_t i = 0; i < density.size(); ++i) slab[i] = Complex(density[i], 0.0);
  plane_ffts(slab, n, /*invert=*/false);

  // Transpose so each rank owns full-z lines for its x columns, assembled as
  // (x_local, y, z) with z contiguous; z-transform, scale, inverse.
  std::vector<Complex> lines(xl * n * n);
  comm.alltoallv_pipelined<Complex>(
      [&](int dest) {
        const std::size_t x_dest = static_cast<std::size_t>(dest) * xl;
        std::vector<Complex> box;
        box.reserve(block);
        for (std::size_t z = 0; z < zl; ++z) {
          for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = x_dest; x < x_dest + xl; ++x) {
              box.push_back(slab[(z * n + y) * n + x]);
            }
          }
        }
        return box;
      },
      [&](int src, std::vector<Complex> box) {
        if (box.size() != block) {
          throw std::runtime_error("solve_hartree: transpose block size mismatch");
        }
        const std::size_t z_src = static_cast<std::size_t>(src) * zl;
        for (std::size_t z = 0; z < zl; ++z) {
          for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < xl; ++x) {
              lines[(x * n + y) * n + (z_src + z)] = box[(z * n + y) * xl + x];
            }
          }
        }
      });
  const fft::MultiFft1d fz(n);
  fz.simultaneous(std::span<Complex>(lines), xl * n, /*invert=*/false);

  const std::size_t x0 = static_cast<std::size_t>(comm.rank()) * xl;
  for (std::size_t x = 0; x < xl; ++x) {
    const double kx = wavenumber(x0 + x, n);
    for (std::size_t y = 0; y < n; ++y) {
      const double ky = wavenumber(y, n);
      for (std::size_t z = 0; z < n; ++z) {
        const double kz = wavenumber(z, n);
        const double k2 = kx * kx + ky * ky + kz * kz;
        Complex& v = lines[(x * n + y) * n + z];
        // V_H(G) = 4 pi n(G) / |G|^2; the G = 0 mode is cancelled by the
        // neutralizing background.
        v = k2 > 0.0 ? v * (4.0 * std::numbers::pi / k2) : Complex(0.0, 0.0);
      }
    }
  }

  fz.simultaneous(std::span<Complex>(lines), xl * n, /*invert=*/true);

  // Transpose back to z slabs.
  comm.alltoallv_pipelined<Complex>(
      [&](int dest) {
        const std::size_t z_dest = static_cast<std::size_t>(dest) * zl;
        std::vector<Complex> box;
        box.reserve(block);
        for (std::size_t z = 0; z < zl; ++z) {
          for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < xl; ++x) {
              box.push_back(lines[(x * n + y) * n + (z_dest + z)]);
            }
          }
        }
        return box;
      },
      [&](int src, std::vector<Complex> box) {
        if (box.size() != block) {
          throw std::runtime_error("solve_hartree: transpose block size mismatch");
        }
        const std::size_t x_src = static_cast<std::size_t>(src) * xl;
        for (std::size_t z = 0; z < zl; ++z) {
          for (std::size_t y = 0; y < n; ++y) {
            for (std::size_t x = 0; x < xl; ++x) {
              slab[(z * n + y) * n + (x_src + x)] = box[(z * n + y) * xl + x];
            }
          }
        }
      });

  // Inverse 2D transforms back to real space.
  plane_ffts(slab, n, /*invert=*/true);
  std::vector<double> vh(density.size());
  for (std::size_t i = 0; i < vh.size(); ++i) vh[i] = slab[i].real();
  return vh;
}

std::vector<double> lda_exchange_potential(const std::vector<double>& density) {
  std::vector<double> vx(density.size());
  const double c = std::cbrt(3.0 / std::numbers::pi);
  for (std::size_t i = 0; i < density.size(); ++i) {
    vx[i] = -c * std::cbrt(std::max(density[i], 0.0));
  }
  return vx;
}

Scf::Scf(Hamiltonian& hamiltonian, const Options& options)
    : h_(&hamiltonian), options_(options),
      solver_(hamiltonian, options.nbands, options.seed),
      v_ion_(hamiltonian.vlocal_slab()),
      occupations_(static_cast<std::size_t>(options.nbands), options.occupation) {
  solver_.init_random();
}

double Scf::iterate() {
  trace::TraceSpan span("paratec.scf_iter", options_.nbands,
                        options_.cg_sweeps_per_scf);
  // Effective potential from the current density (ionic only on cycle 0).
  std::vector<double> veff = v_ion_;
  if (have_density_) {
    const auto vh = solve_hartree(h_->comm(), density_, h_->basis().grid_n());
    const auto vx = lda_exchange_potential(density_);
    for (std::size_t i = 0; i < veff.size(); ++i) {
      veff[i] += vh[i] + options_.exchange_scale * vx[i];
    }
  }
  h_->set_potential(std::move(veff));

  for (int s = 0; s < options_.cg_sweeps_per_scf; ++s) solver_.iterate();

  auto n_out = compute_density(solver_, occupations_);
  double residual = 0.0;
  if (have_density_) {
    for (std::size_t i = 0; i < n_out.size(); ++i) {
      residual = std::max(residual, std::abs(n_out[i] - density_[i]));
      // Linear mixing damps charge sloshing.
      density_[i] += options_.mixing * (n_out[i] - density_[i]);
    }
  } else {
    density_ = std::move(n_out);
    residual = 1.0e300;  // no previous density to compare against
    have_density_ = true;
  }
  return h_->comm().allreduce(residual, simrt::ReduceOp::Max);
}

double Scf::electron_count() {
  double local = 0.0;
  for (double v : density_) local += v;
  const double total = h_->comm().allreduce(local, simrt::ReduceOp::Sum);
  return total / std::pow(static_cast<double>(h_->basis().grid_n()), 3.0);
}

}  // namespace vpar::paratec
