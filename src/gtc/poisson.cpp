#include "gtc/poisson.hpp"

#include <complex>
#include <optional>
#include <numbers>
#include <vector>

#include "fft/fft1d.hpp"
#include "fft/fft_multi.hpp"
#include "perf/recorder.hpp"
#include "simrt/parallel.hpp"

namespace vpar::gtc {

namespace {

using fft::Complex;

/// Batched 1D transforms along contiguous rows: the vector-friendly
/// simultaneous path for power-of-two lengths, a looped Bluestein transform
/// otherwise (the production 180^2 cross-section is not a power of two).
class PlanePlan {
 public:
  explicit PlanePlan(std::size_t n) : n_(n), general_(n) {
    if (fft::Fft1d::is_power_of_two(n)) multi_.emplace(n);
  }

  void rows(std::span<Complex> data, std::size_t count, bool invert) const {
    if (multi_.has_value()) {
      multi_->simultaneous(data, count, invert);
      return;
    }
    for (std::size_t t = 0; t < count; ++t) {
      auto seq = data.subspan(t * n_, n_);
      if (invert) {
        general_.inverse(seq);
      } else {
        general_.forward(seq);
      }
    }
  }

 private:
  std::size_t n_;
  fft::Fft1d general_;
  std::optional<fft::MultiFft1d> multi_;
};

/// FFT scratch of one plane solve, per thread: every plane chunk of the
/// solve (owner or helper) reuses its thread's buffers, so a steady-state
/// solve allocates nothing.
struct PlaneScratch {
  std::vector<Complex> a, t;
};

PlaneScratch& plane_scratch(std::size_t size) {
  static thread_local PlaneScratch s;
  s.a.resize(size);
  s.t.resize(size);
  return s;
}

/// In-place 2D FFT of an ngy x ngx complex plane (rows contiguous): rows as
/// one batch, then columns via a transpose into `t`.
void fft2d(std::vector<Complex>& a, std::vector<Complex>& t, std::size_t ngx,
           std::size_t ngy, const PlanePlan& fx, const PlanePlan& fy,
           bool invert) {
  fx.rows(std::span<Complex>(a), ngy, invert);
  for (std::size_t y = 0; y < ngy; ++y) {
    for (std::size_t x = 0; x < ngx; ++x) t[x * ngy + y] = a[y * ngx + x];
  }
  fy.rows(std::span<Complex>(t), ngx, invert);
  for (std::size_t y = 0; y < ngy; ++y) {
    for (std::size_t x = 0; x < ngx; ++x) a[y * ngx + x] = t[x * ngy + y];
  }
}

/// Continuous wavenumber of mode m on a periodic axis of n unit cells.
double wavenumber(std::size_t m, std::size_t n) {
  const auto half = n / 2;
  const double k = 2.0 * std::numbers::pi *
                   (m <= half ? static_cast<double>(m)
                              : static_cast<double>(m) - static_cast<double>(n)) /
                   static_cast<double>(n);
  return k;
}

/// E = -grad phi on plane p, periodic central differences; the neighbours
/// wrap by comparison.
void efield_plane(TorusGrid& grid, int p) {
  const std::size_t ngx = grid.ngx(), ngy = grid.ngy();
  const double* phi = grid.phi_plane(p);
  double* ex = grid.ex_plane(p);
  double* ey = grid.ey_plane(p);
  for (std::size_t y = 0; y < ngy; ++y) {
    const std::size_t ym = y == 0 ? ngy - 1 : y - 1;
    const std::size_t yp = y + 1 == ngy ? 0 : y + 1;
    for (std::size_t x = 0; x < ngx; ++x) {
      const std::size_t xm = x == 0 ? ngx - 1 : x - 1;
      const std::size_t xp = x + 1 == ngx ? 0 : x + 1;
      ex[y * ngx + x] = -0.5 * (phi[y * ngx + xp] - phi[y * ngx + xm]);
      ey[y * ngx + x] = -0.5 * (phi[yp * ngx + x] - phi[ym * ngx + x]);
    }
  }
}

/// Spectral solve of plane p: charge -> phi.
void solve_plane(TorusGrid& grid, int p, const PlanePlan& fx,
                 const PlanePlan& fy) {
  const std::size_t ngx = grid.ngx(), ngy = grid.ngy();
  PlaneScratch& s = plane_scratch(ngx * ngy);
  std::vector<Complex>& a = s.a;
  const double* rho = grid.charge_plane(p);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = Complex(rho[i], 0.0);
  fft2d(a, s.t, ngx, ngy, fx, fy, false);
  for (std::size_t y = 0; y < ngy; ++y) {
    const double ky = wavenumber(y, ngy);
    for (std::size_t x = 0; x < ngx; ++x) {
      const double kx = wavenumber(x, ngx);
      const double k2 = kx * kx + ky * ky;
      a[y * ngx + x] = k2 > 0.0 ? a[y * ngx + x] / k2 : Complex(0.0, 0.0);
    }
  }
  fft2d(a, s.t, ngx, ngy, fx, fy, true);
  double* phi = grid.phi_plane(p);
  for (std::size_t i = 0; i < a.size(); ++i) phi[i] = a[i].real();
}

void record_efield(const TorusGrid& grid) {
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(grid.planes_local()) *
                  static_cast<double>(grid.ngy());
  rec.trips = static_cast<double>(grid.ngx());
  rec.flops_per_trip = 6.0;
  rec.bytes_per_trip = 4.0 * sizeof(double);
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("poisson", rec);
}

}  // namespace

void solve_poisson(TorusGrid& grid) {
  const PlanePlan fx(grid.ngx()), fy(grid.ngy());
  // Planes are independent: one chunk per plane writes that plane's phi and
  // then its E, bitwise the same on whichever thread serves it.
  simrt::parallel_for(0, static_cast<std::size_t>(grid.planes_local()), 1,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t p = lo; p < hi; ++p) {
                          solve_plane(grid, static_cast<int>(p), fx, fy);
                          efield_plane(grid, static_cast<int>(p));
                        }
                      });

  perf::LoopRecord rec;  // the spectral scaling sweep of every plane
  rec.vectorizable = true;
  rec.instances = static_cast<double>(grid.planes_local()) *
                  static_cast<double>(grid.ngy());
  rec.trips = static_cast<double>(grid.ngx());
  rec.flops_per_trip = 6.0;
  rec.bytes_per_trip = 2.0 * sizeof(Complex);
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("poisson", rec);
  record_efield(grid);
}

void compute_efield(TorusGrid& grid) {
  simrt::parallel_for(0, static_cast<std::size_t>(grid.planes_local()), 1,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t p = lo; p < hi; ++p) {
                          efield_plane(grid, static_cast<int>(p));
                        }
                      });
  record_efield(grid);
}

}  // namespace vpar::gtc
