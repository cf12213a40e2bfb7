#include "fft/fft1d.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/fft_simd.hpp"
#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"

namespace vpar::fft {

namespace {

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

unsigned log2_exact(std::size_t n) {
  unsigned l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

}  // namespace

/// Bluestein chirp-z machinery for arbitrary lengths: x_k * chirp convolved
/// with the conjugate chirp via a power-of-two cyclic convolution.
struct Fft1d::Bluestein {
  explicit Bluestein(std::size_t n)
      : n(n), m(next_power_of_two(2 * n - 1)), inner(m), chirp(n), b_fft(m) {
    for (std::size_t k = 0; k < n; ++k) {
      // w_k = exp(-i pi k^2 / n); compute k^2 mod 2n to avoid precision loss.
      const std::size_t k2 = (k * k) % (2 * n);
      const double angle = -std::numbers::pi * static_cast<double>(k2) /
                           static_cast<double>(n);
      chirp[k] = Complex(std::cos(angle), std::sin(angle));
    }
    // b_j = conj(chirp_j) extended cyclically; transform once.
    for (std::size_t k = 0; k < n; ++k) {
      b_fft[k] = std::conj(chirp[k]);
      if (k != 0) b_fft[m - k] = std::conj(chirp[k]);
    }
    inner.forward(b_fft);
  }

  std::size_t n;
  std::size_t m;
  Fft1d inner;
  std::vector<Complex> chirp;
  std::vector<Complex> b_fft;
};

Fft1d::Fft1d(std::size_t n) : n_(n) {
  if (n == 0) throw std::runtime_error("Fft1d: zero length");
  if (is_power_of_two(n)) {
    tables_ = twiddle_tables(n);
  } else {
    bluestein_ = std::make_unique<Bluestein>(n);
  }
}

Fft1d::~Fft1d() = default;
Fft1d::Fft1d(Fft1d&&) noexcept = default;
Fft1d& Fft1d::operator=(Fft1d&&) noexcept = default;

void Fft1d::radix2(std::span<Complex> data, bool invert) const {
  const std::size_t n = n_;
  const TwiddleTables& tables = *tables_;
  // Runtime dispatch: the SIMD path runs the same permutation, butterfly
  // stages and scaling with the j loop vectorized, bitwise identically.
  if (simd::use_simd()) {
    detail::radix2_simd(data.data(), n, tables, invert);
    detail::record_radix2_spans(n, 1);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = tables.bitrev[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    std::size_t tw_base = 0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len / 2;
      for (std::size_t start = 0; start < n; start += len) {
        for (std::size_t j = 0; j < half; ++j) {
          Complex w = tables.twiddle[tw_base + j];
          if (invert) w = std::conj(w);
          const Complex u = data[start + j];
          const Complex t = data[start + j + half] * w;
          data[start + j] = u + t;
          data[start + j + half] = u - t;
        }
      }
      tw_base += half;
    }
    if (invert) {
      const double scale = 1.0 / static_cast<double>(n);
      for (auto& v : data) v *= scale;
    }
  }
  // One radix-2 transform: log2(n) stages of n/2 butterflies, 10 flops each.
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(log2_exact(n));
  rec.trips = static_cast<double>(n / 2);
  rec.flops_per_trip = 10.0;
  rec.bytes_per_trip = 64.0;  // 2 complex loads + 2 complex stores
  rec.access = perf::AccessPattern::Strided;
  rec.working_set_bytes = static_cast<double>(n) * sizeof(Complex);
  perf::record_loop("fft1d", rec);
}

void Fft1d::forward(std::span<Complex> data) const {
  if (data.size() != n_) throw std::runtime_error("Fft1d::forward: size mismatch");
  if (bluestein_ == nullptr) {
    radix2(data, false);
    return;
  }
  auto& bs = *bluestein_;
  // Convolution scratch, reused across calls on this thread. The inner plan
  // is a power of two, so its transforms never re-enter this path.
  static thread_local std::vector<Complex> a;
  a.assign(bs.m, Complex{});
  for (std::size_t k = 0; k < n_; ++k) a[k] = data[k] * bs.chirp[k];
  bs.inner.forward(a);
  for (std::size_t k = 0; k < bs.m; ++k) a[k] *= bs.b_fft[k];
  bs.inner.inverse(a);
  for (std::size_t k = 0; k < n_; ++k) data[k] = a[k] * bs.chirp[k];
}

void Fft1d::inverse(std::span<Complex> data) const {
  if (data.size() != n_) throw std::runtime_error("Fft1d::inverse: size mismatch");
  if (bluestein_ == nullptr) {
    radix2(data, true);
    return;
  }
  // inverse(x) = conj(forward(conj(x))) / n
  for (auto& v : data) v = std::conj(v);
  forward(data);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v = std::conj(v) * scale;
}

double Fft1d::flop_count() const {
  if (bluestein_ == nullptr) {
    return 5.0 * static_cast<double>(n_) * static_cast<double>(log2_exact(n_));
  }
  const auto& bs = *bluestein_;
  const double inner_flops = bs.inner.flop_count();
  // Three inner transforms plus three pointwise complex multiplies.
  return 3.0 * inner_flops + 6.0 * static_cast<double>(2 * n_ + bs.m);
}

}  // namespace vpar::fft
