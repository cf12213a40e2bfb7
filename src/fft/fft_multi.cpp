#include "fft/fft_multi.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/fft_simd.hpp"
#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"

namespace vpar::fft {

namespace {
unsigned log2_exact(std::size_t n) {
  unsigned l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

/// Transform sequences [t0, t1) of a batch of `count` length-`n` FFTs laid
/// out contiguously in `data`; `vector` (simd::use_simd(), read once per
/// batch) picks the SIMD kernel. Plain function over raw pointers so the
/// serial path (and each hybrid sub-batch) compiles to the same tight
/// batch-inner loops the pre-hybrid code had — routing these loops through a
/// capturing std::function costs ~2.4x on the serial FFT bench.
void transform_range(Complex* data, std::size_t n, const TwiddleTables& tables,
                     bool invert, bool vector, std::size_t t0, std::size_t t1) {
  // Runtime dispatch: with host SIMD the long j loop inside each transform
  // beats the strided (stride n complexes) batch-inner walk, so run the
  // sequences one at a time through the vectorized radix-2 kernel. Each
  // sequence's operation order is unchanged, so results stay bitwise
  // identical to the batch-inner loop below.
  if (vector) {
    for (std::size_t t = t0; t < t1; ++t) {
      detail::radix2_simd(data + t * n, n, tables, invert);
    }
    return;
  }

  // Bit-reversal permutation, batch-inner.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = tables.bitrev[i];
    if (i < j) {
      for (std::size_t t = t0; t < t1; ++t) {
        std::swap(data[t * n + i], data[t * n + j]);
      }
    }
  }

  // Butterflies with the batch as the innermost (vector) loop.
  std::size_t tw_base = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t j = 0; j < half; ++j) {
        Complex w = tables.twiddle[tw_base + j];
        if (invert) w = std::conj(w);
        const std::size_t ia = start + j;
        const std::size_t ib = start + j + half;
        for (std::size_t t = t0; t < t1; ++t) {
          const Complex u = data[t * n + ia];
          const Complex v = data[t * n + ib] * w;
          data[t * n + ia] = u + v;
          data[t * n + ib] = u - v;
        }
      }
    }
    tw_base += half;
  }

  if (invert) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = t0 * n; i < t1 * n; ++i) data[i] *= scale;
  }
}
}  // namespace

MultiFft1d::MultiFft1d(std::size_t n) : n_(n), plan_(n) {
  if (!Fft1d::is_power_of_two(n)) {
    throw std::runtime_error("MultiFft1d: power-of-two length required");
  }
  tables_ = twiddle_tables(n);
}

void MultiFft1d::looped(std::span<Complex> data, std::size_t count, bool invert) const {
  if (data.size() != n_ * count) throw std::runtime_error("MultiFft1d: size mismatch");
  for (std::size_t t = 0; t < count; ++t) {
    auto seq = data.subspan(t * n_, n_);
    if (invert) {
      plan_.inverse(seq);
    } else {
      plan_.forward(seq);
    }
  }
}

void MultiFft1d::simultaneous(std::span<Complex> data, std::size_t count,
                              bool invert) const {
  if (data.size() != n_ * count) throw std::runtime_error("MultiFft1d: size mismatch");
  const std::size_t n = n_;
  const TwiddleTables& tables = *tables_;

  // The `count` sequences are fully independent, so the batch splits across
  // idle pool workers into sub-batches (bitwise-identical per sequence: the
  // per-sequence operation order in transform_range does not depend on the
  // sub-batch). With no helpers available, call the transform directly —
  // same function, full range — keeping the hot serial path free of any
  // indirection.
  const bool vector = simd::use_simd();
  if (simrt::parallel_width() == 1) {
    transform_range(data.data(), n, tables, invert, vector, 0, count);
  } else {
    simrt::parallel_for(0, count, 0, [&](std::size_t t0, std::size_t t1) {
      transform_range(data.data(), n, tables, invert, vector, t0, t1);
    });
  }
  // The whole batch's spans in one record, whichever threads ran it.
  if (vector) detail::record_radix2_spans(n, count);

  // The vector loop is the batch loop: trips == count, independent of n.
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(log2_exact(n)) * static_cast<double>(n / 2);
  rec.trips = static_cast<double>(count);
  rec.flops_per_trip = 10.0;
  rec.bytes_per_trip = 64.0;
  // The batch loop walks lanes at a constant stride; with the usual bank
  // padding this streams at full rate (unlike a single transform's
  // butterfly loop, whose stride halves every stage).
  rec.access = perf::AccessPattern::Stream;
  rec.working_set_bytes =
      static_cast<double>(n) * static_cast<double>(count) * sizeof(Complex);
  perf::record_loop("fft_multi", rec);
}

}  // namespace vpar::fft
