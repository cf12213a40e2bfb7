#pragma once

#include <complex>
#include <cstddef>

#include "fft/twiddle.hpp"

namespace vpar::fft::detail {

/// In-place radix-2 DIT transform of one length-`n` sequence (`n` a power of
/// two): bit-reversal permutation, every butterfly stage with the j loop
/// vectorized over W/2 interleaved complexes (data and twiddles are both
/// j-contiguous), and the 1/n scaling when inverting. Early stages whose
/// `half` is shorter than a vector fall through to the scalar butterfly —
/// the classic short-vector-length regime of single-transform FFTs the paper
/// measures (§5.4) — and every butterfly rounds exactly like the scalar
/// reference loop in Fft1d::radix2, so the result is bitwise identical.
/// Records nothing: the caller records the whole call with
/// record_radix2_spans.
void radix2_simd(std::complex<double>* seq, std::size_t n,
                 const TwiddleTables& tables, bool invert);

/// Record the simd.* spans of `count` radix2_simd transforms of length `n`
/// at the active width, in one go per call: a few shared atomic adds per
/// distinct stage shape, not per stage of every transform. The totals are
/// those of `count` times one transform's stages.
void record_radix2_spans(std::size_t n, std::size_t count);

}  // namespace vpar::fft::detail
