#pragma once

#include <cstddef>

namespace vpar::cactus::detail {

/// All 26 grid-function base pointers, hoisted out of the sweep once (shared
/// by the scalar rhs_chunk in adm.cpp and the SIMD chunk kernel).
struct AdmFieldPointers {
  const double* h[6];
  const double* k[6];
  double* rhs_h[6];
  double* rhs_k[6];
  double* rhs_lapse;
};

/// SIMD ADM RHS chunk kernel: identical arithmetic and operation order to the
/// scalar rhs_chunk for `n` (<= kRowChunk = 128) consecutive points at flat
/// offset `base` — bitwise identical results, vector strips plus scalar tail.
/// Records no simd.* metrics: compute_rhs records each sweep once.
void rhs_chunk_simd(const AdmFieldPointers& f, std::ptrdiff_t s0,
                    std::ptrdiff_t s1, std::ptrdiff_t s2, std::size_t base,
                    std::size_t n, double inv_12h2, double inv_144h2);

}  // namespace vpar::cactus::detail
