#pragma once

#include <array>
#include <cstddef>

namespace vpar::lbmhd::detail {

/// Per-row population plane pointers, already offset to the row start.
struct RowPointers {
  std::array<double*, 9> f, gx, gy;
};

/// SIMD collision row kernel: same arithmetic and operation order as the
/// scalar collide_row (bitwise identical results), vectorized over the row in
/// strips of the runtime-dispatched width with a scalar tail. Records no
/// simd.* metrics: collide_flat/collide_blocked record each sweep once.
void collide_row_simd(const RowPointers& p, std::size_t n, double omega_f,
                      double omega_g);

}  // namespace vpar::lbmhd::detail
