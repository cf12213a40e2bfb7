#include "qcd/dslash_kernel.hpp"
#include "simd/dispatch.hpp"

namespace vpar::qcd::detail {

namespace {

#if VPAR_SIMD_CLONE_AVX
__attribute__((noinline, target("avx"))) void dslash_v4(const RowPointers& p,
                                                        std::size_t n) {
  dslash_span_w<4>(p, n);
}
#endif
#if VPAR_SIMD_CLONE_AVX512
__attribute__((noinline, target("avx512f"))) void dslash_v8(
    const RowPointers& p, std::size_t n) {
  dslash_span_w<8>(p, n);
}
#endif

}  // namespace

void dslash_row_simd(const RowPointers& p, std::size_t n) {
  const std::size_t w = simd::active_width();
  switch (w) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: dslash_v8(p, n); break;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: dslash_v4(p, n); break;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: dslash_span_w<2>(p, n); break;
#endif
    default: dslash_span_w<1>(p, n); break;
  }
}

}  // namespace vpar::qcd::detail
