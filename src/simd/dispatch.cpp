#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "simd/simd.hpp"
#include "trace/metrics.hpp"

namespace vpar::simd {

namespace detail {

DispatchMode dispatch_mode_from_env(const char* value) {
  if (value == nullptr || *value == '\0') return DispatchMode::Auto;
  const std::string v(value);
  if (v == "auto") return DispatchMode::Auto;
  if (v == "scalar") return DispatchMode::ForceScalar;
  if (v == "simd") return DispatchMode::ForceSimd;
  throw std::invalid_argument("VPAR_SIMD_DISPATCH='" + v +
                              "' is not a dispatch mode: expected auto|scalar|simd");
}

}  // namespace detail

namespace {

/// Seeded from VPAR_SIMD_DISPATCH on first use, not at static
/// initialization, so a rejected value throws to a caller.
std::atomic<DispatchMode>& mode_flag() {
  static std::atomic<DispatchMode> mode{
      detail::dispatch_mode_from_env(std::getenv("VPAR_SIMD_DISPATCH"))};
  return mode;
}

std::size_t detect_width() {
#if VPAR_SIMD_CLONE_AVX512
  if (__builtin_cpu_supports("avx512f")) return 8;
#endif
#if VPAR_SIMD_CLONE_AVX
  if (__builtin_cpu_supports("avx")) return 4;
#endif
  return VPAR_SIMD_HAVE_VEC ? 2 : 1;
}

}  // namespace

DispatchMode dispatch_mode() {
  return mode_flag().load(std::memory_order_relaxed);
}

void set_dispatch_mode(DispatchMode mode) {
  mode_flag().store(mode, std::memory_order_relaxed);
}

std::size_t preferred_width() noexcept {
  static const std::size_t width = detect_width();
  return width;
}

std::size_t active_width() {
  if (dispatch_mode() == DispatchMode::ForceScalar) return 1;
  return preferred_width();
}

std::size_t compiled_width_cap() noexcept { return VPAR_SIMD_WIDTH_MAX; }

const char* width_isa_name(std::size_t width) noexcept {
  switch (width) {
    case 8: return "avx512f";
    case 4: return "avx";
    case 2:
#if defined(__x86_64__)
      return "sse2";
#else
      return "vec128";
#endif
    default: return "scalar";
  }
}

void record_span(std::size_t width, std::size_t vector_iters,
                 std::size_t remainder) noexcept {
  record_spans(width, 1, vector_iters, remainder);
}

void record_spans(std::size_t width, std::size_t spans,
                  std::size_t vector_iters_per_span,
                  std::size_t remainder) noexcept {
  static auto& vec_iters = trace::Metrics::instance().counter("simd.vector_iters");
  static auto& rem_iters = trace::Metrics::instance().counter("simd.remainder_iters");
  static auto& lanes = trace::Metrics::instance().histogram("simd.lanes_active");
  const std::size_t vector_iters = spans * vector_iters_per_span;
  vec_iters.add(vector_iters);
  rem_iters.add(spans * remainder);
  lanes.record_many(width, vector_iters);
  if (remainder != 0) lanes.record_many(remainder, spans);
}

}  // namespace vpar::simd
