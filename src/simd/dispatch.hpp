#pragma once

#include <cstddef>

namespace vpar::simd {

/// Runtime choice between a kernel's scalar reference path and its SIMD path.
/// The VPAR_SIMD_DISPATCH environment variable seeds it on first use
/// (`scalar`, `simd`, or `auto`; unset means auto = use SIMD whenever the
/// build and the CPU support it); any other value makes that first use
/// throw std::invalid_argument. The force modes exist for the equivalence
/// tests and the wallclock simd probe, which time/compare both paths in one
/// process.
enum class DispatchMode { Auto, ForceScalar, ForceSimd };

[[nodiscard]] DispatchMode dispatch_mode();
void set_dispatch_mode(DispatchMode mode);

/// Widest double-lane count the build compiled *and* this CPU executes:
/// 8 with AVX-512F clones, 4 with AVX clones, 2 for baseline vector code,
/// 1 for scalar-only builds/compilers. Independent of the dispatch mode.
[[nodiscard]] std::size_t preferred_width() noexcept;

/// Width kernels should use right now: preferred_width(), or 1 when the
/// dispatch mode forces scalar.
[[nodiscard]] std::size_t active_width();

/// True when active_width() > 1; kernels branch on this once per call.
[[nodiscard]] inline bool use_simd() { return active_width() > 1; }

/// Compile-time width cap of this build (the effective VPAR_SIMD setting).
[[nodiscard]] std::size_t compiled_width_cap() noexcept;

/// Human-readable ISA name for a width ("scalar", "sse2", "avx", "avx512f";
/// "vec128" for generic 2-lane vector code off x86-64).
[[nodiscard]] const char* width_isa_name(std::size_t width) noexcept;

/// Record one vectorized span with the simtrace metrics registry — the real
/// VOR/AVL analogues of the paper's hardware counters:
///   simd.vector_iters    += vector_iters   (full-width iterations)
///   simd.remainder_iters += remainder      (scalar tail iterations)
///   simd.lanes_active    histogram: `width` observed vector_iters times,
///                        `remainder` observed once (the partial iteration),
/// so sum/count of the histogram is the achieved average vector length.
///
/// Every call is 4 relaxed atomic adds on process-wide counters that all
/// rank threads share, so the adds contend. Never call it per row: the code
/// that sweeps a row kernel records the whole sweep with one record_spans
/// per call (or per parallel_for chunk).
void record_span(std::size_t width, std::size_t vector_iters,
                 std::size_t remainder) noexcept;

/// record_span for `spans` equally-shaped spans in one call (the rows of one
/// Dslash sweep, the blocks of one FFT stage, which all share the same trip
/// count): each span ran `vector_iters_per_span` full-width iterations plus
/// one partial iteration of `remainder` active lanes (0 = no partial
/// iteration). Same 4 shared atomic adds as one record_span, whatever
/// `spans` is.
void record_spans(std::size_t width, std::size_t spans,
                  std::size_t vector_iters_per_span,
                  std::size_t remainder) noexcept;

namespace detail {
/// The DispatchMode a VPAR_SIMD_DISPATCH value selects: auto|scalar|simd;
/// null or empty is Auto. Anything else throws std::invalid_argument naming
/// the accepted values. The parser behind the first-use read, exposed for
/// tests.
[[nodiscard]] DispatchMode dispatch_mode_from_env(const char* value);
}  // namespace detail

}  // namespace vpar::simd
