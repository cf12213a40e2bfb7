#include "qcd/dslash.hpp"

#include "perf/recorder.hpp"
#include "qcd/dslash_kernel.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace vpar::qcd {

namespace detail {

void dslash_row(const RowPointers& p, std::size_t n) {
  dslash_span_w<1>(p, n);
}

}  // namespace detail

void apply_dslash(std::array<double*, kPlanes> out,
                  std::array<const double*, kPlanes> src, const HalfGeom& geom,
                  int target_parity) {
  const std::size_t nxh = geom.n[0];
  const std::size_t nyl = geom.n[1], nzl = geom.n[2], ntl = geom.n[3];
  const std::size_t rows = nyl * nzl * ntl;
  trace::TraceSpan span("qcd.dslash", static_cast<std::int64_t>(nxh),
                        static_cast<std::int64_t>(rows));
  const bool simd_path = simd::use_simd();

  // Rows write disjoint x spans of every output plane, so splitting the row
  // sweep across idle pool workers is bitwise-safe (see simrt/parallel.hpp).
  simrt::parallel_for(0, rows, 0, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const auto y = static_cast<std::ptrdiff_t>(r % nyl);
      const auto z = static_cast<std::ptrdiff_t>((r / nyl) % nzl);
      const auto t = static_cast<std::ptrdiff_t>(r / (nyl * nzl));
      const std::ptrdiff_t gy = geom.origin[1] + y;
      const std::ptrdiff_t gz = geom.origin[2] + z;
      const std::ptrdiff_t gt = geom.origin[3] + t;
      // Full-x parity of this row's target-parity sites. Block x origins are
      // even (enforced by the decomposition), so global and local x parity
      // agree; x+1 neighbors sit at half index xh+q, x-1 at xh+q-1.
      const std::ptrdiff_t q = (target_parity + gy + gz + gt) & 1;

      detail::RowPointers p;
      for (std::size_t mu = 0; mu < 4; ++mu) {
        p.eta[mu] = staggered_eta(mu, q, gy, gz);
      }
      const part::Index<4> row_idx{{0, y, z, t}};
      const std::size_t base = geom.layout.offset(row_idx);
      const auto sy = static_cast<std::ptrdiff_t>(geom.layout.stride[1]);
      const auto sz = static_cast<std::ptrdiff_t>(geom.layout.stride[2]);
      const auto st = static_cast<std::ptrdiff_t>(geom.layout.stride[3]);
      for (std::size_t pl = 0; pl < kPlanes; ++pl) {
        p.out[pl] = out[pl] + base;
        const double* s = src[pl] + base;
        p.fwd[0][pl] = s + q;
        p.bwd[0][pl] = s + q - 1;
        p.fwd[1][pl] = s + sy;
        p.bwd[1][pl] = s - sy;
        p.fwd[2][pl] = s + sz;
        p.bwd[2][pl] = s - sz;
        p.fwd[3][pl] = s + st;
        p.bwd[3][pl] = s - st;
      }
      if (simd_path) {
        detail::dslash_row_simd(p, nxh);
      } else {
        detail::dslash_row(p, nxh);
      }
    }
  });

  // One record for the whole sweep: every row is nxh sites wide.
  if (simd_path) {
    const std::size_t w = simd::active_width();
    simd::record_spans(w, rows, nxh / w, nxh % w);
  }

  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(rows);
  rec.trips = static_cast<double>(nxh);
  rec.flops_per_trip = dslash_flops_per_site();
  rec.bytes_per_trip = dslash_bytes_per_site();
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("dslash", rec);

  static trace::Counter& sites =
      trace::Metrics::instance().counter("qcd.dslash_sites");
  sites.add(rows * nxh);
}

}  // namespace vpar::qcd
