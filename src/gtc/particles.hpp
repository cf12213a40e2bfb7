#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace vpar::gtc {

/// Structure-of-arrays particle storage: gyrokinetic markers with
/// guiding-centre position (x, y) in the cross-section plane, toroidal angle
/// zeta, parallel velocity, gyroradius (from the magnetic moment) and charge.
/// SoA layout is what makes the particle loops vectorizable at all.
struct ParticleSet {
  std::vector<double> x, y, zeta, vpar, rho, q;

  [[nodiscard]] std::size_t size() const { return x.size(); }

  void resize(std::size_t n) {
    x.resize(n);
    y.resize(n);
    zeta.resize(n);
    vpar.resize(n);
    rho.resize(n);
    q.resize(n);
  }

  void clear() { resize(0); }

  void reserve(std::size_t n) {
    x.reserve(n);
    y.reserve(n);
    zeta.reserve(n);
    vpar.reserve(n);
    rho.reserve(n);
    q.reserve(n);
  }

  void push_back(double xi, double yi, double zi, double vi, double ri, double qi) {
    x.push_back(xi);
    y.push_back(yi);
    zeta.push_back(zi);
    vpar.push_back(vi);
    rho.push_back(ri);
    q.push_back(qi);
  }

  /// Append particle `i` of `other`.
  void append_from(const ParticleSet& other, std::size_t i) {
    push_back(other.x[i], other.y[i], other.zeta[i], other.vpar[i], other.rho[i],
              other.q[i]);
  }

  /// Remove particle `i` by swapping the last one into its slot.
  void swap_remove(std::size_t i) {
    const std::size_t last = size() - 1;
    x[i] = x[last];
    y[i] = y[last];
    zeta[i] = zeta[last];
    vpar[i] = vpar[last];
    rho[i] = rho[last];
    q[i] = q[last];
    resize(last);
  }

  [[nodiscard]] double total_charge() const {
    double s = 0.0;
    for (double v : q) s += v;
    return s;
  }
};

}  // namespace vpar::gtc
