#include "cactus/evolve.hpp"

#include <cmath>
#include <stdexcept>

namespace vpar::cactus {

namespace {
constexpr int G = GridFunctions::kGhost;
}

Evolution::Evolution(simrt::Communicator& comm, const Options& options)
    : comm_(&comm), options_(options),
      decomp_(options.nx, options.ny, options.nz, options.px, options.py,
              options.pz, comm.rank(), options.periodic) {
  if (options.px * options.py * options.pz != comm.size()) {
    throw std::runtime_error("cactus: processor grid does not match job size");
  }
  state_ = std::make_unique<GridFunctions>(kNumFields, decomp_.nl[0], decomp_.nl[1],
                                           decomp_.nl[2]);
  scratch_ = std::make_unique<GridFunctions>(kNumFields, decomp_.nl[0],
                                             decomp_.nl[1], decomp_.nl[2]);
  rhs_ = std::make_unique<GridFunctions>(kNumFields, decomp_.nl[0], decomp_.nl[1],
                                         decomp_.nl[2]);
  initial_ = std::make_unique<GridFunctions>(kNumFields, decomp_.nl[0],
                                             decomp_.nl[1], decomp_.nl[2]);
  previous_ = std::make_unique<GridFunctions>(kNumFields, decomp_.nl[0],
                                              decomp_.nl[1], decomp_.nl[2]);
}

std::pair<std::size_t, std::size_t> Evolution::rhs_bounds(int axis) const {
  std::size_t lo = 0, hi = decomp_.nl[axis];
  if (!options_.periodic) {
    if (decomp_.at_min(axis)) {
      const std::size_t face = G - std::min<std::size_t>(G, decomp_.origin(axis));
      lo = face;
    }
    if (decomp_.at_max(axis)) {
      hi -= G;  // local block is at least 2G wide (Decomp3D enforces)
    }
  }
  return {lo, hi};
}

void Evolution::initialize(const InitialData& id) {
  for (std::size_t k = 0; k < decomp_.nl[2]; ++k) {
    for (std::size_t j = 0; j < decomp_.nl[1]; ++j) {
      for (std::size_t i = 0; i < decomp_.nl[0]; ++i) {
        const double x = (static_cast<double>(decomp_.origin(0) + i) + 0.5 -
                          0.5 * static_cast<double>(decomp_.n[0])) *
                         options_.h;
        const double y = (static_cast<double>(decomp_.origin(1) + j) + 0.5 -
                          0.5 * static_cast<double>(decomp_.n[1])) *
                         options_.h;
        const double z = (static_cast<double>(decomp_.origin(2) + k) + 0.5 -
                          0.5 * static_cast<double>(decomp_.n[2])) *
                         options_.h;
        const auto values = id(x, y, z);
        const std::size_t o = state_->at(static_cast<std::ptrdiff_t>(k),
                                         static_cast<std::ptrdiff_t>(j),
                                         static_cast<std::ptrdiff_t>(i));
        for (int f = 0; f < kNumFields; ++f) state_->field(f)[o] = values[static_cast<std::size_t>(f)];
      }
    }
  }
  time_ = 0.0;
  have_previous_ = false;
}

void Evolution::apply_update(const GridFunctions& base, const GridFunctions& rhs,
                             double dt_eff) {
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  for (int f = 0; f < kNumFields; ++f) {
    const double* u0 = base.field(f);
    const double* r = rhs.field(f);
    double* u = state_->field(f);
    for (std::size_t k = k0; k < k1; ++k) {
      for (std::size_t j = j0; j < j1; ++j) {
        const std::size_t row = state_->at(static_cast<std::ptrdiff_t>(k),
                                           static_cast<std::ptrdiff_t>(j),
                                           static_cast<std::ptrdiff_t>(i0));
        for (std::size_t i = 0; i < i1 - i0; ++i) {
          u[row + i] = u0[row + i] + dt_eff * r[row + i];
        }
      }
    }
  }
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(kNumFields) *
                  static_cast<double>((j1 - j0) * (k1 - k0));
  rec.trips = static_cast<double>(i1 - i0);
  rec.flops_per_trip = 2.0;
  rec.bytes_per_trip = 3.0 * sizeof(double);
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("icn_update", rec);
}

void Evolution::step_icn() {
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  const double dtv = dt();

  for (int it = 0; it < options_.icn_iterations; ++it) {
    GridFunctions* mid;
    if (it == 0) {
      mid = initial_.get();
    } else {
      // midpoint state 1/2 (u^n + u_current), interior + boundary layers.
      scratch_->raw() = initial_->raw();
      const auto& cur = state_->raw();
      auto& s = scratch_->raw();
      for (std::size_t idx = 0; idx < s.size(); ++idx) {
        s[idx] = 0.5 * (s[idx] + cur[idx]);
      }
      mid = scratch_.get();
    }
    exchange(*mid);
    compute_rhs(*mid, *rhs_, options_.h, i0, i1, j0, j1, k0, k1,
                options_.rhs_variant, options_.block);
    apply_update(*initial_, *rhs_, dtv);
    apply_radiation_boundary(decomp_, *initial_, *state_, options_.h, dtv,
                             options_.bc_variant);
  }
}

void Evolution::step_rk2() {
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  const double dtv = dt();

  // Half step into state_, then full step from the midpoint.
  exchange(*initial_);
  compute_rhs(*initial_, *rhs_, options_.h, i0, i1, j0, j1, k0, k1,
              options_.rhs_variant, options_.block);
  apply_update(*initial_, *rhs_, 0.5 * dtv);
  apply_radiation_boundary(decomp_, *initial_, *state_, options_.h, 0.5 * dtv,
                           options_.bc_variant);

  scratch_->raw() = state_->raw();
  exchange(*scratch_);
  compute_rhs(*scratch_, *rhs_, options_.h, i0, i1, j0, j1, k0, k1,
              options_.rhs_variant, options_.block);
  apply_update(*initial_, *rhs_, dtv);
  apply_radiation_boundary(decomp_, *initial_, *state_, options_.h, dtv,
                           options_.bc_variant);
}

void Evolution::step_leapfrog() {
  if (!have_previous_) {
    // Bootstrap the first step with RK2; afterwards u^{n-1} is available.
    previous_->raw() = state_->raw();
    step_rk2();
    have_previous_ = true;
    return;
  }
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  const double dtv = dt();

  exchange(*initial_);
  compute_rhs(*initial_, *rhs_, options_.h, i0, i1, j0, j1, k0, k1,
              options_.rhs_variant, options_.block);
  // u^{n+1} = u^{n-1} + 2 dt RHS(u^n); boundary from u^n with dt.
  apply_update(*previous_, *rhs_, 2.0 * dtv);
  apply_radiation_boundary(decomp_, *initial_, *state_, options_.h, dtv,
                           options_.bc_variant);
  previous_->raw() = initial_->raw();
}

void Evolution::step() {
  // Snapshot u^n.
  initial_->raw() = state_->raw();
  switch (options_.integrator) {
    case Integrator::IterativeCN: step_icn(); break;
    case Integrator::Rk2: step_rk2(); break;
    case Integrator::StaggeredLeapfrog: step_leapfrog(); break;
  }
  time_ += dt();
}

void Evolution::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

double Evolution::constraint_l2() {
  exchange(*state_);
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  double sum = 0.0, count = 0.0;
  for (std::size_t k = k0; k < k1; ++k) {
    for (std::size_t j = j0; j < j1; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        const auto c = constraints_at(*state_, options_.h, i, j, k);
        sum += c.hamiltonian * c.hamiltonian;
        for (double m : c.momentum) sum += m * m;
        count += 1.0;
      }
    }
  }
  sum = comm_->allreduce(sum, simrt::ReduceOp::Sum);
  count = comm_->allreduce(count, simrt::ReduceOp::Sum);
  return count > 0.0 ? std::sqrt(sum / count) : 0.0;
}

double Evolution::field_l2(int field) {
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  double sum = 0.0, count = 0.0;
  const double* u = state_->field(field);
  for (std::size_t k = k0; k < k1; ++k) {
    for (std::size_t j = j0; j < j1; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double v = u[state_->at(static_cast<std::ptrdiff_t>(k),
                                      static_cast<std::ptrdiff_t>(j),
                                      static_cast<std::ptrdiff_t>(i))];
        sum += v * v;
        count += 1.0;
      }
    }
  }
  sum = comm_->allreduce(sum, simrt::ReduceOp::Sum);
  count = comm_->allreduce(count, simrt::ReduceOp::Sum);
  return count > 0.0 ? std::sqrt(sum / count) : 0.0;
}

double Evolution::error_l2(
    int field,
    const std::function<double(double, double, double, double)>& exact) {
  const auto [i0, i1] = rhs_bounds(0);
  const auto [j0, j1] = rhs_bounds(1);
  const auto [k0, k1] = rhs_bounds(2);
  double sum = 0.0, count = 0.0;
  const double* u = state_->field(field);
  for (std::size_t k = k0; k < k1; ++k) {
    for (std::size_t j = j0; j < j1; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double x = (static_cast<double>(decomp_.origin(0) + i) + 0.5 -
                          0.5 * static_cast<double>(decomp_.n[0])) *
                         options_.h;
        const double y = (static_cast<double>(decomp_.origin(1) + j) + 0.5 -
                          0.5 * static_cast<double>(decomp_.n[1])) *
                         options_.h;
        const double z = (static_cast<double>(decomp_.origin(2) + k) + 0.5 -
                          0.5 * static_cast<double>(decomp_.n[2])) *
                         options_.h;
        const double v = u[state_->at(static_cast<std::ptrdiff_t>(k),
                                      static_cast<std::ptrdiff_t>(j),
                                      static_cast<std::ptrdiff_t>(i))] -
                         exact(x, y, z, time_);
        sum += v * v;
        count += 1.0;
      }
    }
  }
  sum = comm_->allreduce(sum, simrt::ReduceOp::Sum);
  count = comm_->allreduce(count, simrt::ReduceOp::Sum);
  return count > 0.0 ? std::sqrt(sum / count) : 0.0;
}

std::vector<double> Evolution::gather(int field) {
  const std::size_t nxl = decomp_.nl[0], nyl = decomp_.nl[1], nzl = decomp_.nl[2];
  std::vector<double> local(nxl * nyl * nzl);
  const double* u = state_->field(field);
  for (std::size_t k = 0; k < nzl; ++k) {
    for (std::size_t j = 0; j < nyl; ++j) {
      for (std::size_t i = 0; i < nxl; ++i) {
        local[(k * nyl + j) * nxl + i] =
            u[state_->at(static_cast<std::ptrdiff_t>(k),
                         static_cast<std::ptrdiff_t>(j),
                         static_cast<std::ptrdiff_t>(i))];
      }
    }
  }
  const std::size_t total = decomp_.n[0] * decomp_.n[1] * decomp_.n[2];
  std::vector<double> flat(comm_->rank() == 0 ? total : 0);
  comm_->gather<double>(local, flat, 0);
  if (comm_->rank() != 0) return {};

  std::vector<double> global(total);
  for (int r = 0; r < comm_->size(); ++r) {
    const part::Index<3> o = decomp_.partition.origin(r);
    const double* block = flat.data() + static_cast<std::size_t>(r) * local.size();
    for (std::size_t k = 0; k < nzl; ++k) {
      for (std::size_t j = 0; j < nyl; ++j) {
        for (std::size_t i = 0; i < nxl; ++i) {
          const std::size_t gx = static_cast<std::size_t>(o[0]) + i;
          const std::size_t gy = static_cast<std::size_t>(o[1]) + j;
          const std::size_t gz = static_cast<std::size_t>(o[2]) + k;
          global[(gz * decomp_.n[1] + gy) * decomp_.n[0] + gx] =
              block[(k * nyl + j) * nxl + i];
        }
      }
    }
  }
  return global;
}

InitialData plane_wave_id(double amplitude, double k, double z0) {
  return [amplitude, k, z0](double, double, double z) {
    std::array<double, kNumFields> v{};
    const double phase = k * (z - z0);
    v[HXX] = amplitude * std::cos(phase);
    v[HYY] = -v[HXX];
    v[KXX] = -0.5 * amplitude * k * std::sin(phase);
    v[KYY] = -v[KXX];
    return v;
  };
}

std::function<double(double, double, double, double)> plane_wave_exact_hxx(
    double amplitude, double k, double z0) {
  return [amplitude, k, z0](double, double, double z, double t) {
    return amplitude * std::cos(k * (z - z0 - t));
  };
}

InitialData gaussian_pulse_id(double amplitude, double sigma) {
  return [amplitude, sigma](double x, double y, double z) {
    std::array<double, kNumFields> v{};
    const double r2 = x * x + y * y + z * z;
    v[HXX] = amplitude * std::exp(-r2 / (sigma * sigma));
    v[HYY] = -v[HXX];
    return v;
  };
}

}  // namespace vpar::cactus
