#include "lbmhd/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "trace/trace.hpp"

namespace vpar::lbmhd {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

Simulation::Simulation(simrt::Communicator& comm, const Options& options)
    : comm_(&comm), options_(options),
      decomp_(options.nx, options.ny, options.px, options.py, comm.rank()) {
  if (options.px * options.py != comm.size()) {
    throw std::runtime_error("lbmhd: processor grid does not match job size");
  }
  const std::size_t block_elems = FieldSet::total_size(decomp_.nxl, decomp_.nyl);
  if (options.exchange == Options::Exchange::Caf) {
    // Both time levels live inside the co-array so neighbours can write the
    // ghosts of whichever buffer is current after each swap.
    coarray_.emplace(comm, "lbmhd_fields", 2 * block_elems);
    auto whole = coarray_->local();
    current_ = std::make_unique<FieldSet>(decomp_.nxl, decomp_.nyl,
                                          whole.subspan(0, block_elems));
    next_ = std::make_unique<FieldSet>(decomp_.nxl, decomp_.nyl,
                                       whole.subspan(block_elems, block_elems));
    caf_half_current_ = 0;
  } else {
    current_ = std::make_unique<FieldSet>(decomp_.nxl, decomp_.nyl);
    next_ = std::make_unique<FieldSet>(decomp_.nxl, decomp_.nyl);
  }
}

void Simulation::initialize(const InitialCondition& ic) {
  FieldSet& fs = *current_;
  for (std::size_t j = 0; j < decomp_.nyl; ++j) {
    for (std::size_t i = 0; i < decomp_.nxl; ++i) {
      const double x =
          (static_cast<double>(decomp_.x0() + i) + 0.5) / static_cast<double>(decomp_.nx);
      const double y =
          (static_cast<double>(decomp_.y0() + j) + 0.5) / static_cast<double>(decomp_.ny);
      const MacroState m = ic(x, y);

      const double mx = m.rho * m.ux;
      const double my = m.rho * m.uy;
      const double b2h = 0.5 * (m.bx * m.bx + m.by * m.by);
      const double txx = m.rho * m.ux * m.ux + b2h - m.bx * m.bx;
      const double tyy = m.rho * m.uy * m.uy + b2h - m.by * m.by;
      const double txy = m.rho * m.ux * m.uy - m.bx * m.by;
      const double lam = m.ux * m.by - m.bx * m.uy;

      const std::size_t o =
          fs.at(static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(i));
      for (int dir = 0; dir < Lattice::kDirs; ++dir) {
        fs.f(dir)[o] = Lattice::f_eq(dir, m.rho, mx, my, txx, txy, tyy);
        double gx = 0.0, gy = 0.0;
        Lattice::g_eq(dir, m.bx, m.by, lam, gx, gy);
        fs.gx(dir)[o] = gx;
        fs.gy(dir)[o] = gy;
      }
    }
  }
}

void Simulation::exchange() {
  trace::TraceSpan span("lbmhd.exchange", decomp_.nxl, decomp_.nyl);
  if (options_.exchange == Options::Exchange::Caf) {
    const std::size_t block_elems = FieldSet::total_size(decomp_.nxl, decomp_.nyl);
    exchange_caf(*coarray_, decomp_, *current_,
                 static_cast<std::size_t>(caf_half_current_) * block_elems);
  } else {
    exchange_mpi(*comm_, decomp_, *current_);
  }
}

void Simulation::step() {
  CollisionParams params{1.0 / options_.tau_f, 1.0 / options_.tau_g};
  {
    trace::TraceSpan span("lbmhd.collision", decomp_.nxl, decomp_.nyl);
    if (options_.collision == Options::Collision::Blocked) {
      collide_blocked(*current_, params, options_.block);
    } else {
      collide_flat(*current_, params);
    }
  }
  exchange();
  {
    trace::TraceSpan span("lbmhd.stream", decomp_.nxl, decomp_.nyl);
    stream(*current_, *next_);
  }
  std::swap(current_, next_);
  caf_half_current_ ^= 1;
}

void Simulation::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

Simulation::Checkpoint Simulation::save_state() const {
  const auto raw = current_->raw();
  return Checkpoint{std::vector<double>(raw.begin(), raw.end())};
}

void Simulation::restore_state(const Checkpoint& checkpoint) {
  auto raw = current_->raw();
  if (checkpoint.fields.size() != raw.size()) {
    throw std::runtime_error("lbmhd: checkpoint size mismatch");
  }
  std::copy(checkpoint.fields.begin(), checkpoint.fields.end(), raw.begin());
}

void Simulation::macro_at(std::size_t j, std::size_t i, MacroState& out) const {
  const FieldSet& fs = *current_;
  const std::size_t o =
      fs.at(static_cast<std::ptrdiff_t>(j), static_cast<std::ptrdiff_t>(i));
  constexpr double s = Lattice::kS;
  double rho = 0.0, bx = 0.0, by = 0.0;
  std::array<double, Lattice::kDirs> f{};
  for (int dir = 0; dir < Lattice::kDirs; ++dir) {
    f[static_cast<std::size_t>(dir)] = fs.f(dir)[o];
    rho += fs.f(dir)[o];
    bx += fs.gx(dir)[o];
    by += fs.gy(dir)[o];
  }
  const double mx = f[1] - f[5] + s * (f[2] - f[4] - f[6] + f[8]);
  const double my = f[3] - f[7] + s * (f[2] + f[4] - f[6] - f[8]);
  out.rho = rho;
  out.ux = mx / rho;
  out.uy = my / rho;
  out.bx = bx;
  out.by = by;
}

Diagnostics Simulation::diagnostics() {
  std::array<double, 7> acc{};
  MacroState m;
  for (std::size_t j = 0; j < decomp_.nyl; ++j) {
    for (std::size_t i = 0; i < decomp_.nxl; ++i) {
      macro_at(j, i, m);
      acc[0] += m.rho;
      acc[1] += m.rho * m.ux;
      acc[2] += m.rho * m.uy;
      acc[3] += m.bx;
      acc[4] += m.by;
      acc[5] += 0.5 * m.rho * (m.ux * m.ux + m.uy * m.uy);
      acc[6] += 0.5 * (m.bx * m.bx + m.by * m.by);
    }
  }
  comm_->allreduce_inplace(std::span<double>(acc), simrt::ReduceOp::Sum);
  Diagnostics d;
  d.mass = acc[0];
  d.momentum_x = acc[1];
  d.momentum_y = acc[2];
  d.bx_total = acc[3];
  d.by_total = acc[4];
  d.kinetic_energy = acc[5];
  d.magnetic_energy = acc[6];
  return d;
}

std::vector<double> Simulation::gather(Field which) {
  if (which == Field::CurrentZ) {
    // J_z = dBy/dx - dBx/dy via periodic central differences on rank 0.
    auto bx = gather(Field::Bx);
    auto by = gather(Field::By);
    if (comm_->rank() != 0) return {};
    const std::size_t nx = decomp_.nx, ny = decomp_.ny;
    std::vector<double> jz(nx * ny);
    for (std::size_t j = 0; j < ny; ++j) {
      const std::size_t jm = (j + ny - 1) % ny, jp = (j + 1) % ny;
      for (std::size_t i = 0; i < nx; ++i) {
        const std::size_t im = (i + nx - 1) % nx, ip = (i + 1) % nx;
        jz[j * nx + i] = 0.5 * (by[j * nx + ip] - by[j * nx + im]) -
                         0.5 * (bx[jp * nx + i] - bx[jm * nx + i]);
      }
    }
    return jz;
  }

  std::vector<double> local(decomp_.nxl * decomp_.nyl);
  MacroState m;
  for (std::size_t j = 0; j < decomp_.nyl; ++j) {
    for (std::size_t i = 0; i < decomp_.nxl; ++i) {
      macro_at(j, i, m);
      double v = 0.0;
      switch (which) {
        case Field::Density: v = m.rho; break;
        case Field::VelocityX: v = m.ux; break;
        case Field::VelocityY: v = m.uy; break;
        case Field::Bx: v = m.bx; break;
        case Field::By: v = m.by; break;
        case Field::CurrentZ: break;  // handled above
      }
      local[j * decomp_.nxl + i] = v;
    }
  }

  std::vector<double> flat(comm_->rank() == 0 ? decomp_.nx * decomp_.ny : 0);
  comm_->gather<double>(local, flat, 0);
  if (comm_->rank() != 0) return {};

  // Reassemble rank-ordered blocks into the global row-major field.
  std::vector<double> global(decomp_.nx * decomp_.ny);
  for (int r = 0; r < comm_->size(); ++r) {
    const part::Index<2> o = decomp_.partition.origin(r);
    const auto x0 = static_cast<std::size_t>(o[0]);
    const auto y0 = static_cast<std::size_t>(o[1]);
    const double* block = flat.data() +
                          static_cast<std::size_t>(r) * decomp_.nxl * decomp_.nyl;
    for (std::size_t j = 0; j < decomp_.nyl; ++j) {
      for (std::size_t i = 0; i < decomp_.nxl; ++i) {
        global[(y0 + j) * decomp_.nx + (x0 + i)] = block[j * decomp_.nxl + i];
      }
    }
  }
  return global;
}

InitialCondition crossed_structures_ic(double amplitude) {
  // Vector potential: two compact crosses; B = (dA/dy, -dA/dx) is evaluated
  // by differentiating A numerically, keeping B divergence-free to O(h^2).
  auto potential = [](double x, double y) {
    auto cross = [](double dx, double dy) {
      const double envelope = std::exp(-(dx * dx + dy * dy) / 0.03);
      const double ridges =
          std::exp(-dy * dy / 0.002) + std::exp(-dx * dx / 0.002);
      return envelope * ridges;
    };
    auto wrap = [](double d) {
      if (d > 0.5) return d - 1.0;
      if (d < -0.5) return d + 1.0;
      return d;
    };
    return cross(wrap(x - 0.3), wrap(y - 0.35)) + cross(wrap(x - 0.7), wrap(y - 0.65));
  };
  // The ridge derivatives amplify the potential by ~20x; normalize so that
  // `amplitude` is approximately the peak |B| (keeping it well below the
  // sound speed so the equilibria stay positive).
  const double scale = amplitude / 20.0;
  return [scale, potential](double x, double y) {
    constexpr double h = 1.0e-4;
    MacroState m;
    m.rho = 1.0;
    m.bx = scale * (potential(x, y + h) - potential(x, y - h)) / (2.0 * h);
    m.by = -scale * (potential(x + h, y) - potential(x - h, y)) / (2.0 * h);
    return m;
  };
}

InitialCondition orszag_tang_ic(double amplitude) {
  return [amplitude](double x, double y) {
    MacroState m;
    m.rho = 1.0;
    m.ux = -amplitude * std::sin(kTwoPi * y);
    m.uy = amplitude * std::sin(kTwoPi * x);
    m.bx = -amplitude * std::sin(kTwoPi * y);
    m.by = amplitude * std::sin(2.0 * kTwoPi * x);
    return m;
  };
}

}  // namespace vpar::lbmhd
