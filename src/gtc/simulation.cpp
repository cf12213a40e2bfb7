#include "gtc/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <stdexcept>

#include "trace/trace.hpp"

namespace vpar::gtc {

Simulation::Simulation(simrt::Communicator& comm, const Options& options)
    : comm_(&comm), options_(options),
      grid_(options.ngx, options.ngy, options.nplanes, comm.size(), comm.rank()) {}

void Simulation::load_particles() {
  particles_.clear();
  std::mt19937_64 rng(options_.seed + static_cast<std::uint64_t>(comm_->rank()));
  std::uniform_real_distribution<double> ux(0.0, static_cast<double>(options_.ngx));
  std::uniform_real_distribution<double> uy(0.0, static_cast<double>(options_.ngy));
  std::uniform_real_distribution<double> uz(grid_.zeta_min(), grid_.zeta_max());
  std::uniform_real_distribution<double> uv(-options_.vpar_max, options_.vpar_max);
  std::uniform_real_distribution<double> ur(0.0, options_.rho_max);

  const std::size_t cells = grid_.plane_size() *
                            static_cast<std::size_t>(grid_.planes_local());
  const std::size_t count =
      cells * static_cast<std::size_t>(options_.particles_per_cell);
  // One allocation per array: grown by push_back, the six arrays would end
  // at the next power of two and pass through copies on the way, which set
  // the process's peak memory.
  particles_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Quiet start: alternate charge signs for mean quasi-neutrality.
    const double q = (i % 2 == 0) ? 1.0 : -1.0;
    particles_.push_back(ux(rng), uy(rng), uz(rng), uv(rng), ur(rng), q);
  }
}

void Simulation::flush_ghost_plane() {
  // Ghost charge accumulated for the neighbour's first plane: send right,
  // add the incoming contribution (from the left) onto our first plane.
  const std::size_t ps = grid_.plane_size();
  const int right = (comm_->rank() + 1) % comm_->size();
  const int left = (comm_->rank() + comm_->size() - 1) % comm_->size();
  std::vector<double> incoming(ps);
  comm_->sendrecv<double>(
      right, std::span<const double>(grid_.charge_plane(grid_.planes_local()), ps),
      left, std::span<double>(incoming), 401);
  double* first = grid_.charge_plane(0);
  for (std::size_t i = 0; i < ps; ++i) first[i] += incoming[i];
}

void Simulation::fetch_ghost_efield() {
  // Our first field plane goes left; the right neighbour's first plane lands
  // in our ghost plane.
  const std::size_t ps = grid_.plane_size();
  const int ghost = grid_.planes_local();
  const int right = (comm_->rank() + 1) % comm_->size();
  const int left = (comm_->rank() + comm_->size() - 1) % comm_->size();
  comm_->sendrecv<double>(left, std::span<const double>(grid_.ex_plane(0), ps),
                          right, std::span<double>(grid_.ex_plane(ghost), ps), 402);
  comm_->sendrecv<double>(left, std::span<const double>(grid_.ey_plane(0), ps),
                          right, std::span<double>(grid_.ey_plane(ghost), ps), 403);
}

void Simulation::deposit_phase() {
  trace::TraceSpan span("gtc.deposit",
                        static_cast<std::int64_t>(particles_.size()));
  grid_.zero_charge();
  if (options_.threads > 1) {
    deposit_threaded(particles_, grid_, options_.threads);
  } else {
    deposit(particles_, grid_, options_.deposit, options_.vlen);
  }
  flush_ghost_plane();
}

void Simulation::solve_phase() {
  trace::TraceSpan span("gtc.solve",
                        static_cast<std::int64_t>(grid_.plane_size()));
  solve_poisson(grid_);
  fetch_ghost_efield();
}

void Simulation::push_phase() {
  trace::TraceSpan span("gtc.push",
                        static_cast<std::int64_t>(particles_.size()));
  gather_push(particles_, grid_, options_.dt, options_.b0);
}

void Simulation::shift_phase() {
  trace::TraceSpan span("gtc.shift",
                        static_cast<std::int64_t>(particles_.size()));
  shift(*comm_, grid_, particles_, options_.shift);
}

void Simulation::step() {
  deposit_phase();
  solve_phase();
  push_phase();
  shift_phase();
}

void Simulation::run(int steps) {
  for (int s = 0; s < steps; ++s) step();
}

Simulation::Checkpoint Simulation::save_state() const {
  return Checkpoint{particles_};
}

void Simulation::restore_state(const Checkpoint& checkpoint) {
  particles_ = checkpoint.particles;
}

std::size_t Simulation::global_particle_count() {
  const auto local = static_cast<long>(particles_.size());
  return static_cast<std::size_t>(comm_->allreduce(local, simrt::ReduceOp::Sum));
}

double Simulation::global_particle_charge() {
  return comm_->allreduce(particles_.total_charge(), simrt::ReduceOp::Sum);
}

double Simulation::global_grid_charge() {
  return comm_->allreduce(grid_.total_charge_local(), simrt::ReduceOp::Sum);
}

double Simulation::field_energy() {
  double local = 0.0;
  for (int p = 0; p < grid_.planes_local(); ++p) {
    const double* phi = grid_.phi_plane(p);
    const double* rho = grid_.charge_plane(p);
    for (std::size_t i = 0; i < grid_.plane_size(); ++i) local += phi[i] * rho[i];
  }
  return comm_->allreduce(local, simrt::ReduceOp::Sum);
}

bool Simulation::particles_home() const {
  for (double z : particles_.zeta) {
    if (z < grid_.zeta_min() || z >= grid_.zeta_max()) return false;
  }
  return true;
}

std::vector<double> Simulation::gather_phi_plane(int global_plane) {
  const int owner = global_plane / grid_.planes_local();
  const std::size_t ps = grid_.plane_size();
  std::vector<double> plane(ps, 0.0);
  if (comm_->rank() == owner) {
    const double* phi = grid_.phi_plane(global_plane - grid_.plane0());
    std::copy_n(phi, ps, plane.begin());
    if (owner != 0) comm_->send<double>(0, plane, 404);
  }
  if (comm_->rank() == 0 && owner != 0) {
    comm_->recv<double>(owner, std::span<double>(plane), 404);
  }
  return comm_->rank() == 0 ? plane : std::vector<double>{};
}

}  // namespace vpar::gtc
