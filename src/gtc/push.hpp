#pragma once

#include "gtc/particles.hpp"
#include "gtc/torus_grid.hpp"

namespace vpar::gtc {

/// Gather-push step: gather the gyro-averaged electric field at each
/// marker's 4-point ring (same 32-point stencil as deposition, Figure 8b),
/// then advance guiding centres by the ExB drift (B = b0 along the torus
/// axis) and zeta by the parallel velocity:
///   dx/dt =  Ey / b0,  dy/dt = -Ex / b0,  dzeta/dt = vpar.
/// Cross-section coordinates wrap periodically; zeta wraps globally to
/// [0, 2pi) and may leave this rank's domain (the shift step migrates those
/// markers). Markers between the last owned plane and the boundary read the
/// ex/ey ghost plane (grid.ex_plane(planes_local)), which must hold the right
/// neighbour's first plane.
void gather_push(ParticleSet& particles, const TorusGrid& grid, double dt,
                 double b0);

[[nodiscard]] double push_flops_per_particle();

}  // namespace vpar::gtc
