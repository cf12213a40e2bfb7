// Paper Figure 4 made concrete: the load-balanced column decomposition of
// the plane-wave G-sphere over three processors, printed as an ASCII map of
// the (gx, gy) plane, followed by a small self-consistent DFT-style solve
// showing the CG eigensolver converging on a silicon-like potential.

#include <cstdio>
#include <exception>

#include "paratec/basis.hpp"
#include "paratec/hamiltonian.hpp"
#include "paratec/layout.hpp"
#include "paratec/solver.hpp"
#include "simrt/runtime.hpp"

int main() try {
  using namespace vpar;

  // --- Figure 4a: column assignment over 3 processors ----------------------
  const paratec::Basis basis(25.0);  // gmax = 5
  const paratec::Layout layout(basis, 3);
  std::printf("== G-sphere column layout over 3 processors (Figure 4a) ==\n");
  std::printf("   each cell: processor owning column (gx, gy); '.' = empty\n\n");
  const int gmax = 5;
  for (int gy = gmax; gy >= -gmax; --gy) {
    std::printf("  ");
    for (int gx = -gmax; gx <= gmax; ++gx) {
      char c = '.';
      for (std::size_t ci = 0; ci < basis.columns().size(); ++ci) {
        const auto& col = basis.columns()[ci];
        if (col.gx == gx && col.gy == gy) {
          c = static_cast<char>('0' + layout.owner_of(ci));
          break;
        }
      }
      std::printf("%c ", c);
    }
    std::printf("\n");
  }
  std::printf("\n  points per processor: ");
  for (int r = 0; r < 3; ++r) std::printf("%zu ", layout.local_size(r));
  std::printf(" (greedy balance: max-min <= longest column)\n");

  // --- a small all-band solve ------------------------------------------------
  std::printf("\n== All-band CG on a silicon-like supercell ==\n");
  simrt::run(2, [](simrt::Communicator& comm) {
    const paratec::Basis b(4.0);
    const paratec::Layout l(b, comm.size());
    paratec::Hamiltonian h(comm, b, l, paratec::silicon_supercell(1), 1.0, 0.22);
    paratec::Solver solver(h, 4, 11);
    solver.init_random();
    for (int it = 1; it <= 12; ++it) {
      const double e = solver.iterate();
      if (comm.rank() == 0 && (it <= 3 || it % 4 == 0)) {
        std::printf("  CG sweep %2d: band-energy sum = %+.8f\n", it, e);
      }
    }
    if (comm.rank() == 0) {
      std::printf("  converged eigenvalues:");
      for (double v : solver.eigenvalues()) std::printf(" %+.5f", v);
      std::printf("\n  (%zu plane waves, FFT grid %zu^3, %d ranks)\n", b.size(),
                  b.grid_n(), comm.size());
    }
  });
  return 0;
} catch (const std::exception& e) {
  // A rejected input (a malformed VPAR_* variable, say) ends the program
  // with its message and exit status 2, not std::terminate.
  std::fprintf(stderr, "paratec_layout: %s\n", e.what());
  return 2;
}
