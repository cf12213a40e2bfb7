// Partitioner invariants: rank-grid factorization, cover-exactly-once and
// disjointness of block and block-cyclic decompositions, neighbor symmetry,
// halo schedule send/recv pairing — property-tested across world sizes 1–16
// including non-power-of-two worlds and degenerate 1-wide axes — plus
// end-to-end ghost-fill checks of exchange_halo over the simrt runtime,
// with self-peer faces copied in place rather than sent.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "part/halo.hpp"
#include "part/part.hpp"
#include "part/partition.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

namespace vpar::part {
namespace {

// --- rank-grid factorization -----------------------------------------------

TEST(Factorize, ProductAlwaysMatchesRanks) {
  for (int ranks = 1; ranks <= 16; ++ranks) {
    const auto d2 = near_cubic_grid<2>(ranks, Extent<2>{{64, 64}});
    EXPECT_EQ(d2[0] * d2[1], ranks) << "ranks=" << ranks;
    const auto d3 = near_cubic_grid<3>(ranks, Extent<3>{{48, 48, 48}});
    EXPECT_EQ(d3[0] * d3[1] * d3[2], ranks) << "ranks=" << ranks;
    const auto d4 = near_cubic_grid<4>(ranks, Extent<4>{{16, 16, 16, 32}});
    EXPECT_EQ(d4[0] * d4[1] * d4[2] * d4[3], ranks) << "ranks=" << ranks;
  }
}

TEST(Factorize, NearCubicOnCubicDomain) {
  const auto d = near_cubic_grid<3>(16, Extent<3>{{64, 64, 64}});
  // 16 = 2^4 over three equal axes: best split is {4, 2, 2} in some order.
  std::array<int, 3> sorted = d;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::array<int, 3>{2, 2, 4}));
}

TEST(Factorize, PrefersAxisThatDividesEvenly) {
  // 3 ranks, one axis divisible by 3, the other longer but not divisible.
  const auto d = near_cubic_grid<2>(3, Extent<2>{{100, 99}});
  EXPECT_EQ(d[0], 1);
  EXPECT_EQ(d[1], 3);
}

TEST(Factorize, SkewedDomainGetsSkewedGrid) {
  // All 8 ranks should land on the long axis of a 512x4 domain.
  const auto d = near_cubic_grid<2>(8, Extent<2>{{512, 4}});
  EXPECT_EQ(d[0], 8);
  EXPECT_EQ(d[1], 1);
}

TEST(Factorize, HonoursFixedDims) {
  std::array<int, 3> dims{0, 4, 0};
  std::array<std::size_t, 3> ext{32, 32, 32};
  factor_rank_grid(8, ext, dims);
  EXPECT_EQ(dims[1], 4);
  EXPECT_EQ(dims[0] * dims[1] * dims[2], 8);
}

TEST(Factorize, RejectsImpossibleFixedDims) {
  std::array<int, 2> dims{3, 0};
  EXPECT_THROW(factor_rank_grid(8, {}, dims), std::invalid_argument);
  std::array<int, 2> all_fixed{2, 2};
  EXPECT_THROW(factor_rank_grid(8, {}, all_fixed), std::invalid_argument);
}

// --- block partition properties --------------------------------------------

template <std::size_t N>
void expect_covers_exactly_once(const BlockPartition<N>& p) {
  const Extent<N> n = p.global();
  // Every global cell: owner_of names a rank, that rank owns it, and the
  // local->global round trip returns the cell. Disjointness: no other rank
  // owns it.
  std::vector<std::size_t> owned_cells(static_cast<std::size_t>(p.size()), 0);
  Index<N> g{};
  for (std::size_t flat = 0; flat < n.volume(); ++flat) {
    std::size_t rest = flat;
    for (std::size_t a = 0; a < N; ++a) {
      g[a] = static_cast<std::ptrdiff_t>(rest % n[a]);
      rest /= n[a];
    }
    const int owner = p.owner_of(g);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, p.size());
    EXPECT_TRUE(p.owns(owner, g));
    owned_cells[static_cast<std::size_t>(owner)]++;
    const Index<N> l = p.to_local(owner, g);
    EXPECT_EQ(p.to_global(owner, l), g);
    for (int r = 0; r < p.size(); ++r) {
      if (r != owner) {
        EXPECT_FALSE(p.owns(r, g));
      }
    }
  }
  // Each rank's rectangular extent accounts for exactly its owned cells, and
  // the extents tile the whole domain.
  std::size_t total = 0;
  for (int r = 0; r < p.size(); ++r) {
    const std::size_t vol = p.local_extent(r).volume();
    EXPECT_EQ(vol, owned_cells[static_cast<std::size_t>(r)]) << "rank " << r;
    total += vol;
  }
  EXPECT_EQ(total, n.volume());
}

TEST(BlockPartition, CoversExactlyOnce2D) {
  for (int ranks = 1; ranks <= 16; ++ranks) {
    // 7 and 5 are coprime to most worlds: plenty of uneven blocks.
    expect_covers_exactly_once(
        BlockPartition<2>::make(Extent<2>{{7, 5}}, ranks));
  }
}

TEST(BlockPartition, CoversExactlyOnce3D) {
  for (int ranks = 1; ranks <= 16; ++ranks) {
    expect_covers_exactly_once(
        BlockPartition<3>::make(Extent<3>{{9, 4, 3}}, ranks));
  }
}

TEST(BlockPartition, CoversExactlyOnceDegenerateAxis) {
  // All ranks forced onto one axis; the other axis is 1 cell wide.
  for (int ranks : {3, 7, 12, 16}) {
    expect_covers_exactly_once(BlockPartition<2>(
        Extent<2>{{37, 1}}, std::array<int, 2>{ranks, 1}));
  }
}

TEST(BlockPartition, UnevenBlocksFrontLoaded) {
  // 10 cells over 4 ranks: 3,3,2,2 with contiguous origins.
  const BlockPartition<1> p(Extent<1>{{10}}, {4});
  EXPECT_EQ(p.local_extent(0)[0], 3u);
  EXPECT_EQ(p.local_extent(1)[0], 3u);
  EXPECT_EQ(p.local_extent(2)[0], 2u);
  EXPECT_EQ(p.local_extent(3)[0], 2u);
  EXPECT_EQ(p.origin(0)[0], 0);
  EXPECT_EQ(p.origin(1)[0], 3);
  EXPECT_EQ(p.origin(2)[0], 6);
  EXPECT_EQ(p.origin(3)[0], 8);
}

template <std::size_t N>
void expect_neighbor_symmetry(const BlockPartition<N>& p) {
  for (int r = 0; r < p.size(); ++r) {
    for (std::size_t a = 0; a < N; ++a) {
      for (int dir : {-1, 1}) {
        const int n = p.neighbor(r, a, dir);
        if (n >= 0) {
          EXPECT_EQ(p.neighbor(n, a, -dir), r)
              << "rank " << r << " axis " << a << " dir " << dir;
        }
      }
    }
  }
}

TEST(BlockPartition, NeighborSymmetry) {
  for (int ranks = 1; ranks <= 16; ++ranks) {
    for (bool periodic : {false, true}) {
      expect_neighbor_symmetry(BlockPartition<3>::make(
          Extent<3>{{12, 12, 12}}, ranks, {periodic, periodic, periodic}));
    }
  }
}

TEST(BlockPartition, NonPeriodicBoundaryHasNoNeighbor) {
  const BlockPartition<2> p(Extent<2>{{8, 8}}, {2, 2}, {false, false});
  EXPECT_EQ(p.neighbor(0, 0, -1), -1);
  EXPECT_EQ(p.neighbor(0, 0, +1), 1);
  EXPECT_EQ(p.neighbor(3, 1, +1), -1);
}

TEST(BlockPartition, PeriodicOneWideAxisIsOwnNeighbor) {
  const BlockPartition<2> p(Extent<2>{{8, 8}}, {1, 1}, {true, true});
  EXPECT_EQ(p.neighbor(0, 0, +1), 0);
  EXPECT_EQ(p.neighbor(0, 1, -1), 0);
}

TEST(BlockPartition, MatchesHandRolledLinearization) {
  // rank = (ck*py + cj)*px + ci — the Decomp2D/Decomp3D convention.
  const BlockPartition<3> p(Extent<3>{{12, 12, 12}}, {3, 2, 2});
  for (int ck = 0; ck < 2; ++ck) {
    for (int cj = 0; cj < 2; ++cj) {
      for (int ci = 0; ci < 3; ++ci) {
        EXPECT_EQ(p.rank_of({ci, cj, ck}), (ck * 2 + cj) * 3 + ci);
      }
    }
  }
}

// --- block-cyclic properties -----------------------------------------------

TEST(BlockCyclic, CoversExactlyOnceAndRoundTrips) {
  for (int ranks : {1, 2, 3, 5, 8, 13, 16}) {
    std::array<int, 2> dims{};
    factor_rank_grid(ranks, {}, dims);
    const BlockCyclicPartition<2> p(Extent<2>{{19, 11}}, dims,
                                    Extent<2>{{3, 2}});
    std::vector<std::size_t> counted(static_cast<std::size_t>(p.size()), 0);
    for (std::size_t gy = 0; gy < 11; ++gy) {
      for (std::size_t gx = 0; gx < 19; ++gx) {
        const Index<2> g{{static_cast<std::ptrdiff_t>(gx),
                          static_cast<std::ptrdiff_t>(gy)}};
        const int owner = p.owner_of(g);
        counted[static_cast<std::size_t>(owner)]++;
        EXPECT_EQ(p.to_global(owner, p.to_local(g)), g);
      }
    }
    std::size_t total = 0;
    for (int r = 0; r < p.size(); ++r) {
      EXPECT_EQ(p.local_extent(r).volume(),
                counted[static_cast<std::size_t>(r)])
          << "ranks=" << ranks << " r=" << r;
      total += p.local_extent(r).volume();
    }
    EXPECT_EQ(total, 19u * 11u);
  }
}

TEST(BlockCyclic, BalancesBetterThanBlockOnSkewedWork) {
  // 16 cells, 4 ranks, blocks of 1: each rank owns every 4th cell.
  const BlockCyclicPartition<1> p(Extent<1>{{16}}, {4}, Extent<1>{{1}});
  for (int r = 0; r < 4; ++r) EXPECT_EQ(p.local_extent(r)[0], 4u);
  EXPECT_EQ(p.axis_owner(0, 0), 0);
  EXPECT_EQ(p.axis_owner(0, 5), 1);
  EXPECT_EQ(p.axis_owner(0, 15), 3);
}

// --- halo schedules ---------------------------------------------------------

template <std::size_t N>
void expect_send_recv_pairing(const BlockPartition<N>& p,
                              const HaloSpec<N>& spec) {
  // Key: (sender, receiver, tag) -> element volume. Every send posted by any
  // rank must be met by exactly one receive of the same volume, and vice
  // versa — otherwise some exchange_halo call would deadlock or mismatch.
  std::map<std::tuple<int, int, int>, std::size_t> sends, recvs;
  for (int r = 0; r < p.size(); ++r) {
    const auto sched = plan_halo(p, r, spec);
    for (const auto& phase : sched.phases) {
      for (const auto& s : phase.sends) {
        auto [it, inserted] =
            sends.emplace(std::make_tuple(r, s.peer, s.tag), s.box.volume());
        EXPECT_TRUE(inserted) << "duplicate send key";
        EXPECT_GE(s.tag, spec.base_tag);
        EXPECT_LT(s.tag, spec.base_tag + 2 * static_cast<int>(N));
      }
      for (const auto& rc : phase.recvs) {
        auto [it, inserted] =
            recvs.emplace(std::make_tuple(rc.peer, r, rc.tag), rc.box.volume());
        EXPECT_TRUE(inserted) << "duplicate recv key";
      }
    }
  }
  EXPECT_EQ(sends.size(), recvs.size());
  for (const auto& [key, vol] : sends) {
    auto it = recvs.find(key);
    ASSERT_NE(it, recvs.end())
        << "unmatched send " << std::get<0>(key) << "->" << std::get<1>(key)
        << " tag " << std::get<2>(key);
    EXPECT_EQ(it->second, vol);
  }
}

/// True when plan_halo accepts every rank of `p`: each block is at least as
/// wide as the ghost width on every axis where it has a neighbor.
template <std::size_t N>
bool blocks_hold_ghosts(const BlockPartition<N>& p, const HaloSpec<N>& spec) {
  for (int r = 0; r < p.size(); ++r) {
    const Extent<N> n = p.local_extent(r);
    for (std::size_t a = 0; a < N; ++a) {
      const bool has_neighbor = p.neighbor(r, a, +1) >= 0 || p.neighbor(r, a, -1) >= 0;
      if (has_neighbor && spec.width[a] > n[a]) return false;
    }
  }
  return true;
}

TEST(HaloSchedule, SendRecvPairingAcrossWorlds) {
  for (int ranks = 1; ranks <= 16; ++ranks) {
    for (bool periodic : {false, true}) {
      const auto p = BlockPartition<2>::make(Extent<2>{{24, 18}}, ranks,
                                             {periodic, periodic});
      const HaloSpec<2> spec{Extent<2>{{2, 2}}, 100};
      if (!blocks_hold_ghosts(p, spec)) {
        // 13 ranks split the 24 columns 13 ways: two blocks are 1 wide, less
        // than the 2-wide ghosts, so planning must refuse that world.
        EXPECT_EQ(ranks, 13);
        EXPECT_THROW(
            for (int r = 0; r < p.size(); ++r) static_cast<void>(plan_halo(p, r, spec)),
            std::invalid_argument);
        continue;
      }
      expect_send_recv_pairing(p, spec);
    }
  }
}

TEST(HaloSchedule, SendRecvPairing4D) {
  for (int ranks : {1, 2, 3, 4, 6, 8, 12, 16}) {
    const auto p = BlockPartition<4>::make(Extent<4>{{8, 8, 8, 16}}, ranks,
                                           {true, true, true, true});
    expect_send_recv_pairing(p, HaloSpec<4>{Extent<4>{{1, 1, 1, 1}}, 0});
  }
}

TEST(HaloSchedule, ZeroWidthAxisHasNoPhase) {
  const BlockPartition<2> p(Extent<2>{{8, 8}}, {2, 2}, {true, true});
  const auto sched = plan_halo(p, 0, HaloSpec<2>{Extent<2>{{2, 0}}, 0});
  ASSERT_EQ(sched.phases.size(), 1u);
  EXPECT_EQ(sched.phases[0].axis, 0u);
}

TEST(HaloSchedule, NonPeriodicEdgeRankSkipsBoundaryFaces) {
  const BlockPartition<1> p(Extent<1>{{8}}, {2}, {false});
  const auto sched = plan_halo(p, 0, HaloSpec<1>{Extent<1>{{1}}, 0});
  ASSERT_EQ(sched.phases.size(), 1u);
  EXPECT_EQ(sched.phases[0].sends.size(), 1u);  // only the + face exists
  EXPECT_EQ(sched.phases[0].recvs.size(), 1u);
  EXPECT_EQ(sched.phases[0].sends[0].peer, 1);
}

TEST(HaloSchedule, RejectsGhostWidthAboveLocalExtent) {
  // A self-peer face: a 1-rank periodic axis, 3 cells, ghosts 4 deep.
  const BlockPartition<1> self(Extent<1>{{3}}, {1}, {true});
  EXPECT_THROW(static_cast<void>(plan_halo(self, 0, HaloSpec<1>{Extent<1>{{4}}, 0})),
               std::invalid_argument);
  EXPECT_NO_THROW(static_cast<void>(plan_halo(self, 0, HaloSpec<1>{Extent<1>{{3}}, 0})));
  // Cross-rank faces: 2 ranks of 1 cell each, ghosts 2 deep.
  const BlockPartition<1> pair(Extent<1>{{2}}, {2}, {false});
  EXPECT_THROW(static_cast<void>(plan_halo(pair, 0, HaloSpec<1>{Extent<1>{{2}}, 0})),
               std::invalid_argument);
  // No neighbor on the axis, so no face: any width plans (to nothing).
  const BlockPartition<1> alone(Extent<1>{{1}}, {1}, {false});
  const auto sched = plan_halo(alone, 0, HaloSpec<1>{Extent<1>{{2}}, 0});
  EXPECT_TRUE(sched.phases.empty());
}

// --- layout -----------------------------------------------------------------

TEST(TileLayout, MatchesGridFunctionsAddressing) {
  // 3D, ghost 2: offset(k,j,i) = (k+2)*sz + (j+2)*sy + (i+2), sy = nx+4.
  const auto l = TileLayout<3>::make(Extent<3>{{6, 5, 4}}, Extent<3>{{2, 2, 2}});
  const std::size_t sy = 6 + 4, sz = sy * (5 + 4);
  EXPECT_EQ(l.offset(Index<3>{{0, 0, 0}}), 2 * sz + 2 * sy + 2);
  EXPECT_EQ(l.offset(Index<3>{{-2, -2, -2}}), 0u);
  EXPECT_EQ(l.offset(Index<3>{{3, 1, 2}}), 4 * sz + 3 * sy + 5);
  EXPECT_EQ(l.total(), (6 + 4) * (5 + 4) * (4 + 4));
}

// --- end-to-end exchange over simrt ----------------------------------------

// Value encoding a global cell so any rank can predict any other rank's data.
double cell_value(std::ptrdiff_t gx, std::ptrdiff_t gy, std::size_t plane) {
  return static_cast<double>(plane) * 1.0e6 + static_cast<double>(gy) * 1.0e3 +
         static_cast<double>(gx);
}

TEST(ExchangeHalo, PeriodicGhostsCarryWrappedGlobalValues) {
  constexpr std::size_t kNx = 12, kNy = 10, kPlanes = 3;
  for (int ranks : {1, 2, 3, 4, 6, 8, 12}) {
    const auto p = BlockPartition<2>::make(Extent<2>{{kNx, kNy}}, ranks,
                                           {true, true});
    simrt::run(ranks, [&](simrt::Communicator& comm) {
      const int rank = comm.rank();
      const Extent<2> n = p.local_extent(rank);
      const Index<2> o = p.origin(rank);
      const HaloSpec<2> spec{Extent<2>{{2, 2}}, 500};
      const auto layout = TileLayout<2>::make(n, spec.width);
      std::vector<std::vector<double>> storage(
          kPlanes, std::vector<double>(layout.total(), -1.0));
      std::vector<double*> planes;
      for (auto& s : storage) planes.push_back(s.data());
      for (std::size_t pl = 0; pl < kPlanes; ++pl) {
        for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(n[1]); ++j) {
          for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n[0]); ++i) {
            storage[pl][layout.offset(Index<2>{{i, j}})] =
                cell_value(o[0] + i, o[1] + j, pl);
          }
        }
      }

      const auto sched = plan_halo(p, rank, spec);
      exchange_halo(comm, sched, layout, planes);

      // Every cell of the ghost-extended tile must now hold the value of its
      // periodically wrapped global cell.
      for (std::size_t pl = 0; pl < kPlanes; ++pl) {
        for (std::ptrdiff_t j = -2; j < static_cast<std::ptrdiff_t>(n[1]) + 2; ++j) {
          for (std::ptrdiff_t i = -2; i < static_cast<std::ptrdiff_t>(n[0]) + 2; ++i) {
            const auto wrap = [](std::ptrdiff_t v, std::size_t m) {
              const auto sm = static_cast<std::ptrdiff_t>(m);
              return ((v % sm) + sm) % sm;
            };
            const double want =
                cell_value(wrap(o[0] + i, kNx), wrap(o[1] + j, kNy), pl);
            const double got = storage[pl][layout.offset(Index<2>{{i, j}})];
            ASSERT_EQ(got, want) << "ranks=" << ranks << " rank=" << rank
                                 << " plane=" << pl << " (" << i << "," << j
                                 << ")";
          }
        }
      }
    });
  }
}

TEST(ExchangeHalo, NonPeriodicBoundaryGhostsUntouched) {
  constexpr std::size_t kN = 9;
  const int ranks = 4;
  const auto p =
      BlockPartition<2>::make(Extent<2>{{kN, kN}}, ranks, {false, false});
  simrt::run(ranks, [&](simrt::Communicator& comm) {
    const int rank = comm.rank();
    const Extent<2> n = p.local_extent(rank);
    const Index<2> o = p.origin(rank);
    const HaloSpec<2> spec{Extent<2>{{1, 1}}, 0};
    const auto layout = TileLayout<2>::make(n, spec.width);
    std::vector<double> data(layout.total(), -7.0);
    for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(n[1]); ++j) {
      for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n[0]); ++i) {
        data[layout.offset(Index<2>{{i, j}})] = cell_value(o[0] + i, o[1] + j, 0);
      }
    }
    double* plane = data.data();
    exchange_halo(comm, plan_halo(p, rank, spec), layout,
                  std::span<double* const>(&plane, 1));

    for (std::ptrdiff_t j = -1; j < static_cast<std::ptrdiff_t>(n[1]) + 1; ++j) {
      for (std::ptrdiff_t i = -1; i < static_cast<std::ptrdiff_t>(n[0]) + 1; ++i) {
        const std::ptrdiff_t gx = o[0] + i, gy = o[1] + j;
        const bool outside = gx < 0 || gy < 0 ||
                             gx >= static_cast<std::ptrdiff_t>(kN) ||
                             gy >= static_cast<std::ptrdiff_t>(kN);
        const double got = data[layout.offset(Index<2>{{i, j}})];
        if (outside) {
          EXPECT_EQ(got, -7.0) << "domain-boundary ghost was written";
        } else {
          EXPECT_EQ(got, cell_value(gx, gy, 0));
        }
      }
    }
  });
}

TEST(ExchangeHalo, SelfExchangeOnSingleRankPeriodicWorld) {
  // P=1 with periodic axes: the rank is its own neighbor in every direction
  // and the exchange must wrap its own data into its ghosts.
  const BlockPartition<2> p(Extent<2>{{6, 4}}, {1, 1}, {true, true});
  simrt::run(1, [&](simrt::Communicator& comm) {
    const HaloSpec<2> spec{Extent<2>{{1, 1}}, 42};
    const auto layout = TileLayout<2>::make(Extent<2>{{6, 4}}, spec.width);
    std::vector<double> data(layout.total(), -1.0);
    for (std::ptrdiff_t j = 0; j < 4; ++j) {
      for (std::ptrdiff_t i = 0; i < 6; ++i) {
        data[layout.offset(Index<2>{{i, j}})] = cell_value(i, j, 0);
      }
    }
    double* plane = data.data();
    exchange_halo(comm, plan_halo(p, 0, spec), layout,
                  std::span<double* const>(&plane, 1));
    EXPECT_EQ(data[layout.offset(Index<2>{{-1, 0}})], cell_value(5, 0, 0));
    EXPECT_EQ(data[layout.offset(Index<2>{{6, 0}})], cell_value(0, 0, 0));
    EXPECT_EQ(data[layout.offset(Index<2>{{0, -1}})], cell_value(0, 3, 0));
    EXPECT_EQ(data[layout.offset(Index<2>{{-1, -1}})], cell_value(5, 3, 0));
  });
}

/// Linear global index of `g` in `global`, axis 0 fastest.
template <std::size_t N>
double global_code(const Index<N>& g, const Extent<N>& global, std::size_t plane) {
  double code = 0.0;
  for (std::size_t a = N; a-- > 0;) {
    code = code * static_cast<double>(global[a]) + static_cast<double>(g[a]);
  }
  return static_cast<double>(plane) * 1.0e6 + code;
}

constexpr std::size_t kWrapPlanes = 2;

/// Fill the interior of kWrapPlanes planes with global_code, the ghosts with
/// -1, run one exchange, and check that every cell of the ghost-extended
/// tile holds the code of its periodically wrapped global cell. Returns the
/// communication calls the exchange made.
template <std::size_t N>
std::uint64_t exchange_checks_wrapped(simrt::Communicator& comm,
                                      const BlockPartition<N>& p,
                                      const HaloSpec<N>& spec) {
  const int rank = comm.rank();
  const Extent<N> n = p.local_extent(rank);
  const Index<N> o = p.origin(rank);
  const auto layout = TileLayout<N>::make(n, spec.width);
  Box<N> interior, tile;
  for (std::size_t a = 0; a < N; ++a) {
    interior.hi[a] = static_cast<std::ptrdiff_t>(n[a]);
    tile.lo[a] = -static_cast<std::ptrdiff_t>(spec.width[a]);
    tile.hi[a] = static_cast<std::ptrdiff_t>(n[a] + spec.width[a]);
  }
  // Wrapped global index of local index `l` (row start) shifted by i on axis 0.
  const auto wrapped = [&](Index<N> l, std::ptrdiff_t i) {
    l[0] += i;
    for (std::size_t a = 0; a < N; ++a) {
      const auto m = static_cast<std::ptrdiff_t>(p.global()[a]);
      l[a] = ((o[a] + l[a]) % m + m) % m;
    }
    return l;
  };

  std::vector<std::vector<double>> storage(kWrapPlanes,
                                           std::vector<double>(layout.total(), -1.0));
  std::vector<double*> planes;
  for (auto& st : storage) planes.push_back(st.data());
  for (std::size_t pl = 0; pl < kWrapPlanes; ++pl) {
    detail::for_each_row<N>(interior, [&](const Index<N>& row, std::size_t len) {
      for (std::size_t i = 0; i < len; ++i) {
        storage[pl][layout.offset(row) + i] = global_code<N>(
            wrapped(row, static_cast<std::ptrdiff_t>(i)), p.global(), pl);
      }
    });
  }

  const auto sched = plan_halo(p, rank, spec);
  const std::uint64_t calls_before = comm.comm_calls();
  exchange_halo(comm, sched, layout, planes);
  const std::uint64_t calls = comm.comm_calls() - calls_before;

  for (std::size_t pl = 0; pl < kWrapPlanes; ++pl) {
    detail::for_each_row<N>(tile, [&](const Index<N>& row, std::size_t len) {
      for (std::size_t i = 0; i < len; ++i) {
        const double want = global_code<N>(
            wrapped(row, static_cast<std::ptrdiff_t>(i)), p.global(), pl);
        EXPECT_EQ(storage[pl][layout.offset(row) + i], want)
            << "rank " << rank << " plane " << pl << " row axis-1 index " << row[1]
            << " x " << row[0] + static_cast<std::ptrdiff_t>(i);
      }
    });
  }
  return calls;
}

TEST(ExchangeHalo, SelfPeerFacesMoveWithoutMessages) {
  auto& halo_bytes = trace::Metrics::instance().counter("part.halo_bytes");

  // P=1, 4D, width 1: every face is self-peer, so the exchange makes no
  // communication call at all, yet counts all 8 faces as halo bytes.
  const BlockPartition<4> one(Extent<4>{{4, 3, 2, 5}}, {1, 1, 1, 1},
                              {true, true, true, true});
  const HaloSpec<4> spec4{Extent<4>{{1, 1, 1, 1}}, 300};
  std::uint64_t before = halo_bytes.value();
  simrt::run(1, [&](simrt::Communicator& comm) {
    EXPECT_EQ(exchange_checks_wrapped(comm, one, spec4), 0u);
  });
  EXPECT_EQ(halo_bytes.value() - before,
            kWrapPlanes * sizeof(double) *
                plan_halo(one, 0, spec4).send_elements_per_plane());

  // P=2 on a 1x2 grid, 2D, width 2: axis 0 is self-peer (copied), axis 1
  // crosses ranks (2 irecv + 2 isend per rank).
  const BlockPartition<2> two(Extent<2>{{6, 8}}, {1, 2}, {true, true});
  const HaloSpec<2> spec2{Extent<2>{{2, 2}}, 400};
  before = halo_bytes.value();
  simrt::run(2, [&](simrt::Communicator& comm) {
    EXPECT_EQ(exchange_checks_wrapped(comm, two, spec2), 4u);
  });
  std::uint64_t elements = 0;
  for (int r = 0; r < 2; ++r) {
    elements += plan_halo(two, r, spec2).send_elements_per_plane();
  }
  EXPECT_EQ(halo_bytes.value() - before, kWrapPlanes * sizeof(double) * elements);
}

}  // namespace
}  // namespace vpar::part
