#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "cactus/evolve.hpp"
#include "fft/fft_multi.hpp"
#include "gtc/simulation.hpp"
#include "lbmhd/simulation.hpp"
#include "simrt/parallel.hpp"
#include "simrt/runtime.hpp"
#include "trace/trace.hpp"

namespace vpar::simrt {
namespace {

using namespace std::chrono_literals;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Forces a hybrid mode for one test and restores the previous one on exit.
/// The host running the suite may have a single core, where Auto would never
/// engage — correctness of the concurrent path must not depend on that.
struct ModeGuard {
  HybridMode previous = hybrid_threading();
  explicit ModeGuard(HybridMode mode) { set_hybrid_threading(mode); }
  ~ModeGuard() { set_hybrid_threading(previous); }
};

/// Grow the shared pool so jobs smaller than 8 ranks have idle helpers.
void warm_pool() {
  run(8, [](Communicator&) {});
}

// --- serial semantics --------------------------------------------------------

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  int calls = 0;
  parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for(7, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, GrainLargerThanRangeIsOneChunk) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(2, 5, 100, [&](std::size_t lo, std::size_t hi) {
    chunks.emplace_back(lo, hi);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 5u);
}

TEST(ParallelFor, SerialChunksCoverEveryIterationOnce) {
  std::vector<int> counts(103, 0);
  parallel_for(0, counts.size(), 7, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++counts[i];
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], 1) << "iteration " << i;
  }
}

TEST(ParallelFor, WidthIsOneOutsideTheRuntime) {
  EXPECT_EQ(parallel_width(), 1);
}

// --- hybrid engagement -------------------------------------------------------

TEST(ParallelFor, WidthSeesIdleHelpersInsideARank) {
  ModeGuard guard(HybridMode::On);
  {
    // Helpers come from the Executor running the job, not the shared pool:
    // a 1-rank job on a private pool of 4 has three idle workers to ask.
    Executor executor;
    executor.run(4, [](Communicator&) {});
    int width = 0;
    executor.run(1, [&](Communicator&) { width = parallel_width(); });
    EXPECT_EQ(width, 4);
  }

  warm_pool();
  int width = 0;
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) width = parallel_width();
  });
  // Pool of 8, job of 2: the caller plus six idle helpers.
  EXPECT_GE(width, 2);

  set_hybrid_threading(HybridMode::Off);
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) width = parallel_width();
  });
  EXPECT_EQ(width, 1);
}

// Workers that ran ranks of one job park where the loops of a later, smaller
// job reach them: a 1-rank job after a 4-rank job is helped by all three.
TEST(ParallelFor, WorkersThatRanRanksHelpALaterSmallerJob) {
  ModeGuard guard(HybridMode::On);
  Executor executor;
  executor.run(4, [](Communicator&) {});
  std::atomic<int> arrived{0};
  const RunResult result = executor.run(1, [&](Communicator&) {
    parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
      // The first chunk holds its thread until a second thread claims the
      // other one; it gives up after a while so a missing helper fails the
      // test instead of hanging it.
      arrived.fetch_add(1);
      const auto give_up = std::chrono::steady_clock::now() + 10s;
      while (arrived.load() < 2 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
  });
  EXPECT_GT(result.merged.helper_chunks(), 0.0);
}

// Rank 0 runs on the thread that called run(), so a nested run inside it
// must hand that thread's own context back: the loop-service state that
// parallel_width reads and the trace rank.
TEST(ParallelFor, NestedRunRestoresTheCallersContext) {
  ModeGuard guard(HybridMode::On);
  warm_pool();
  int width_before = 0, width_after = 0, inner_width = 0;
  int rank_before = -2, rank_after = -2, inner_rank = -2;
  run(2, [&](Communicator& comm) {
    if (comm.rank() != 0) return;
    width_before = parallel_width();
    rank_before = trace::thread_rank();
    run(1, [&](Communicator&) {
      inner_width = parallel_width();
      inner_rank = trace::thread_rank();
    });
    width_after = parallel_width();
    rank_after = trace::thread_rank();
  });
  EXPECT_GE(width_before, 2);  // pool of 7, job of 2: helpers are idle
  EXPECT_EQ(width_after, width_before);
  EXPECT_EQ(rank_before, 0);
  EXPECT_EQ(rank_after, 0);
  EXPECT_EQ(inner_width, 1);  // the nested job's private pool has no helpers
  EXPECT_EQ(inner_rank, 0);
  // The caller itself is outside any rank again.
  EXPECT_EQ(parallel_width(), 1);
  EXPECT_EQ(trace::thread_rank(), -1);
}

TEST(ParallelFor, HelpersServeChunksAndAttributeToOwningRank) {
  ModeGuard guard(HybridMode::On);
  warm_pool();
  std::array<std::thread::id, 2> served;
  // A latch the two chunks meet at: the test deadlocks (and the watchdog
  // below would catch it) unless two distinct threads are inside the body
  // simultaneously, so a pass proves a helper really participated.
  std::latch rendezvous(2);
  const RunResult result = run(1, [&](Communicator&) {
    parallel_for(0, 2, 1, [&](std::size_t lo, std::size_t) {
      served[lo] = std::this_thread::get_id();
      rendezvous.arrive_and_wait();
    });
  });
  EXPECT_NE(served[0], served[1]);
  // The helper's loop records are merged into the owning rank's recorder and
  // tagged as helper-served chunks (the perf attribution path).
  EXPECT_GE(result.merged.helper_chunks(), 1.0);
}

TEST(ParallelFor, NestedCallsDegradeToSerialInsideAChunk) {
  ModeGuard guard(HybridMode::On);
  warm_pool();
  std::vector<std::atomic<int>> counts(64);
  run(1, [&](Communicator&) {
    parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        parallel_for(0, 8, 1, [&](std::size_t jlo, std::size_t jhi) {
          for (std::size_t j = jlo; j < jhi; ++j) {
            counts[i * 8 + j].fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    });
  });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

// --- errors and aborts -------------------------------------------------------

TEST(ParallelFor, ChunkExceptionPropagatesToTheOwningRank) {
  ModeGuard guard(HybridMode::On);
  warm_pool();
  try {
    run(2, [](Communicator& comm) {
      if (comm.rank() == 1) {
        parallel_for(0, 64, 4, [](std::size_t lo, std::size_t) {
          if (lo >= 32) throw std::runtime_error("chunk boom");
        });
      }
    });
    FAIL() << "chunk exception was swallowed";
  } catch (const RankError& e) {
    EXPECT_TRUE(contains(e.what(), "rank 1")) << e.what();
    EXPECT_TRUE(contains(e.what(), "chunk boom")) << e.what();
  }
  // The pool survives a failed loop: the next job runs normally.
  const RunResult after = run(4, [](Communicator&) {});
  EXPECT_EQ(after.size(), 4);
}

TEST(ParallelFor, SerialPathPropagatesExceptionsToo) {
  ModeGuard guard(HybridMode::Off);
  try {
    run(1, [](Communicator&) {
      parallel_for(0, 10, 3, [](std::size_t lo, std::size_t) {
        if (lo == 3) throw std::runtime_error("serial boom");
      });
    });
    FAIL() << "chunk exception was swallowed";
  } catch (const RankError& e) {
    EXPECT_TRUE(contains(e.what(), "serial boom")) << e.what();
  }
}

TEST(ParallelFor, WatchdogFiresWhileOwnerWaitsOnAStuckHelper) {
  ModeGuard guard(HybridMode::On);
  warm_pool();
  std::atomic<bool> release{false};
  std::latch rendezvous(2);
  // Un-stick the helper well after the watchdog deadline so the job can
  // drain and rethrow; the body itself must never hang the suite.
  std::thread unsticker([&] {
    std::this_thread::sleep_for(1200ms);
    release.store(true);
  });
  RunOptions options;
  options.size = 1;
  options.watchdog = 250ms;
  const auto start = std::chrono::steady_clock::now();
  try {
    run(options, [&](Communicator&) {
      const std::thread::id owner = std::this_thread::get_id();
      parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
        rendezvous.arrive_and_wait();
        // Whichever participant is not the owning rank stalls; the owner
        // returns and blocks in the completion latch, which the watchdog
        // must see as a registered blocking wait.
        if (std::this_thread::get_id() != owner) {
          while (!release.load()) std::this_thread::sleep_for(1ms);
        }
      });
    });
    FAIL() << "stuck loop returned";
  } catch (const WatchdogTimeout& e) {
    EXPECT_TRUE(contains(e.what(), "parallel_for")) << e.what();
  }
  unsticker.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 10s);
  const RunResult after = run(2, [](Communicator&) {});
  EXPECT_EQ(after.size(), 2);
}

// A RunOptions::watchdog too long for nanoseconds saturates. It used to wrap
// to a sub-millisecond timeout that aborted this healthy job while its owner
// waited in the loop latch for a helper's 60 ms chunk.
TEST(ParallelFor, HugeWatchdogDoesNotAbortAHealthyJob) {
  ModeGuard guard(HybridMode::On);
  Executor executor;
  executor.run(2, [](Communicator&) {});  // one idle helper for a 1-rank job
  std::latch rendezvous(2);
  RunOptions options;
  options.size = 1;
  options.watchdog = std::chrono::milliseconds(18'446'744'073'710);
  const RunResult result = executor.run(options, [&](Communicator&) {
    const std::thread::id owner = std::this_thread::get_id();
    parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
      rendezvous.arrive_and_wait();
      if (std::this_thread::get_id() != owner) std::this_thread::sleep_for(60ms);
    });
  });
  EXPECT_EQ(result.size(), 1);
  EXPECT_GE(result.merged.helper_chunks(), 1.0);
}

// --- environment parser ------------------------------------------------------

TEST(EnvParsers, HybridModeAcceptsItsFiveSpellings) {
  EXPECT_EQ(detail::hybrid_mode_from_env(nullptr), HybridMode::Auto);
  EXPECT_EQ(detail::hybrid_mode_from_env(""), HybridMode::Auto);
  EXPECT_EQ(detail::hybrid_mode_from_env("auto"), HybridMode::Auto);
  EXPECT_EQ(detail::hybrid_mode_from_env("on"), HybridMode::On);
  EXPECT_EQ(detail::hybrid_mode_from_env("1"), HybridMode::On);
  EXPECT_EQ(detail::hybrid_mode_from_env("off"), HybridMode::Off);
  EXPECT_EQ(detail::hybrid_mode_from_env("0"), HybridMode::Off);
}

TEST(EnvParsers, HybridModeRejectsTyposAndNamesTheAcceptedValues) {
  for (const char* bad : {"of", "ON", "yes", "2", " on", "on "}) {
    try {
      (void)detail::hybrid_mode_from_env(bad);
      ADD_FAILURE() << "accepted VPAR_HYBRID='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(contains(e.what(), "auto|on|off|1|0")) << e.what();
    }
  }
}

// --- bitwise-identical application results ----------------------------------
//
// The chunk-boundary guarantee in action: every ported kernel must produce
// the same bits with helpers on and off, because only chunk *assignment*
// varies. Each case runs the same simulation twice and compares raw state.

std::vector<std::vector<double>> lbmhd_fields(HybridMode mode) {
  ModeGuard guard(mode);
  warm_pool();
  std::vector<std::vector<double>> fields(2);
  run(2, [&](Communicator& comm) {
    lbmhd::Options options;
    options.nx = 32;
    options.ny = 16;
    options.px = 2;
    options.py = 1;
    options.collision = lbmhd::Options::Collision::Flat;
    lbmhd::Simulation sim(comm, options);
    sim.initialize(lbmhd::orszag_tang_ic());
    sim.run(3);
    fields[comm.rank()] = sim.save_state().fields;
  });
  return fields;
}

TEST(HybridIdentical, LbmhdCollisionBitwise) {
  const auto serial = lbmhd_fields(HybridMode::Off);
  const auto hybrid = lbmhd_fields(HybridMode::On);
  ASSERT_EQ(serial.size(), hybrid.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r], hybrid[r]) << "rank " << r;
  }
}

std::vector<double> cactus_field(HybridMode mode, cactus::RhsVariant variant) {
  ModeGuard guard(mode);
  warm_pool();
  std::vector<double> gathered;
  run(2, [&](Communicator& comm) {
    cactus::Options options;
    options.nx = 16;
    options.ny = 8;
    options.nz = 8;
    options.px = 2;
    options.rhs_variant = variant;
    cactus::Evolution evolution(comm, options);
    evolution.initialize(cactus::plane_wave_id(0.01, 2.0 * M_PI / 8.0));
    evolution.run(2);
    auto g = evolution.gather(0);
    if (comm.rank() == 0) gathered = std::move(g);
  });
  return gathered;
}

TEST(HybridIdentical, CactusAdmSweepBitwise) {
  for (const auto variant :
       {cactus::RhsVariant::Vector, cactus::RhsVariant::Blocked}) {
    const auto serial = cactus_field(HybridMode::Off, variant);
    const auto hybrid = cactus_field(HybridMode::On, variant);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, hybrid);
  }
}

gtc::ParticleSet gtc_particles(HybridMode mode) {
  ModeGuard guard(mode);
  warm_pool();
  gtc::ParticleSet out;
  run(2, [&](Communicator& comm) {
    gtc::Options options;
    options.ngx = 16;
    options.ngy = 16;
    options.nplanes = 4;
    options.particles_per_cell = 4;
    options.deposit = gtc::DepositVariant::Hybrid;
    gtc::Simulation sim(comm, options);
    sim.load_particles();
    sim.run(3);
    if (comm.rank() == 0) out = sim.save_state().particles;
  });
  return out;
}

TEST(HybridIdentical, GtcPushAndDepositionBitwise) {
  const auto serial = gtc_particles(HybridMode::Off);
  const auto hybrid = gtc_particles(HybridMode::On);
  ASSERT_GT(serial.size(), 0u);
  // Deterministic per-chunk accumulators folded in fixed chunk order: the
  // deposition (and the fields pushed from it) must not depend on which
  // thread served which chunk.
  EXPECT_EQ(serial.x, hybrid.x);
  EXPECT_EQ(serial.y, hybrid.y);
  EXPECT_EQ(serial.zeta, hybrid.zeta);
  EXPECT_EQ(serial.vpar, hybrid.vpar);
  EXPECT_EQ(serial.rho, hybrid.rho);
  EXPECT_EQ(serial.q, hybrid.q);
}

/// phi, ex and ey of every owned plane after one solve_poisson on a
/// seeded charge, in a 1-rank job (at least 3 idle helpers once the pool is
/// warmed to 4, when `mode` is On); `efield_alone` recomputes E from that
/// phi with compute_efield on its own. 16 x 12 planes: rows take the
/// radix-2 batch, columns Bluestein.
struct PoissonFields {
  std::vector<double> phi, ex, ey, efield_alone_ex, efield_alone_ey;
  int width = 0;
};

PoissonFields gtc_poisson(HybridMode mode) {
  ModeGuard guard(mode);
  run(4, [](Communicator&) {});
  PoissonFields out;
  run(1, [&](Communicator& comm) {
    out.width = parallel_width();
    gtc::TorusGrid grid(16, 12, 8, comm.size(), comm.rank());
    for (std::size_t i = 0; i < grid.charge().size(); ++i) {
      grid.charge()[i] = std::sin(0.37 * static_cast<double>(i)) +
                         0.25 * std::cos(1.3 * static_cast<double>(i % 29));
    }
    gtc::solve_poisson(grid);
    const std::size_t owned = grid.plane_size() * static_cast<std::size_t>(grid.planes_local());
    out.phi = grid.phi();
    out.ex.assign(grid.ex_plane(0), grid.ex_plane(0) + owned);
    out.ey.assign(grid.ey_plane(0), grid.ey_plane(0) + owned);
    std::fill_n(grid.ex_plane(0), owned, 0.0);
    std::fill_n(grid.ey_plane(0), owned, 0.0);
    gtc::compute_efield(grid);
    out.efield_alone_ex.assign(grid.ex_plane(0), grid.ex_plane(0) + owned);
    out.efield_alone_ey.assign(grid.ey_plane(0), grid.ey_plane(0) + owned);
  });
  return out;
}

TEST(HybridIdentical, GtcPoissonSolveBitwise) {
  const PoissonFields serial = gtc_poisson(HybridMode::Off);
  const PoissonFields hybrid = gtc_poisson(HybridMode::On);
  EXPECT_EQ(serial.width, 1);
  EXPECT_GE(hybrid.width, 4);  // the rank plus 3 helpers or more
  ASSERT_FALSE(serial.phi.empty());
  // One chunk per plane writes its phi and then its E: which thread served a
  // plane must not matter, and neither may solving E apart from phi.
  EXPECT_EQ(serial.phi, hybrid.phi);
  EXPECT_EQ(serial.ex, hybrid.ex);
  EXPECT_EQ(serial.ey, hybrid.ey);
  EXPECT_EQ(serial.efield_alone_ex, serial.ex);
  EXPECT_EQ(serial.efield_alone_ey, serial.ey);
  EXPECT_EQ(hybrid.efield_alone_ex, hybrid.ex);
  EXPECT_EQ(hybrid.efield_alone_ey, hybrid.ey);
}

std::vector<fft::Complex> fft_batch(HybridMode mode) {
  ModeGuard guard(mode);
  warm_pool();
  constexpr std::size_t n = 64;
  constexpr std::size_t count = 12;
  std::vector<fft::Complex> data(n * count);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = {std::sin(0.37 * static_cast<double>(i)),
               std::cos(0.11 * static_cast<double>(i))};
  }
  run(1, [&](Communicator&) {
    fft::MultiFft1d plan(n);
    plan.simultaneous(data, count);
    plan.simultaneous(data, count, /*invert=*/true);
  });
  return data;
}

TEST(HybridIdentical, MultiFftBatchBitwise) {
  const auto serial = fft_batch(HybridMode::Off);
  const auto hybrid = fft_batch(HybridMode::On);
  ASSERT_EQ(serial.size(), hybrid.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].real(), hybrid[i].real()) << i;
    EXPECT_EQ(serial[i].imag(), hybrid[i].imag()) << i;
  }
}

std::vector<double> gemm_result(HybridMode mode) {
  ModeGuard guard(mode);
  warm_pool();
  constexpr std::size_t m = 150, n = 33, k = 41;  // several 64-row blocks
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = std::sin(0.13 * static_cast<double>(i));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::cos(0.29 * static_cast<double>(i));
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = 0.01 * static_cast<double>(i % 17);
  run(1, [&](Communicator&) {
    blas::gemm(blas::Trans::None, blas::Trans::None, m, n, k, 1.25, a.data(), k,
               b.data(), n, 0.5, c.data(), n);
  });
  return c;
}

TEST(HybridIdentical, GemmRowBlocksBitwise) {
  const auto serial = gemm_result(HybridMode::Off);
  const auto hybrid = gemm_result(HybridMode::On);
  EXPECT_EQ(serial, hybrid);
}

// --- stress (run under TSan by scripts/check.sh) -----------------------------

TEST(HybridStress, ManyLoopsAcrossActiveRanks) {
  ModeGuard guard(HybridMode::On);
  warm_pool();
  // Three active ranks all issuing loops while five helpers steal chunks:
  // the shape TSan needs to see to vet the chunk server, the completion
  // latch, and the recorder-partial merges.
  for (int round = 0; round < 4; ++round) {
    const RunResult result = run(3, [&](Communicator& comm) {
      std::vector<double> local(1024, 0.0);
      for (int iter = 0; iter < 8; ++iter) {
        parallel_for(0, local.size(), 64, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) local[i] += 1.0;
        });
      }
      double sum = 0.0;
      for (const double v : local) sum += v;
      if (sum != 8.0 * 1024.0) throw std::runtime_error("lost an iteration");
      comm.barrier();
    });
    EXPECT_EQ(result.size(), 3);
  }
}

}  // namespace
}  // namespace vpar::simrt
