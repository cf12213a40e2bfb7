#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simrt/runtime.hpp"

namespace vpar::simrt {
namespace {

// The pool must hand every run() a clean set of recorders: counts from one
// job leaking into the next would corrupt every paper table built on top.
TEST(Executor, RecordersResetBetweenRuns) {
  auto job = [](Communicator& comm) {
    if (comm.rank() == 0) {
      const int v = 1;
      comm.send<int>(1, std::span<const int>(&v, 1), 0);
    } else {
      int v = 0;
      comm.recv<int>(0, std::span<int>(&v, 1), 0);
    }
  };
  const RunResult r1 = run(2, job);
  const RunResult r2 = run(2, job);
  EXPECT_DOUBLE_EQ(r1.merged.comm().messages(perf::CommKind::PointToPoint), 1.0);
  EXPECT_DOUBLE_EQ(r2.merged.comm().messages(perf::CommKind::PointToPoint), 1.0);
  ASSERT_EQ(r2.size(), 2);
  EXPECT_DOUBLE_EQ(
      r2.per_rank[0].comm().messages(perf::CommKind::PointToPoint) +
          r2.per_rank[1].comm().messages(perf::CommKind::PointToPoint),
      1.0);
}

TEST(Executor, WorkersGrowToLargestJobAndStay) {
  // The caller runs rank 0, so a P-rank job needs P - 1 pooled workers.
  Executor ex;
  ex.run(2, [](Communicator&) {});
  EXPECT_EQ(ex.workers(), 1);
  ex.run(5, [](Communicator&) {});
  EXPECT_EQ(ex.workers(), 4);
  // Smaller jobs reuse the pool; idle workers sleep through them.
  std::atomic<int> visits{0};
  ex.run(3, [&](Communicator&) { visits.fetch_add(1); });
  EXPECT_EQ(ex.workers(), 4);
  EXPECT_EQ(visits.load(), 3);
}

// The caller runs rank 0 itself, like a process running its own rank: a
// 1-rank job needs no worker at all, and the other ranks get one each.
TEST(Executor, RankZeroRunsOnTheCallingThread) {
  Executor ex;
  std::array<std::thread::id, 3> ids;
  ex.run(3, [&](Communicator& comm) {
    ids[static_cast<std::size_t>(comm.rank())] = std::this_thread::get_id();
  });
  EXPECT_EQ(ids[0], std::this_thread::get_id());
  EXPECT_NE(ids[1], ids[0]);
  EXPECT_NE(ids[2], ids[0]);
  EXPECT_NE(ids[2], ids[1]);
}

TEST(Executor, OneRankJobStartsNoWorker) {
  Executor ex;
  int visits = 0;
  ex.run(1, [&](Communicator&) { ++visits; });
  EXPECT_EQ(visits, 1);
  EXPECT_EQ(ex.workers(), 0);
}

TEST(Executor, ExceptionDoesNotPoisonPool) {
  EXPECT_THROW(run(4,
                   [](Communicator& comm) {
                     if (comm.rank() == 2) throw std::runtime_error("rank failure");
                   }),
               std::runtime_error);
  // The pool survives and the next job runs with fresh state.
  const RunResult r = run(4, [](Communicator& comm) { comm.barrier(); });
  EXPECT_EQ(r.size(), 4);
  EXPECT_DOUBLE_EQ(r.merged.comm().messages(perf::CommKind::Barrier), 4.0);
}

TEST(Executor, FailedJobMessagesDoNotLeakIntoNextRun) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       const int stale = 9;
                       comm.send<int>(1, std::span<const int>(&stale, 1), 0);
                     } else {
                       throw std::runtime_error("receiver died");
                     }
                   }),
               std::runtime_error);
  // Same size, same tag: a leaked mailbox entry would be received first
  // (FIFO per source and tag) instead of the fresh value.
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const int fresh = 42;
      comm.send<int>(1, std::span<const int>(&fresh, 1), 0);
    } else {
      int v = 0;
      comm.recv<int>(0, std::span<int>(&v, 1), 0);
      EXPECT_EQ(v, 42);
    }
  });
}

TEST(Executor, PayloadCountersObservable) {
  // Bidirectional rounds so the recycle assertion is independent of which
  // thread happens to free a buffer (queued delivery frees on the receiver,
  // posted-receive handoff on the sender): whoever got round k's block back
  // recycles it when sending in round k+1.
  auto job = [](Communicator& comm) {
    const int peer = 1 - comm.rank();
    std::vector<double> big(4096, 1.0 + comm.rank());
    std::vector<double> small(4, 2.0);  // 32 bytes: inline storage
    for (int round = 0; round < 3; ++round) {
      comm.send<double>(peer, big, round);
      comm.send<double>(peer, small, 100 + round);
      std::vector<double> rbig(big.size());
      comm.recv<double>(peer, std::span<double>(rbig), round);
      std::vector<double> rsmall(small.size());
      comm.recv<double>(peer, std::span<double>(rsmall), 100 + round);
      EXPECT_DOUBLE_EQ(rbig[0], 1.0 + peer);
      EXPECT_EQ(rsmall, small);
      comm.barrier();
    }
  };
  const RunResult r = run(2, job);
  EXPECT_GE(r.merged.comm().payload_inlines(), 6.0);
  EXPECT_GE(r.merged.comm().payload_allocs(), 1.0);
  EXPECT_GE(r.merged.comm().payload_recycles(), 1.0);
}

// Teams larger than the rendezvous cutoff take the dissemination path; the
// two-barrier pattern makes any missed synchronization visible as a torn
// counter read. P = 16 exercises exact power-of-two rounds, P = 12 the
// mod-P wraparound.
void barrier_phase_test(int P) {
  std::atomic<int> counter{0};
  const RunResult r = run(P, [&](Communicator& comm) {
    for (int it = 0; it < 50; ++it) {
      counter.fetch_add(1);
      comm.barrier();  // all increments for this phase are done...
      EXPECT_EQ(counter.load(), P * (it + 1));
      comm.barrier();  // ...and nobody advances until all have read
    }
  });
  EXPECT_DOUBLE_EQ(r.merged.comm().messages(perf::CommKind::Barrier),
                   static_cast<double>(100 * P));
}

TEST(Executor, DisseminationBarrierPowerOfTwoTeam) { barrier_phase_test(16); }

TEST(Executor, DisseminationBarrierNonPowerOfTwoTeam) { barrier_phase_test(12); }

TEST(Executor, NestedRunUsesAPrivateExecutor) {
  std::atomic<int> inner_total{0};
  run(2, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      run(3, [&](Communicator& inner) { inner_total.fetch_add(inner.rank() + 1); });
    }
  });
  EXPECT_EQ(inner_total.load(), 1 + 2 + 3);
}

TEST(Executor, NestedRunFailureNamesTheInnerRank) {
  std::atomic<int> caught_rank{-1};
  run(2, [&](Communicator& comm) {
    if (comm.rank() != 1) return;
    try {
      run(3, [](Communicator& inner) {
        if (inner.rank() == 2) throw std::runtime_error("inner rank 2 broke");
        inner.barrier();  // peers block here until the abort wakes them
      });
    } catch (const RankError& e) {
      caught_rank = e.failed_rank();
      EXPECT_NE(std::string(e.what()).find("inner rank 2 broke"),
                std::string::npos)
          << e.what();
    }
  });
  EXPECT_EQ(caught_rank.load(), 2);
}

TEST(Executor, AlternatingSizesKeepStateConsistent) {
  for (int rep = 0; rep < 3; ++rep) {
    for (int P : {4, 2, 6}) {
      std::atomic<int> sum{0};
      run(P, [&](Communicator& comm) {
        sum.fetch_add(comm.rank());
        comm.barrier();
      });
      EXPECT_EQ(sum.load(), P * (P - 1) / 2);
    }
  }
}

}  // namespace
}  // namespace vpar::simrt
