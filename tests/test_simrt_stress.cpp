// Stress and corner-case tests of the simulated parallel runtime: high rank
// counts, interleaved traffic patterns, multiple co-arrays, and message
// matching under contention.

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "simrt/coarray.hpp"
#include "simrt/runtime.hpp"

namespace vpar::simrt {
namespace {

TEST(SimrtStress, SixtyFourRankAllreduceStorm) {
  run(64, [](Communicator& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      const long sum = comm.allreduce(static_cast<long>(comm.rank()), ReduceOp::Sum);
      EXPECT_EQ(sum, 64L * 63L / 2L);
    }
  });
}

TEST(SimrtStress, RandomizedPointToPointSoak) {
  // Every rank sends a tagged message to every other rank in random order;
  // every message must arrive with the right contents regardless of
  // interleaving.
  constexpr int P = 12;
  run(P, [](Communicator& comm) {
    std::vector<int> order(static_cast<std::size_t>(comm.size()));
    std::iota(order.begin(), order.end(), 0);
    std::mt19937 rng(1000u + static_cast<unsigned>(comm.rank()));
    std::shuffle(order.begin(), order.end(), rng);

    for (int dest : order) {
      const int payload = comm.rank() * 1000 + dest;
      comm.send<int>(dest, std::span<const int>(&payload, 1), 99);
    }
    for (int src = 0; src < comm.size(); ++src) {
      int got = -1;
      comm.recv<int>(src, std::span<int>(&got, 1), 99);
      EXPECT_EQ(got, src * 1000 + comm.rank());
    }
  });
}

TEST(SimrtStress, WildcardReceiveDrainsEverything) {
  constexpr int P = 8;
  run(P, [](Communicator& comm) {
    if (comm.rank() == 0) {
      long total = 0;
      for (int i = 0; i < P - 1; ++i) {
        long v = 0;
        comm.recv<long>(kAnySource, std::span<long>(&v, 1), 5);
        total += v;
      }
      // Ranks 1..P-1 each send rank+1: sum = (P-1)(P+2)/2.
      EXPECT_EQ(total, (P - 1L) * (P + 2L) / 2L);
    } else {
      const long v = comm.rank() + 1;
      comm.send<long>(0, std::span<const long>(&v, 1), 5);
    }
  });
}

TEST(SimrtStress, InterleavedCollectivesAndPointToPoint) {
  constexpr int P = 6;
  run(P, [](Communicator& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    for (int iter = 0; iter < 25; ++iter) {
      int token = comm.rank() * 100 + iter, got = -1;
      comm.sendrecv<int>(right, std::span<const int>(&token, 1), left,
                         std::span<int>(&got, 1), iter);
      EXPECT_EQ(got, left * 100 + iter);
      EXPECT_EQ(comm.allreduce(1, ReduceOp::Sum), comm.size());
      comm.barrier();
    }
  });
}

TEST(SimrtStress, MultipleCoArraysAreIndependent) {
  run(4, [](Communicator& comm) {
    CoArray<double> a(comm, "stress_a", 8);
    CoArray<int> b(comm, "stress_b", 3);
    for (std::size_t i = 0; i < 8; ++i) a.local()[i] = comm.rank() + 0.5;
    for (std::size_t i = 0; i < 3; ++i) b.local()[i] = -comm.rank();
    a.sync_all();

    const int peer = (comm.rank() + 2) % 4;
    std::array<double, 8> da{};
    std::array<int, 3> db{};
    a.get(peer, 0, std::span<double>(da));
    b.get(peer, 0, std::span<int>(db));
    for (double v : da) EXPECT_DOUBLE_EQ(v, peer + 0.5);
    for (int v : db) EXPECT_EQ(v, -peer);
    a.sync_all();
  });
}

TEST(SimrtStress, LargePayloadRoundTrip) {
  run(2, [](Communicator& comm) {
    constexpr std::size_t n = 1 << 20;  // 8 MB of doubles
    if (comm.rank() == 0) {
      std::vector<double> big(n);
      for (std::size_t i = 0; i < n; ++i) big[i] = static_cast<double>(i % 1013);
      comm.send<double>(1, big, 0);
    } else {
      std::vector<double> big(n);
      comm.recv<double>(0, std::span<double>(big), 0);
      for (std::size_t i = 0; i < n; i += 4096) {
        ASSERT_DOUBLE_EQ(big[i], static_cast<double>(i % 1013));
      }
    }
  });
}

TEST(SimrtStress, BroadcastFromEveryRoot) {
  constexpr int P = 5;
  run(P, [](Communicator& comm) {
    for (int root = 0; root < P; ++root) {
      std::array<int, 2> v{};
      if (comm.rank() == root) v = {root * 7, root * 11};
      comm.broadcast<int>(std::span<int>(v), root);
      EXPECT_EQ(v[0], root * 7);
      EXPECT_EQ(v[1], root * 11);
    }
  });
}

TEST(SimrtStress, ReduceMinMaxOnDoubles) {
  run(7, [](Communicator& comm) {
    const double mine = 1.0 / (1.0 + comm.rank());
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Max), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Min), 1.0 / 7.0);
  });
}

TEST(SimrtStress, AlltoallvStorm) {
  constexpr int P = 8;
  run(P, [](Communicator& comm) {
    for (int iter = 0; iter < 10; ++iter) {
      int arrived = 0;
      comm.alltoallv_pipelined<double>(
          [&](int d) {
            return std::vector<double>(
                static_cast<std::size_t>((comm.rank() + d + iter) % 3 + 1),
                comm.rank() * 1.0 + d * 0.01);
          },
          [&](int s, std::vector<double> box) {
            ++arrived;
            ASSERT_EQ(box.size(),
                      static_cast<std::size_t>((s + comm.rank() + iter) % 3 + 1));
            for (double v : box) EXPECT_DOUBLE_EQ(v, s * 1.0 + comm.rank() * 0.01);
          });
      EXPECT_EQ(arrived, comm.size());
    }
  });
}

// --- collective equivalence property tests ---------------------------------
// Each collective is checked against a sequential reference over seeded
// randomized sizes and rank counts 1..16 (including non-powers-of-two, where
// the binomial trees are ragged), plus empty buffers.

class CollectiveEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveEquivalence, AllreduceMatchesSequentialFold) {
  const int P = GetParam();
  std::mt19937 rng(4242u + static_cast<unsigned>(P));
  std::uniform_int_distribution<std::size_t> len(0, 9);
  std::uniform_real_distribution<double> val(-1.0, 1.0);

  for (int round = 0; round < 5; ++round) {
    const std::size_t n = len(rng);
    // contributions[r][i]: fixed up front so a reference answer exists.
    std::vector<std::vector<double>> contrib(static_cast<std::size_t>(P),
                                             std::vector<double>(n));
    for (auto& c : contrib)
      for (auto& v : c) v = val(rng);

    // Reference: the seed's association order — fold rank 0..P-1 in order.
    std::vector<double> expect_sum(n, 0.0), expect_max(n), expect_min(n);
    for (std::size_t i = 0; i < n; ++i) {
      double s = contrib[0][i], mx = contrib[0][i], mn = contrib[0][i];
      for (int r = 1; r < P; ++r) {
        s += contrib[static_cast<std::size_t>(r)][i];
        mx = std::max(mx, contrib[static_cast<std::size_t>(r)][i]);
        mn = std::min(mn, contrib[static_cast<std::size_t>(r)][i]);
      }
      expect_sum[i] = s;
      expect_max[i] = mx;
      expect_min[i] = mn;
    }

    run(P, [&](Communicator& comm) {
      auto mine = contrib[static_cast<std::size_t>(comm.rank())];
      comm.allreduce_inplace(std::span<double>(mine), ReduceOp::Sum);
      for (std::size_t i = 0; i < n; ++i) {
        // Bitwise equality: the tree gather must preserve the sequential
        // rank-order fold exactly, on every rank.
        ASSERT_EQ(mine[i], expect_sum[i]);
      }
      auto mx = contrib[static_cast<std::size_t>(comm.rank())];
      comm.allreduce_inplace(std::span<double>(mx), ReduceOp::Max);
      auto mn = contrib[static_cast<std::size_t>(comm.rank())];
      comm.allreduce_inplace(std::span<double>(mn), ReduceOp::Min);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(mx[i], expect_max[i]);
        ASSERT_EQ(mn[i], expect_min[i]);
      }
    });
  }
}

TEST_P(CollectiveEquivalence, BroadcastFromRandomRoots) {
  const int P = GetParam();
  std::mt19937 rng(777u + static_cast<unsigned>(P));
  std::uniform_int_distribution<int> pick_root(0, P - 1);
  std::uniform_int_distribution<std::size_t> len(0, 12);

  for (int round = 0; round < 5; ++round) {
    const int root = pick_root(rng);
    const std::size_t n = len(rng);
    std::vector<long> payload(n);
    for (std::size_t i = 0; i < n; ++i) payload[i] = static_cast<long>(i * 31 + round);

    run(P, [&](Communicator& comm) {
      std::vector<long> v(n, -1);
      if (comm.rank() == root) v = payload;
      comm.broadcast<long>(std::span<long>(v), root);
      ASSERT_EQ(v, payload);
    });
  }
}

TEST_P(CollectiveEquivalence, GatherVariableSizesToRandomRoots) {
  const int P = GetParam();
  std::mt19937 rng(31337u + static_cast<unsigned>(P));
  std::uniform_int_distribution<int> pick_root(0, P - 1);
  std::uniform_int_distribution<std::size_t> len(0, 7);

  for (int round = 0; round < 5; ++round) {
    const int root = pick_root(rng);
    // Variable (possibly zero) contribution sizes per rank.
    std::vector<std::size_t> counts(static_cast<std::size_t>(P));
    for (auto& c : counts) c = len(rng);

    // Reference: rank-ordered concatenation of rank*1000 + index.
    std::vector<int> expected;
    for (int r = 0; r < P; ++r)
      for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i)
        expected.push_back(r * 1000 + static_cast<int>(i));

    run(P, [&](Communicator& comm) {
      const std::size_t mine = counts[static_cast<std::size_t>(comm.rank())];
      std::vector<int> contribution(mine);
      for (std::size_t i = 0; i < mine; ++i)
        contribution[i] = comm.rank() * 1000 + static_cast<int>(i);

      std::vector<int> out(expected.size(), -1);
      comm.gather<int>(contribution, std::span<int>(out), root);
      if (comm.rank() == root) ASSERT_EQ(out, expected);
    });
  }
}

TEST_P(CollectiveEquivalence, AlltoallvMatchesReferencePermutation) {
  const int P = GetParam();
  std::mt19937 rng(90210u + static_cast<unsigned>(P));
  std::uniform_int_distribution<std::size_t> len(0, 5);

  for (int round = 0; round < 4; ++round) {
    // sizes[s][d]: elements rank s sends to rank d (zeros included).
    std::vector<std::vector<std::size_t>> sizes(
        static_cast<std::size_t>(P), std::vector<std::size_t>(static_cast<std::size_t>(P)));
    for (auto& row : sizes)
      for (auto& c : row) c = len(rng);

    run(P, [&](Communicator& comm) {
      const auto me = static_cast<std::size_t>(comm.rank());
      std::vector<std::vector<double>> in(static_cast<std::size_t>(P));
      std::vector<int> unpacked(static_cast<std::size_t>(P), 0);
      comm.alltoallv_pipelined<double>(
          [&](int dest) {
            const auto d = static_cast<std::size_t>(dest);
            std::vector<double> out(sizes[me][d]);
            for (std::size_t i = 0; i < out.size(); ++i)
              out[i] = comm.rank() * 100.0 + static_cast<double>(d) + i * 0.001;
            return out;
          },
          [&](int src, std::vector<double> block) {
            ++unpacked[static_cast<std::size_t>(src)];
            in[static_cast<std::size_t>(src)] = std::move(block);
          });
      for (int count : unpacked) ASSERT_EQ(count, 1);
      for (std::size_t s = 0; s < static_cast<std::size_t>(P); ++s) {
        ASSERT_EQ(in[s].size(), sizes[s][me]);
        for (std::size_t i = 0; i < in[s].size(); ++i) {
          ASSERT_DOUBLE_EQ(in[s][i],
                           s * 100.0 + static_cast<double>(me) + i * 0.001);
        }
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveEquivalence,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 11, 13, 16));

}  // namespace
}  // namespace vpar::simrt
