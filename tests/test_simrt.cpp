#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "simrt/coarray.hpp"
#include "simrt/mailbox.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

namespace vpar::simrt {
namespace {

TEST(Simrt, SendRecvRoundTrip) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data = {1, 2, 3};
      comm.send<int>(1, data, 7);
    } else {
      std::vector<int> got(3);
      comm.recv<int>(0, std::span<int>(got), 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Simrt, MessagesDoNotOvertakePerTag) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        comm.send<int>(1, std::span<const int>(&i, 1), 3);
      }
    } else {
      for (int i = 0; i < 50; ++i) {
        int v = -1;
        comm.recv<int>(0, std::span<int>(&v, 1), 3);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Simrt, TagMatchingSkipsOtherTags) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int a = 10, b = 20;
      comm.send<int>(1, std::span<const int>(&a, 1), 1);
      comm.send<int>(1, std::span<const int>(&b, 1), 2);
    } else {
      int v = 0;
      comm.recv<int>(0, std::span<int>(&v, 1), 2);
      EXPECT_EQ(v, 20);
      comm.recv<int>(0, std::span<int>(&v, 1), 1);
      EXPECT_EQ(v, 10);
    }
  });
}

TEST(Simrt, SendRecvRingNeverDeadlocks) {
  constexpr int P = 8;
  run(P, [](Communicator& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() + comm.size() - 1) % comm.size();
    int out = comm.rank(), in = -1;
    comm.sendrecv<int>(right, std::span<const int>(&out, 1), left,
                       std::span<int>(&in, 1), 0);
    EXPECT_EQ(in, left);
  });
}

TEST(Simrt, SelfSendRecv) {
  run(1, [](Communicator& comm) {
    int out = 42, in = 0;
    comm.sendrecv<int>(0, std::span<const int>(&out, 1), 0, std::span<int>(&in, 1), 5);
    EXPECT_EQ(in, 42);
  });
}

TEST(Simrt, RecvSizeMismatchThrows) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       int v = 1;
                       comm.send<int>(1, std::span<const int>(&v, 1), 0);
                     } else {
                       std::vector<int> too_big(2);
                       comm.recv<int>(0, std::span<int>(too_big), 0);
                     }
                   }),
               std::runtime_error);
}

TEST(Simrt, AllreduceSumMaxMin) {
  run(5, [](Communicator& comm) {
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce(r, ReduceOp::Sum), 0 + 1 + 2 + 3 + 4);
    EXPECT_EQ(comm.allreduce(r, ReduceOp::Max), 4);
    EXPECT_EQ(comm.allreduce(r + 10, ReduceOp::Min), 10);
  });
}

TEST(Simrt, AllreduceVectorsElementwise) {
  run(4, [](Communicator& comm) {
    std::vector<double> v = {1.0, static_cast<double>(comm.rank())};
    comm.allreduce_inplace(std::span<double>(v), ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(v[0], 4.0);
    EXPECT_DOUBLE_EQ(v[1], 6.0);
  });
}

TEST(Simrt, ConsecutiveCollectivesDoNotInterfere) {
  run(6, [](Communicator& comm) {
    for (int iter = 0; iter < 20; ++iter) {
      const int s = comm.allreduce(1, ReduceOp::Sum);
      EXPECT_EQ(s, 6);
      comm.barrier();
      const int m = comm.allreduce(comm.rank() * iter, ReduceOp::Max);
      EXPECT_EQ(m, 5 * iter);
    }
  });
}

TEST(Simrt, Broadcast) {
  run(4, [](Communicator& comm) {
    std::vector<int> v(3, comm.rank() == 2 ? 99 : 0);
    comm.broadcast<int>(std::span<int>(v), 2);
    EXPECT_EQ(v, (std::vector<int>{99, 99, 99}));
  });
}

TEST(Simrt, GatherIsRankOrdered) {
  run(4, [](Communicator& comm) {
    std::vector<int> mine = {comm.rank() * 2, comm.rank() * 2 + 1};
    std::vector<int> all(comm.rank() == 0 ? 8 : 0);
    comm.gather<int>(mine, std::span<int>(all), 0);
    if (comm.rank() == 0) {
      std::vector<int> expect(8);
      std::iota(expect.begin(), expect.end(), 0);
      EXPECT_EQ(all, expect);
    }
  });
}

TEST(Simrt, AlltoallvTransposes) {
  constexpr int P = 5;
  run(P, [](Communicator& comm) {
    std::vector<std::vector<int>> in(P);
    comm.alltoallv_pipelined<int>(
        [&](int d) { return std::vector<int>{comm.rank() * 100 + d}; },
        [&](int s, std::vector<int> block) { in[static_cast<std::size_t>(s)] = std::move(block); });
    for (int s = 0; s < P; ++s) {
      ASSERT_EQ(in[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(in[static_cast<std::size_t>(s)][0], s * 100 + comm.rank());
    }
  });
}

TEST(Simrt, AlltoallvVariableSizes) {
  constexpr int P = 4;
  run(P, [](Communicator& comm) {
    std::vector<std::vector<int>> in(P);
    comm.alltoallv_pipelined<int>(
        [&](int d) { return std::vector<int>(static_cast<std::size_t>(comm.rank()), d); },
        [&](int s, std::vector<int> block) { in[static_cast<std::size_t>(s)] = std::move(block); });
    for (int s = 0; s < P; ++s) {
      EXPECT_EQ(in[static_cast<std::size_t>(s)].size(), static_cast<std::size_t>(s));
      for (int v : in[static_cast<std::size_t>(s)]) EXPECT_EQ(v, comm.rank());
    }
  });
}

TEST(Simrt, AlltoallvBlockSizeMismatchThrows) {
  // Rank 1 sends 3 floats (12 bytes) to a rank 0 that reads doubles. The
  // block is not a whole number of doubles, so rank 0 throws instead of
  // copying 12 bytes into a one-double buffer.
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) {
                       comm.alltoallv_pipelined<double>(
                           [](int) { return std::vector<double>(1, 1.0); },
                           [](int, std::vector<double>) {});
                     } else {
                       comm.alltoallv_pipelined<float>(
                           [](int) { return std::vector<float>(3, 1.0f); },
                           [](int, std::vector<float>) {});
                     }
                   }),
               std::runtime_error);
}

TEST(Simrt, BarrierSeparatesPhases) {
  constexpr int P = 8;
  static std::atomic<int> phase_count{0};
  phase_count = 0;
  run(P, [](Communicator& comm) {
    phase_count.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase_count.load(), comm.size());
  });
}

TEST(Simrt, ExceptionPropagatesToCaller) {
  EXPECT_THROW(run(3,
                   [](Communicator& comm) {
                     if (comm.rank() == 1) throw std::runtime_error("rank 1 died");
                   }),
               std::runtime_error);
}

TEST(Simrt, RunRejectsNonPositiveSize) {
  EXPECT_THROW(run(0, [](Communicator&) {}), std::runtime_error);
}

TEST(Simrt, CommStatsRecorded) {
  auto result = run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> payload(100);
      comm.send<double>(1, payload, 0);
    } else {
      std::vector<double> payload(100);
      comm.recv<double>(0, std::span<double>(payload), 0);
    }
    comm.barrier();
  });
  EXPECT_DOUBLE_EQ(result.per_rank[0].comm().bytes(perf::CommKind::PointToPoint), 800.0);
  EXPECT_DOUBLE_EQ(result.per_rank[1].comm().bytes(perf::CommKind::PointToPoint), 0.0);
  EXPECT_DOUBLE_EQ(result.merged.comm().messages(perf::CommKind::Barrier), 2.0);
}

TEST(Simrt, OneRankCollectivesRecordNoTraffic) {
  // A 1-rank allreduce, broadcast or gather never leaves the rank: 0
  // messages and 0 bytes, in the rank's CommProfile and in the comm.* meters.
  auto& metrics = trace::Metrics::instance();
  const std::uint64_t messages = metrics.counter("comm.messages").value();
  const std::uint64_t bytes = metrics.counter("comm.bytes").value();
  auto result = run(1, [](Communicator& comm) {
    EXPECT_DOUBLE_EQ(comm.allreduce(1.5, ReduceOp::Sum), 1.5);
    std::vector<double> values(8, 2.0);
    comm.broadcast(std::span<double>(values), 0);
    std::vector<double> gathered(values.size());
    comm.gather(std::span<const double>(values), std::span<double>(gathered), 0);
    EXPECT_EQ(gathered, values);
  });
  for (const auto kind : {perf::CommKind::Reduction, perf::CommKind::Broadcast,
                          perf::CommKind::Gather}) {
    EXPECT_DOUBLE_EQ(result.merged.comm().messages(kind), 0.0);
    EXPECT_DOUBLE_EQ(result.merged.comm().bytes(kind), 0.0);
  }
  EXPECT_EQ(metrics.counter("comm.messages").value(), messages);
  EXPECT_EQ(metrics.counter("comm.bytes").value(), bytes);
}

TEST(Simrt, CoArrayPutGet) {
  run(4, [](Communicator& comm) {
    CoArray<int> ca(comm, "t1", 4);
    auto local = ca.local();
    for (std::size_t i = 0; i < 4; ++i) local[i] = comm.rank() * 10 + static_cast<int>(i);
    ca.sync_all();

    // Everyone reads the next image's block one-sidedly.
    const int next = (comm.rank() + 1) % comm.size();
    std::array<int, 4> got{};
    ca.get(next, 0, std::span<int>(got));
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(got[i], next * 10 + static_cast<int>(i));
    ca.sync_all();

    // Everyone puts one value into the previous image.
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    const int v = comm.rank() + 1000;
    ca.put(prev, 0, std::span<const int>(&v, 1));
    ca.sync_all();
    EXPECT_EQ(ca.local()[0], (comm.rank() + 1) % comm.size() + 1000);
  });
}

TEST(Simrt, CoArrayOutOfRangeThrows) {
  EXPECT_THROW(run(2,
                   [](Communicator& comm) {
                     CoArray<int> ca(comm, "t2", 2);
                     int v = 0;
                     ca.put((comm.rank() + 1) % 2, 2, std::span<const int>(&v, 1));
                   }),
               std::runtime_error);
}

TEST(Simrt, CoArrayRecordsOneSidedTraffic) {
  auto result = run(2, [](Communicator& comm) {
    CoArray<double> ca(comm, "t3", 8);
    std::array<double, 8> v{};
    ca.put(1 - comm.rank(), 0, std::span<const double>(v));  // remote: counted
    ca.put(comm.rank(), 0, std::span<const double>(v));      // local: free
    ca.sync_all();
  });
  EXPECT_DOUBLE_EQ(result.per_rank[0].comm().bytes(perf::CommKind::OneSided), 64.0);
  EXPECT_DOUBLE_EQ(result.per_rank[0].comm().messages(perf::CommKind::OneSided), 1.0);
}

// --- message ring ------------------------------------------------------------

Message tagged(int tag) {
  Message m;
  m.tag = tag;
  return m;
}

std::vector<int> tags_of(MessageRing& ring) {
  std::vector<int> tags;
  for (std::size_t i = 0; i < ring.size(); ++i) tags.push_back(ring[i].tag);
  return tags;
}

TEST(MessageRing, PushAndTakeAreFifo) {
  MessageRing ring;
  for (int t = 0; t < 6; ++t) ring.push_back(tagged(t));
  EXPECT_EQ(ring.size(), 6u);
  for (int t = 0; t < 6; ++t) EXPECT_EQ(ring.take(0).tag, t);
  EXPECT_TRUE(ring.empty());
}

TEST(MessageRing, GrowthPreservesOrder) {
  MessageRing ring;
  for (int t = 0; t < 100; ++t) ring.push_back(tagged(t));
  EXPECT_GE(ring.capacity(), 100u);
  for (int t = 0; t < 100; ++t) EXPECT_EQ(ring.take(0).tag, t);
}

TEST(MessageRing, WrapAroundKeepsFifoOrder) {
  MessageRing ring;
  // Grow the ring by pushes, then march the head around it several times
  // with a steady queue depth, so logical indices wrap the physical slots.
  int next = 0, expect = 0;
  for (int i = 0; i < 8; ++i) ring.push_back(tagged(next++));
  const std::size_t cap = ring.capacity();
  for (std::size_t step = 0; step < 5 * cap; ++step) {
    EXPECT_EQ(ring.take(0).tag, expect++);
    ring.push_back(tagged(next++));
    EXPECT_EQ(ring.capacity(), cap);  // a steady depth never grows the ring
  }
  while (!ring.empty()) EXPECT_EQ(ring.take(0).tag, expect++);
}

TEST(MessageRing, InsertAtEitherEndAndMiddle) {
  MessageRing ring;
  for (int t : {0, 1, 2, 3}) ring.push_back(tagged(t));
  ring.insert(0, tagged(90));           // front (short-front path)
  ring.insert(3, tagged(91));           // middle
  ring.insert(ring.size(), tagged(92)); // back
  EXPECT_EQ(tags_of(ring), (std::vector<int>{90, 0, 1, 91, 2, 3, 92}));
}

TEST(MessageRing, TakeFromMiddleShiftsTheShorterSide) {
  MessageRing ring;
  for (int t = 0; t < 7; ++t) ring.push_back(tagged(t));
  EXPECT_EQ(ring.take(1).tag, 1);  // front half
  EXPECT_EQ(ring.take(4).tag, 5);  // back half
  EXPECT_EQ(tags_of(ring), (std::vector<int>{0, 2, 3, 4, 6}));
}

TEST(MessageRing, ClearRetainsCapacity) {
  MessageRing ring;
  for (int t = 0; t < 20; ++t) ring.push_back(tagged(t));
  const std::size_t cap = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
  ring.push_back(tagged(7));
  EXPECT_EQ(ring[0].tag, 7);
}

}  // namespace
}  // namespace vpar::simrt
