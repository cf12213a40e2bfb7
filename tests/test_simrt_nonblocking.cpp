// Nonblocking point-to-point: Request semantics (wait/test/waitall), posted
// receive handoff, out-of-order tag matching, wildcard interaction, and the
// safety of abandoning a request before it completes.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "perf/recorder.hpp"
#include "simrt/runtime.hpp"

namespace vpar::simrt {
namespace {

TEST(SimrtNonblocking, IsendIrecvRoundTrip) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> data{1, 2, 3, 4};
      comm.isend<int>(1, std::span<const int>(data), 7).wait();
    } else {
      std::array<int, 4> got{};
      Request r = comm.irecv<int>(0, std::span<int>(got), 7);
      r.wait();
      EXPECT_EQ(got[2], 3);
    }
  });
}

TEST(SimrtNonblocking, MoveHandoffIsendDeliversContents) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(1 << 16);
      for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
      comm.isend<double>(1, std::move(big), 3).wait();
      EXPECT_TRUE(big.empty());  // adopted, not copied
    } else {
      std::vector<double> got(1 << 16);
      comm.irecv<double>(0, std::span<double>(got), 3).wait();
      EXPECT_DOUBLE_EQ(got[12345], 12345.0);
    }
  });
}

TEST(SimrtNonblocking, OutOfOrderTagMatching) {
  // Sender posts tag 1 then tag 2; receiver waits on tag 2 first. Posted
  // receives must match on tag, not arrival order.
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      const int a = 111, b = 222;
      comm.send<int>(1, std::span<const int>(&a, 1), 1);
      comm.send<int>(1, std::span<const int>(&b, 1), 2);
    } else {
      int second = 0, first = 0;
      comm.recv<int>(0, std::span<int>(&second, 1), 2);
      comm.recv<int>(0, std::span<int>(&first, 1), 1);
      EXPECT_EQ(second, 222);
      EXPECT_EQ(first, 111);
    }
  });
}

TEST(SimrtNonblocking, PostedReceiveCompletesWithoutQueueing) {
  // The receive is posted before the message exists; the sender's deliver
  // call must complete it directly (handoff into the posted buffer).
  run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      int got = -1;
      Request r = comm.irecv<int>(0, std::span<int>(&got, 1), 9);
      comm.barrier();  // now rank 0 sends
      r.wait();
      EXPECT_EQ(got, 42);
    } else {
      comm.barrier();
      const int v = 42;
      comm.send<int>(1, std::span<const int>(&v, 1), 9);
    }
  });
}

TEST(SimrtNonblocking, TestPollsWithoutBlocking) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      int got = 0;
      Request r = comm.irecv<int>(0, std::span<int>(&got, 1), 4);
      EXPECT_FALSE(r.test());  // nothing sent yet
      EXPECT_TRUE(r.active());
      comm.barrier();
      while (!r.test()) std::this_thread::yield();
      EXPECT_EQ(got, 17);
      EXPECT_FALSE(r.active());  // test() released the handle on completion
    } else {
      comm.barrier();
      const int v = 17;
      comm.send<int>(1, std::span<const int>(&v, 1), 4);
    }
  });
}

TEST(SimrtNonblocking, WaitOnCompletedRequestIsIdempotent) {
  run(1, [](Communicator& comm) {
    Request done;  // default-constructed: complete
    EXPECT_FALSE(done.active());
    EXPECT_TRUE(done.test());
    done.wait();  // no-op
    done.wait();  // still a no-op

    const int v = 5;
    Request s = comm.isend<int>(0, std::span<const int>(&v, 1), 0);
    s.wait();
    s.wait();  // waiting twice is fine
    int got = 0;
    comm.recv<int>(0, std::span<int>(&got, 1), 0);
    EXPECT_EQ(got, 5);
  });
}

TEST(SimrtNonblocking, WaitallMixedSources) {
  // Rank 0 posts receives from every other rank with distinct tags, then
  // waits on all of them at once; senders go in reverse rank order.
  constexpr int P = 6;
  run(P, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::array<int, P> got{};
      std::vector<Request> reqs;
      for (int s = 1; s < P; ++s) {
        reqs.push_back(comm.irecv<int>(
            s, std::span<int>(&got[static_cast<std::size_t>(s)], 1), 50 + s));
      }
      waitall(reqs);
      for (int s = 1; s < P; ++s) EXPECT_EQ(got[static_cast<std::size_t>(s)], s * s);
    } else {
      const int v = comm.rank() * comm.rank();
      comm.send<int>(0, std::span<const int>(&v, 1), 50 + comm.rank());
    }
  });
}

TEST(SimrtNonblocking, SelfSendCompletes) {
  run(3, [](Communicator& comm) {
    int got = -1;
    Request r = comm.irecv<int>(comm.rank(), std::span<int>(&got, 1), 8);
    const int v = comm.rank() + 100;
    comm.isend<int>(comm.rank(), std::span<const int>(&v, 1), 8).wait();
    r.wait();
    EXPECT_EQ(got, comm.rank() + 100);
  });
}

TEST(SimrtNonblocking, ZeroLengthMessages) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.isend<double>(1, std::vector<double>{}, 2).wait();
      comm.send<double>(1, std::span<const double>{}, 3);
    } else {
      Request r = comm.irecv<double>(0, std::span<double>{}, 2);
      r.wait();
      comm.recv<double>(0, std::span<double>{}, 3);
    }
  });
}

TEST(SimrtNonblocking, SizeMismatchSurfacesThroughWait) {
  run(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::array<int, 3> three{1, 2, 3};
      comm.send<int>(1, std::span<const int>(three), 0);
    } else {
      std::array<int, 2> two{};
      Request r = comm.irecv<int>(0, std::span<int>(two), 0);
      EXPECT_THROW(r.wait(), std::runtime_error);
    }
  });
}

TEST(SimrtNonblocking, AbandonedRequestIsCancelledNotMatched) {
  // Destroying an unwaited request must (a) not crash, (b) never write
  // through the dropped buffer, and (c) leave later messages matchable by a
  // fresh receive. The first message is sent only after the abandoned
  // request is gone, so it must stay queued rather than complete a
  // cancelled receive.
  run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      {
        auto doomed = std::make_unique<std::array<int, 1>>();
        Request r = comm.irecv<int>(0, std::span<int>(*doomed), 6);
        // r destroyed here, before any message exists; buffer freed next.
      }
      comm.barrier();  // sender posts both messages after this
      int got = 0;
      comm.recv<int>(0, std::span<int>(&got, 1), 6);
      EXPECT_EQ(got, 1000);  // the *first* message — nothing was consumed
      comm.recv<int>(0, std::span<int>(&got, 1), 6);
      EXPECT_EQ(got, 2000);
    } else {
      comm.barrier();
      const int a = 1000, b = 2000;
      comm.send<int>(1, std::span<const int>(&a, 1), 6);
      comm.send<int>(1, std::span<const int>(&b, 1), 6);
    }
  });
}

TEST(SimrtNonblocking, AbandonedPendingRequestSkippedAtDelivery) {
  // The cancelled receive is still parked in the mailbox's pending list when
  // the message arrives; delivery must skip (and prune) it and match the
  // live receive posted afterwards.
  run(2, [](Communicator& comm) {
    if (comm.rank() == 1) {
      int dropped = -1, got = -1;
      { Request r = comm.irecv<int>(0, std::span<int>(&dropped, 1), 11); }
      Request live = comm.irecv<int>(0, std::span<int>(&got, 1), 11);
      comm.barrier();
      live.wait();
      EXPECT_EQ(got, 77);
      EXPECT_EQ(dropped, -1);  // cancelled buffer never written
    } else {
      comm.barrier();
      const int v = 77;
      comm.send<int>(1, std::span<const int>(&v, 1), 11);
    }
  });
}

TEST(SimrtNonblocking, WildcardRecvSeesUserTrafficOnly) {
  // A wildcard (any-source, any-tag) receive running concurrently with
  // other ranks' collectives must never swallow internal collective
  // fragments.
  constexpr int P = 4;
  run(P, [](Communicator& comm) {
    if (comm.rank() == 0) {
      // Ranks 1..P-1 are already deep in an allreduce whose tree traffic
      // passes through rank 0's mailbox region only via real matching; the
      // wildcard below must match the single user message.
      int got = 0;
      comm.recv<int>(kAnySource, std::span<int>(&got, 1), kAnyTag);
      EXPECT_EQ(got, 123);
      (void)comm.allreduce(0, ReduceOp::Sum);
    } else {
      if (comm.rank() == 1) {
        const int v = 123;
        comm.send<int>(0, std::span<const int>(&v, 1), 64);
      }
      (void)comm.allreduce(0, ReduceOp::Sum);
    }
  });
}

TEST(SimrtNonblocking, NegativeUserTagRejected) {
  run(1, [](Communicator& comm) {
    const int v = 1;
    EXPECT_THROW(comm.send<int>(0, std::span<const int>(&v, 1), -3),
                 std::runtime_error);
    int got = 0;
    EXPECT_THROW((void)comm.irecv<int>(0, std::span<int>(&got, 1), -3),
                 std::runtime_error);
  });
}

TEST(SimrtNonblocking, OverlapScopeRecordsOverlappedTraffic) {
  auto result = run(2, [](Communicator& comm) {
    std::array<double, 64> buf{};
    if (comm.rank() == 0) {
      {
        perf::OverlapScope window;
        comm.isend<double>(1, std::span<const double>(buf), 1).wait();
      }
      comm.send<double>(1, std::span<const double>(buf), 2);  // serialized
    } else {
      comm.recv<double>(0, std::span<double>(buf), 1);
      comm.recv<double>(0, std::span<double>(buf), 2);
    }
  });
  const auto& p0 = result.per_rank[0].comm();
  EXPECT_DOUBLE_EQ(p0.overlapped_bytes(perf::CommKind::PointToPoint), 64 * 8.0);
  EXPECT_DOUBLE_EQ(p0.serialized_bytes(perf::CommKind::PointToPoint), 64 * 8.0);
  EXPECT_DOUBLE_EQ(p0.bytes(perf::CommKind::PointToPoint), 2 * 64 * 8.0);
  EXPECT_DOUBLE_EQ(p0.overlap_windows(), 1.0);
}

// --- poll-then-park message waits ------------------------------------------

// A sender that sleeps far past the poll budget finds every kind of wait
// parked, and its message still completes it: a blocking recv (a posted
// receive and Request::wait), an irecv + wait, a receive of unknown size and
// an allreduce (Mailbox::receive).
TEST(WaitPoll, MessageSentAfterTheBudgetStillCompletesEveryWait) {
  using namespace std::chrono_literals;
  static_assert(kWaitPollBudget < 5ms);
  run(2, [](Communicator& comm) {
    auto late_send = [&](int value, int tag) {
      std::this_thread::sleep_for(5ms);
      comm.send<int>(1, std::span<const int>(&value, 1), tag);
    };
    int got = 0;
    if (comm.rank() == 0) {
      late_send(11, 1);
      late_send(12, 2);
      late_send(13, 3);
      std::this_thread::sleep_for(5ms);
    } else {
      comm.recv<int>(0, std::span<int>(&got, 1), 1);
      EXPECT_EQ(got, 11);
      Request r = comm.irecv<int>(0, std::span<int>(&got, 1), 2);
      r.wait();
      EXPECT_EQ(got, 12);
      Message m = comm.recv_message(0, 3);
      ASSERT_EQ(m.payload.size(), sizeof(int));
      std::memcpy(&got, m.payload.data(), sizeof(int));
      EXPECT_EQ(got, 13);
    }
    EXPECT_EQ(comm.allreduce(comm.rank() + 1, ReduceOp::Sum), 3);
  });
}

// Message waits poll only while the ranks running in the whole process fit
// the host's cores. A RunningRanks stands in for the ranks of a job of
// host_cores() + 1 ranks, or of another lane's job running beside this one,
// so the check starts no threads beyond the 2-rank job's one worker.
TEST(WaitPoll, OnlyWhileTheProcessRanksFitTheCores) {
  const int cores = static_cast<int>(host_cores());
  const int before = RunningRanks::count();
  {
    const RunningRanks oversubscribed(cores + 1);
    EXPECT_FALSE(waits_may_poll());
  }
  if (cores < 2) GTEST_SKIP() << "a 2-rank job oversubscribes this host";
  run(2, [&](Communicator&) {
    EXPECT_EQ(RunningRanks::count(), before + 2);
    EXPECT_TRUE(waits_may_poll());
  });
  const RunningRanks other_lane(cores - 1);
  run(2, [](Communicator&) { EXPECT_FALSE(waits_may_poll()); });
  EXPECT_EQ(RunningRanks::count(), before + cores - 1);
}

}  // namespace
}  // namespace vpar::simrt
