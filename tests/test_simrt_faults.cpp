#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include "gtc/simulation.hpp"
#include "lbmhd/simulation.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

namespace vpar::simrt {
namespace {

using namespace std::chrono_literals;

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- deadlock watchdog -------------------------------------------------------

// The acceptance scenario from the issue: rank 0 returns without ever sending
// to rank 1, which blocks forever in recv. The watchdog must abort the job
// within its timeout and name the blocked call, source and tag.
TEST(Watchdog, AbortsDeadlockedRecvAndNamesTheWait) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 300ms;
  const auto start = std::chrono::steady_clock::now();
  try {
    run(options, [](Communicator& comm) {
      if (comm.rank() == 1) {
        int v = 0;
        comm.recv<int>(0, std::span<int>(&v, 1), 7);  // never sent
      }
    });
    FAIL() << "deadlocked job returned";
  } catch (const WatchdogTimeout& e) {
    const std::string report = e.what();
    EXPECT_TRUE(contains(report, "deadlock watchdog")) << report;
    EXPECT_TRUE(contains(report, "rank 0: finished")) << report;
    EXPECT_TRUE(contains(report, "rank 1: blocked in wait(irecv)")) << report;
    EXPECT_TRUE(contains(report, "source 0, tag 7")) << report;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 5s);  // fired by the watchdog, not a test timeout
}

// Rank 0 runs on the run() caller, so the caller cannot be the scanner: a
// deadlock that includes rank 0 must still be diagnosed, naming its wait.
TEST(Watchdog, DiagnosesADeadlockThatIncludesRankZero) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 300ms;
  const auto start = std::chrono::steady_clock::now();
  try {
    run(options, [](Communicator& comm) {
      int v = 0;
      comm.recv<int>(1 - comm.rank(), std::span<int>(&v, 1), 3);  // both wait
    });
    FAIL() << "deadlocked job returned";
  } catch (const WatchdogTimeout& e) {
    const std::string report = e.what();
    EXPECT_TRUE(contains(report, "rank 0: blocked in wait(irecv) (source 1, tag 3)"))
        << report;
    EXPECT_TRUE(contains(report, "rank 1: blocked in wait(irecv) (source 0, tag 3)"))
        << report;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 5s);
}

// A collective's tree receive polls before it parks; once parked, the report
// names the rank, the collective and the fragment it waits for.
TEST(Watchdog, NamesARankParkedInACollectiveReceive) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 300ms;
  try {
    run(options, [](Communicator& comm) {
      if (comm.rank() == 1) (void)comm.allreduce(1, ReduceOp::Sum);  // rank 0 never joins
    });
    FAIL() << "deadlocked job returned";
  } catch (const WatchdogTimeout& e) {
    const std::string report = e.what();
    EXPECT_TRUE(contains(report, "rank 0: finished")) << report;
    EXPECT_TRUE(contains(report, "rank 1: blocked in allreduce (source 0")) << report;
  }
}

// The report must expose the queue state a deadlock post-mortem needs:
// messages nobody received and receives nobody matched.
TEST(Watchdog, ReportListsQueuedMessagesAndPendingReceives) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 300ms;
  try {
    run(options, [](Communicator& comm) {
      if (comm.rank() == 0) {
        const int v = 9;
        comm.send<int>(1, std::span<const int>(&v, 1), 4);  // never received
      } else {
        int a = 0;
        Request pending = comm.irecv<int>(0, std::span<int>(&a, 1), 3);
        int b = 0;
        comm.recv<int>(0, std::span<int>(&b, 1), 5);  // never sent: deadlock
        pending.wait();
      }
    });
    FAIL() << "deadlocked job returned";
  } catch (const WatchdogTimeout& e) {
    const std::string report = e.what();
    EXPECT_TRUE(contains(report, "1 queued")) << report;
    // Two posted receives park unmatched: the explicit irecv and the one
    // the blocking recv posts internally.
    EXPECT_TRUE(contains(report, "2 pending recv")) << report;
  }
}

// A slow-but-alive job must not trip the watchdog: as long as one rank is
// running (not blocked), the deadlock scan declares the job alive.
TEST(Watchdog, DoesNotFireOnSlowComputation) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 100ms;
  const RunResult result = run(options, [](Communicator& comm) {
    if (comm.rank() == 0) std::this_thread::sleep_for(450ms);
    comm.barrier();
  });
  EXPECT_EQ(result.size(), 2);
}

TEST(EnvParsers, WatchdogMsAcceptsWholeMillisecondsUpToTheCap) {
  EXPECT_EQ(detail::watchdog_from_env(nullptr), 0ms);
  EXPECT_EQ(detail::watchdog_from_env(""), 0ms);
  EXPECT_EQ(detail::watchdog_from_env("0"), 0ms);
  EXPECT_EQ(detail::watchdog_from_env("20000"), 20000ms);
  const std::string cap = std::to_string(detail::kMaxWatchdogMs);
  EXPECT_EQ(detail::watchdog_from_env(cap.c_str()),
            std::chrono::milliseconds(detail::kMaxWatchdogMs));
}

// "5s" used to arm a 5 ms watchdog, "abc" and "-1" to disarm it silently,
// and 18446744073710 to wrap into a sub-millisecond one.
TEST(EnvParsers, WatchdogMsRejectsJunkSignsAndValuesAboveTheCap) {
  const std::string above = std::to_string(detail::kMaxWatchdogMs + 1);
  for (const char* bad : {"abc", "5s", "-1", "+5", " 5", "1.5", "18446744073710",
                          "99999999999999999999999", above.c_str()}) {
    try {
      (void)detail::watchdog_from_env(bad);
      ADD_FAILURE() << "accepted VPAR_WATCHDOG_MS='" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(contains(e.what(), "whole number of milliseconds")) << e.what();
    }
  }
}

// --- cooperative abort -------------------------------------------------------

// When one rank dies, peers blocked in receives must be woken with JobAborted
// instead of deadlocking, and the caller must see the original failure.
TEST(CooperativeAbort, WakesPeersBlockedInRecv) {
  RunOptions options;
  options.size = 3;
  options.watchdog = 5s;  // backstop only; the abort must wake peers itself
  const auto start = std::chrono::steady_clock::now();
  try {
    run(options, [](Communicator& comm) {
      if (comm.rank() == 2) {
        std::this_thread::sleep_for(50ms);  // let peers block first
        throw std::runtime_error("rank 2 exploded");
      }
      int v = 0;
      comm.recv<int>(2, std::span<int>(&v, 1), 1);  // never arrives
    });
    FAIL() << "job with a dead rank returned";
  } catch (const RankError& e) {
    EXPECT_EQ(e.failed_rank(), 2);
    EXPECT_TRUE(contains(e.what(), "rank 2 exploded")) << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 3s);
}

// A peer still polling (not yet parked) when another rank throws stops at
// the abort, and the caller sees the thrower's error: for both message
// waits, Request::wait (recv) and Mailbox::receive (recv_message).
TEST(CooperativeAbort, PeerPollingInRecvEndsWithTheJobError) {
  for (const bool posted : {true, false}) {
    RunOptions options;
    options.size = 2;
    options.watchdog = 5s;  // backstop only
    std::atomic<bool> waiting{false};
    try {
      run(options, [&](Communicator& comm) {
        if (comm.rank() == 0) {
          while (!waiting.load()) std::this_thread::yield();
          throw std::runtime_error("rank 0 exploded");
        }
        waiting.store(true);
        if (posted) {
          int v = 0;
          comm.recv<int>(0, std::span<int>(&v, 1), 1);  // never arrives
        } else {
          (void)comm.recv_message(0, 1);
        }
      });
      FAIL() << "job with a dead rank returned";
    } catch (const RankError& e) {
      EXPECT_EQ(e.failed_rank(), 0);
      EXPECT_TRUE(contains(e.what(), "rank 0 exploded")) << e.what();
    }
  }
}

// Same for peers parked in the rendezvous barrier (the P<=8 barrier path and
// the CoArray sync fence).
TEST(CooperativeAbort, WakesPeersBlockedInRendezvousBarrier) {
  RunOptions options;
  options.size = 4;
  options.watchdog = 5s;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(run(options,
                   [](Communicator& comm) {
                     if (comm.rank() == 3) {
                       std::this_thread::sleep_for(50ms);
                       throw std::runtime_error("boom");
                     }
                     comm.barrier();  // rendezvous path for P=4
                   }),
               RankError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 3s);
}

// The pool must survive an aborted job: the very next run on the same
// executor must work and report clean instrumentation.
TEST(CooperativeAbort, PoolStaysHealthyAfterAbortedJob) {
  RunOptions options;
  options.size = 4;
  options.watchdog = 2s;
  EXPECT_THROW(run(options,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) throw std::runtime_error("die");
                     comm.barrier();
                   }),
               RankError);
  const RunResult result = run(4, [](Communicator& comm) {
    const double sum = comm.allreduce(1.0, ReduceOp::Sum);
    if (sum != 4.0) throw std::runtime_error("bad allreduce after abort");
  });
  EXPECT_DOUBLE_EQ(result.merged.comm().aborts_observed(), 0.0);
}

// --- rank failure annotation -------------------------------------------------

// The exception rethrown by run() must name the failing rank and its last
// communication call site (issue satellite: debuggable failures).
TEST(RankFailure, ErrorNamesRankAndCommCallSite) {
  RunOptions options;
  options.size = 4;
  options.watchdog = 5s;
  options.fault.fail_rank = 2;
  options.fault.fail_at_call = 3;
  try {
    run(options, [](Communicator& comm) {
      for (int i = 0; i < 5; ++i) comm.barrier();
    });
    FAIL() << "fault-injected job returned";
  } catch (const RankError& e) {
    EXPECT_EQ(e.failed_rank(), 2);
    EXPECT_TRUE(contains(e.what(), "rank 2 failed")) << e.what();
    EXPECT_TRUE(contains(e.what(), "comm call #3")) << e.what();
    EXPECT_TRUE(contains(e.what(), "(barrier)")) << e.what();
    EXPECT_TRUE(contains(e.what(), "injected rank failure")) << e.what();
  }
}

// Replaying the same seed and plan must produce the identical failure.
TEST(RankFailure, InjectedFailureIsDeterministic) {
  RunOptions options;
  options.size = 3;
  options.watchdog = 5s;
  options.fault.seed = 1234;
  options.fault.fail_rank = 1;
  options.fault.fail_at_call = 2;
  auto what_of = [&] {
    try {
      run(options, [](Communicator& comm) {
        for (int i = 0; i < 4; ++i) (void)comm.allreduce(1, ReduceOp::Sum);
      });
      return std::string("(no error)");
    } catch (const RankError& e) {
      return std::string(e.what());
    }
  };
  const std::string first = what_of();
  const std::string second = what_of();
  EXPECT_TRUE(contains(first, "comm call #2")) << first;
  EXPECT_EQ(first, second);
}

// --- benign fault modes ------------------------------------------------------

// Delays and stragglers perturb timing only: results must be identical to a
// clean run, and the injected faults must be visible in the profile.
TEST(FaultInjection, DelaysAndStragglersPreserveResults) {
  RunOptions options;
  options.size = 4;
  options.watchdog = 10s;
  options.fault.seed = 7;
  options.fault.delay_prob = 0.5;
  options.fault.delay_max_us = 200;
  options.fault.straggler_ranks = {2};
  options.fault.straggle_us = 100;
  std::array<double, 4> chaotic{};
  const RunResult result = run(options, [&](Communicator& comm) {
    double value = static_cast<double>(comm.rank() + 1);
    for (int i = 0; i < 8; ++i) value = comm.allreduce(value, ReduceOp::Sum);
    chaotic[static_cast<std::size_t>(comm.rank())] = value;
  });
  std::array<double, 4> clean{};
  run(4, [&](Communicator& comm) {
    double value = static_cast<double>(comm.rank() + 1);
    for (int i = 0; i < 8; ++i) value = comm.allreduce(value, ReduceOp::Sum);
    clean[static_cast<std::size_t>(comm.rank())] = value;
  });
  EXPECT_EQ(chaotic, clean);
  EXPECT_GT(result.merged.comm().faults_injected(), 0.0);
}

// An injected bit-flip must surface as a checksum failure when checksums are
// on. (The ChecksumError is annotated as a RankError at the run() boundary.)
TEST(FaultInjection, BitflipDetectedByChecksum) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  options.checksums = true;
  options.fault.seed = 99;
  options.fault.bitflip_prob = 1.0;
  try {
    run(options, [](Communicator& comm) {
      std::vector<double> buf(32, 1.5);
      if (comm.rank() == 0) {
        comm.send<double>(1, std::span<const double>(buf), 2);
      } else {
        comm.recv<double>(0, std::span<double>(buf), 2);
      }
    });
    FAIL() << "corrupted payload went undetected";
  } catch (const RankError& e) {
    EXPECT_EQ(e.failed_rank(), 1);
    EXPECT_TRUE(contains(e.what(), "checksum mismatch")) << e.what();
  }
}

// Without checksums the same flip is silent corruption — the run succeeds
// and the receiver observes altered bytes. This is the contract the
// checksums option exists to close.
TEST(FaultInjection, BitflipIsSilentWithoutChecksums) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  options.checksums = false;
  options.fault.seed = 99;
  options.fault.bitflip_prob = 1.0;
  std::vector<double> sent(32, 1.5);
  std::vector<double> received(32, 0.0);
  const RunResult result = run(options, [&](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, std::span<const double>(sent), 2);
    } else {
      comm.recv<double>(0, std::span<double>(received), 2);
    }
  });
  EXPECT_NE(0, std::memcmp(sent.data(), received.data(),
                           sent.size() * sizeof(double)));
  EXPECT_GT(result.merged.comm().faults_injected(), 0.0);
}

// Injected reordering may only jump messages across (source, tag) streams:
// the per-(sender, tag) FIFO guarantee holds under maximum reorder pressure.
TEST(FaultInjection, ReorderPreservesPerStreamFifo) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 10s;
  options.fault.seed = 5;
  options.fault.reorder_prob = 1.0;
  constexpr int kN = 40;
  run(options, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        comm.send<int>(1, std::span<const int>(&i, 1), 7);
        const int noise = -i;
        comm.send<int>(1, std::span<const int>(&noise, 1), 8);
      }
    } else {
      int previous = -1;
      for (int i = 0; i < kN; ++i) {
        int v = 0;
        comm.recv<int>(0, std::span<int>(&v, 1), 7);
        EXPECT_GT(v, previous);  // stream order intact
        previous = v;
      }
      for (int i = 0; i < kN; ++i) {
        int v = 0;
        comm.recv<int>(0, std::span<int>(&v, 1), 8);
      }
    }
  });
}

// --- request cancellation (issue satellite) ---------------------------------

// An irecv destroyed before its match must neither dangle (the message may
// not be written through the dead buffer) nor leak its arena buffer: on a
// warmed-up second run the payload traffic must be fully recycled.
TEST(RequestCancellation, CancelledIrecvNeitherDanglesNorLeaks) {
  // Which thread frees a payload depends on the send/recv race: direct
  // handoff into a posted buffer frees on the sender, queued-then-matched
  // frees on the receiver — and a receiver-side free parks the block in the
  // receiver's thread cache, where the sender's next acquire cannot see it.
  // To make the measured run's recycling independent of how each race goes,
  // the warm job deterministically overflows the receiver's per-thread cache
  // (256 KiB / 8 KiB payloads = 32 blocks): every send is queued before any
  // receive posts, so all frees land on the receiver and the overflow spills
  // to the shared free lists the sender *can* reach.
  constexpr std::size_t kElems = 1024;  // well past inline capacity: arena
  auto warm = [](Communicator& comm) {
    constexpr int kWarm = 40;  // > per-thread cache cap of 32 blocks
    if (comm.rank() == 0) {
      std::vector<double> data(kElems, 1.0);
      for (int i = 0; i < kWarm; ++i) {
        comm.send<double>(1, std::span<const double>(data), 9);
      }
    }
    comm.barrier();
    if (comm.rank() == 1) {
      std::vector<double> got(kElems, 0.0);
      for (int i = 0; i < kWarm; ++i) {
        comm.recv<double>(0, std::span<double>(got), 9);
      }
    }
  };
  constexpr int kIters = 16;
  auto job = [](Communicator& comm) {
    if (comm.rank() == 1) {
      std::vector<double> doomed(kElems);
      Request r = comm.irecv<double>(0, std::span<double>(doomed), 9);
      // Destroyed before any match: the runtime must stop matching it.
    }
    comm.barrier();
    // Lockstep round trips (the ack is inline-sized, no arena traffic):
    // buffered sends would otherwise run ahead of the receiver's frees.
    for (int i = 0; i < kIters; ++i) {
      if (comm.rank() == 0) {
        std::vector<double> data(kElems, 3.25);
        comm.send<double>(1, std::span<const double>(data), 9);
        int ack = 0;
        comm.recv<int>(1, std::span<int>(&ack, 1), 10);
      } else {
        std::vector<double> got(kElems, 0.0);
        comm.recv<double>(0, std::span<double>(got), 9);
        EXPECT_DOUBLE_EQ(got.front(), 3.25);
        EXPECT_DOUBLE_EQ(got.back(), 3.25);
        const int ack = i;
        comm.send<int>(0, std::span<const int>(&ack, 1), 10);
      }
    }
  };
  (void)run(2, warm);  // fill the shared free lists
  const RunResult warmed = run(2, job);
  EXPECT_DOUBLE_EQ(warmed.merged.comm().payload_allocs(), 0.0);
  EXPECT_GE(warmed.merged.comm().payload_recycles(), 1.0);
}

// --- retry policy ------------------------------------------------------------

TEST(RetryPolicy, RetriesTransientFailureThenSucceeds) {
  std::atomic<int> attempts{0};
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff = 1ms;
  const RetryResult r = run_with_retry(
      options,
      [&](Communicator& comm) {
        if (comm.rank() == 0) {
          const int attempt = attempts.fetch_add(1) + 1;
          if (attempt < 3) throw std::runtime_error("transient");
        }
        comm.barrier();
      },
      policy);
  EXPECT_EQ(r.attempts, 3);
  EXPECT_EQ(attempts.load(), 3);
}

TEST(RetryPolicy, GivesUpAfterBoundedRetriesAndRethrows) {
  std::atomic<int> attempts{0};
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.backoff = 1ms;
  EXPECT_THROW(run_with_retry(
                   options,
                   [&](Communicator& comm) {
                     if (comm.rank() == 0) {
                       attempts.fetch_add(1);
                       throw std::runtime_error("permanent");
                     }
                     comm.barrier();
                   },
                   policy),
               RankError);
  EXPECT_EQ(attempts.load(), 2);  // first try + one retry
}

// Injected faults are disarmed on retry by default: a plan that always kills
// rank 0 still converges on the second attempt.
TEST(RetryPolicy, DisarmsFaultPlanOnRetry) {
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  options.fault.fail_rank = 0;
  options.fault.fail_at_call = 1;
  const RetryResult r = run_with_retry(
      options, [](Communicator& comm) { comm.barrier(); });
  EXPECT_EQ(r.attempts, 2);
}

// --- per-job deadlines -------------------------------------------------------

TEST(Deadline, AbortsRunningJobAndNamesTheOverrun) {
  RunOptions options;
  options.size = 2;
  options.deadline = std::chrono::steady_clock::now() + 100ms;
  const auto start = std::chrono::steady_clock::now();
  try {
    run(options, [](Communicator& comm) {
      int v = 0;
      const int peer = comm.rank() == 0 ? 1 : 0;
      comm.recv<int>(peer, std::span<int>(&v, 1), 9);  // never sent
    });
    FAIL() << "job survived its deadline";
  } catch (const DeadlineExceeded& e) {
    EXPECT_TRUE(contains(e.what(), "deadline")) << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 5s);  // killed by the deadline, not a test timeout
}

// Rank 0 computes on the caller's thread between communication calls; the
// deadline is enforced from elsewhere and the abort reaches rank 0 at its
// next call.
TEST(Deadline, AbortsRankZeroComputingOnTheCaller) {
  RunOptions options;
  options.size = 2;
  options.deadline = std::chrono::steady_clock::now() + 100ms;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> rank0_on_caller{false};
  const auto start = std::chrono::steady_clock::now();
  try {
    run(options, [&](Communicator& comm) {
      if (comm.rank() == 0) {
        rank0_on_caller = std::this_thread::get_id() == caller;
      }
      // About 10 s of steps unless the deadline cuts them short.
      for (int step = 0; step < 10'000; ++step) {
        if (comm.rank() == 0) std::this_thread::sleep_for(1ms);
        comm.barrier();
      }
    });
    FAIL() << "job survived its deadline";
  } catch (const DeadlineExceeded& e) {
    EXPECT_TRUE(contains(e.what(), "deadline")) << e.what();
  }
  EXPECT_TRUE(rank0_on_caller.load());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 5s);
}

TEST(Deadline, GenerousDeadlineDoesNotPerturbTheJob) {
  RunOptions options;
  options.size = 2;
  options.deadline = std::chrono::steady_clock::now() + 30s;
  const RunResult r = run(options, [](Communicator& comm) { comm.barrier(); });
  EXPECT_EQ(r.size(), 2);
}

// The deadline is an absolute budget: once it fires, rerunning cannot buy it
// back, so the retry loop must rethrow instead of retrying.
TEST(Deadline, ExpiredBudgetIsNeverRetried) {
  std::atomic<int> attempts{0};
  RunOptions options;
  options.size = 2;
  options.deadline = std::chrono::steady_clock::now() + 80ms;
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff = 1ms;
  EXPECT_THROW(run_with_retry(
                   options,
                   [&](Communicator& comm) {
                     if (comm.rank() == 0) attempts.fetch_add(1);
                     int v = 0;
                     const int peer = comm.rank() == 0 ? 1 : 0;
                     comm.recv<int>(peer, std::span<int>(&v, 1), 9);
                   },
                   policy),
               DeadlineExceeded);
  EXPECT_EQ(attempts.load(), 1);
}

// A retry whose backoff pause alone would sleep past the deadline is not
// attempted: the failure is rethrown immediately with the budget intact.
TEST(RetryPolicy, NoRetryWhosePauseWouldSleepPastTheDeadline) {
  std::atomic<int> attempts{0};
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  options.deadline = std::chrono::steady_clock::now() + 200ms;
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff = std::chrono::milliseconds{10'000};
  EXPECT_THROW(run_with_retry(
                   options,
                   [&](Communicator& comm) {
                     if (comm.rank() == 0) {
                       attempts.fetch_add(1);
                       throw std::runtime_error("permanent");
                     }
                     comm.barrier();
                   },
                   policy),
               RankError);
  EXPECT_EQ(attempts.load(), 1);
}

// --- backoff shape -----------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyToTheCap) {
  RetryPolicy policy;
  policy.backoff = 10ms;
  policy.backoff_factor = 2.0;
  policy.max_backoff = 80ms;
  policy.jitter = 0.0;
  EXPECT_EQ(retry_backoff(policy, 0), 10ms);
  EXPECT_EQ(retry_backoff(policy, 1), 20ms);
  EXPECT_EQ(retry_backoff(policy, 2), 40ms);
  EXPECT_EQ(retry_backoff(policy, 3), 80ms);
  EXPECT_EQ(retry_backoff(policy, 9), 80ms);  // capped, no overflow
}

TEST(RetryPolicy, JitterIsBoundedDeterministicAndSeedDependent) {
  RetryPolicy policy;
  policy.backoff = 1000ms;
  policy.backoff_factor = 2.0;
  policy.max_backoff = std::chrono::milliseconds{0};  // uncapped
  policy.jitter = 0.5;
  std::vector<std::chrono::milliseconds> pauses;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    policy.jitter_seed = seed;
    const auto pause = retry_backoff(policy, 2);  // base 4000ms
    EXPECT_GE(pause, 2000ms) << "seed " << seed;
    EXPECT_LE(pause, 4000ms) << "seed " << seed;
    EXPECT_EQ(pause, retry_backoff(policy, 2)) << "seed " << seed;
    pauses.push_back(pause);
  }
  std::sort(pauses.begin(), pauses.end());
  pauses.erase(std::unique(pauses.begin(), pauses.end()), pauses.end());
  EXPECT_GT(pauses.size(), 1u);  // seeds actually de-synchronize the herd
}

// Every attempt bumps retry.attempts on the process-wide registry; an
// exhausted chain bumps retry.giveups as the failure is rethrown.
TEST(RetryPolicy, MetersAttemptsAndGiveups) {
  const auto before = trace::Metrics::instance().snapshot();
  RunOptions options;
  options.size = 2;
  options.watchdog = 5s;
  RetryPolicy policy;
  policy.max_retries = 1;
  policy.backoff = 1ms;
  const RetryResult ok = run_with_retry(
      options, [](Communicator& comm) { comm.barrier(); }, policy);
  EXPECT_EQ(ok.attempts, 1);
  EXPECT_THROW(run_with_retry(
                   options,
                   [](Communicator& comm) {
                     if (comm.rank() == 0) throw std::runtime_error("permanent");
                     comm.barrier();
                   },
                   policy),
               RankError);
  const auto diff = trace::Metrics::instance().snapshot().diff(before);
  const auto counter = [&](const char* name) {
    const auto it = diff.counters.find(name);
    return it == diff.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(counter("retry.attempts"), 3u);  // 1 success + 2 failed attempts
  EXPECT_EQ(counter("retry.giveups"), 1u);
}

// --- chaos vs clean application runs ----------------------------------------

lbmhd::Options lbmhd_test_options() {
  lbmhd::Options o;
  o.nx = 32;
  o.ny = 32;
  o.px = 2;
  o.py = 2;
  return o;
}

bool diagnostics_equal(const lbmhd::Diagnostics& a, const lbmhd::Diagnostics& b) {
  return a.mass == b.mass && a.momentum_x == b.momentum_x &&
         a.momentum_y == b.momentum_y && a.bx_total == b.bx_total &&
         a.by_total == b.by_total && a.kinetic_energy == b.kinetic_energy &&
         a.magnetic_energy == b.magnetic_energy;
}

// Benign chaos (delays + a straggler) must not change LBMHD physics at all:
// the diagnostics of a chaotic run are bitwise-identical to a clean run.
TEST(ChaosRun, LbmhdDiagnosticsBitwiseIdenticalUnderBenignChaos) {
  const auto opts = lbmhd_test_options();
  auto body = [&](Communicator& comm, lbmhd::Diagnostics& out) {
    lbmhd::Simulation sim(comm, opts);
    sim.initialize(lbmhd::orszag_tang_ic());
    sim.run(4);
    const auto d = sim.diagnostics();
    if (comm.rank() == 0) out = d;
  };
  lbmhd::Diagnostics clean;
  run(4, [&](Communicator& comm) { body(comm, clean); });

  RunOptions options;
  options.size = 4;
  options.watchdog = 30s;
  options.fault.seed = 21;
  options.fault.delay_prob = 0.2;
  options.fault.delay_max_us = 100;
  options.fault.straggler_ranks = {1};
  options.fault.straggle_us = 50;
  lbmhd::Diagnostics chaotic;
  const RunResult result =
      run(options, [&](Communicator& comm) { body(comm, chaotic); });
  EXPECT_TRUE(diagnostics_equal(clean, chaotic));
  EXPECT_GT(result.merged.comm().faults_injected(), 0.0);
}

// The issue's checkpoint/restart acceptance test, LBMHD edition: a run that
// is killed mid-flight by an injected rank failure, restored from its last
// checkpoint and retried must produce bitwise-identical diagnostics to a
// fault-free run of the same length.
TEST(CheckpointRestart, LbmhdFaultRestoreRerunBitwiseIdentical) {
  const auto opts = lbmhd_test_options();
  constexpr int kStepsBefore = 3;
  constexpr int kStepsAfter = 3;

  // Reference: clean, uninterrupted run.
  lbmhd::Diagnostics reference;
  run(4, [&](Communicator& comm) {
    lbmhd::Simulation sim(comm, opts);
    sim.initialize(lbmhd::orszag_tang_ic());
    sim.run(kStepsBefore + kStepsAfter);
    const auto d = sim.diagnostics();
    if (comm.rank() == 0) reference = d;
  });

  // Probe: comm calls consumed by the pre-checkpoint phase, so the injected
  // failure can be aimed squarely at the post-checkpoint phase.
  std::uint64_t calls_before = 0;
  run(4, [&](Communicator& comm) {
    lbmhd::Simulation sim(comm, opts);
    sim.initialize(lbmhd::orszag_tang_ic());
    sim.run(kStepsBefore);
    if (comm.rank() == 1) calls_before = comm.comm_calls();
  });
  ASSERT_GT(calls_before, 0u);

  // Chaos: rank 1 is killed two calls into the post-checkpoint phase (the
  // +1 skips the checkpoint barrier). The retry restores and reruns.
  std::vector<lbmhd::Simulation::Checkpoint> checkpoints(4);
  std::atomic<bool> have_checkpoint{false};
  RunOptions options;
  options.size = 4;
  options.watchdog = 30s;
  options.fault.fail_rank = 1;
  options.fault.fail_at_call = calls_before + 2;
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff = 1ms;
  lbmhd::Diagnostics recovered;
  const RetryResult r = run_with_retry(
      options,
      [&](Communicator& comm) {
        lbmhd::Simulation sim(comm, opts);
        sim.initialize(lbmhd::orszag_tang_ic());
        if (have_checkpoint.load()) {
          sim.restore_state(checkpoints[static_cast<std::size_t>(comm.rank())]);
        } else {
          sim.run(kStepsBefore);
          checkpoints[static_cast<std::size_t>(comm.rank())] = sim.save_state();
          comm.barrier();  // every rank checkpointed before anyone may die
          if (comm.rank() == 0) have_checkpoint.store(true);
        }
        sim.run(kStepsAfter);
        const auto d = sim.diagnostics();
        if (comm.rank() == 0) recovered = d;
      },
      policy);
  EXPECT_EQ(r.attempts, 2);  // the injected kill really happened
  EXPECT_TRUE(have_checkpoint.load());
  EXPECT_TRUE(diagnostics_equal(reference, recovered));
}

// Same acceptance test, GTC edition: the particle population is the full
// evolving state, so restore + rerun must reproduce the clean run exactly.
TEST(CheckpointRestart, GtcFaultRestoreRerunBitwiseIdentical) {
  gtc::Options opts;
  opts.ngx = 16;
  opts.ngy = 16;
  opts.nplanes = 4;
  opts.particles_per_cell = 4;
  constexpr int kStepsBefore = 2;
  constexpr int kStepsAfter = 2;

  double ref_energy = 0.0, ref_charge = 0.0;
  run(4, [&](Communicator& comm) {
    gtc::Simulation sim(comm, opts);
    sim.load_particles();
    sim.run(kStepsBefore + kStepsAfter);
    const double e = sim.field_energy();
    const double q = sim.global_particle_charge();
    if (comm.rank() == 0) {
      ref_energy = e;
      ref_charge = q;
    }
  });

  std::uint64_t calls_before = 0;
  run(4, [&](Communicator& comm) {
    gtc::Simulation sim(comm, opts);
    sim.load_particles();
    sim.run(kStepsBefore);
    if (comm.rank() == 1) calls_before = comm.comm_calls();
  });
  ASSERT_GT(calls_before, 0u);

  std::vector<gtc::Simulation::Checkpoint> checkpoints(4);
  std::atomic<bool> have_checkpoint{false};
  RunOptions options;
  options.size = 4;
  options.watchdog = 30s;
  options.fault.fail_rank = 1;
  options.fault.fail_at_call = calls_before + 2;
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff = 1ms;
  double got_energy = 0.0, got_charge = 0.0;
  const RetryResult r = run_with_retry(
      options,
      [&](Communicator& comm) {
        gtc::Simulation sim(comm, opts);
        sim.load_particles();
        if (have_checkpoint.load()) {
          sim.restore_state(checkpoints[static_cast<std::size_t>(comm.rank())]);
        } else {
          sim.run(kStepsBefore);
          checkpoints[static_cast<std::size_t>(comm.rank())] = sim.save_state();
          comm.barrier();
          if (comm.rank() == 0) have_checkpoint.store(true);
        }
        sim.run(kStepsAfter);
        const double e = sim.field_energy();
        const double q = sim.global_particle_charge();
        if (comm.rank() == 0) {
          got_energy = e;
          got_charge = q;
        }
      },
      policy);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_TRUE(have_checkpoint.load());
  EXPECT_EQ(ref_energy, got_energy);  // bitwise
  EXPECT_EQ(ref_charge, got_charge);
}

}  // namespace
}  // namespace vpar::simrt
