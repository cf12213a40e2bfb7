#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "simrt/runtime.hpp"
#include "simrt/transport.hpp"

namespace vpar::simrt {

/// Everything one rank process needs to join a multi-process job, parsed
/// from the environment the launcher (scripts/vpar_launch) exports:
///
///   VPAR_TRANSPORT          socket (inproc => not distributed)
///   VPAR_RANK               this process's rank in [0, world)
///   VPAR_WORLD              team size
///   VPAR_SESSION_DIR        per-job scratch dir (Unix socket endpoints)
///   VPAR_TCP_BASE           socket backend: loopback TCP instead of Unix
///                           sockets, rank i listening on base + i
///   VPAR_HEARTBEAT_MS       peer-failure detector beacon period
///   VPAR_PEER_TIMEOUT_MS    silence past this => PeerLost (0 disables)
///   VPAR_CONNECT_TIMEOUT_MS mesh bring-up bound
struct DistConfig {
  TransportKind kind = TransportKind::Inproc;
  int rank = 0;
  int world = 1;
  std::string session_dir;
  int tcp_base = 0;
  std::chrono::milliseconds heartbeat{200};
  std::chrono::milliseconds peer_timeout{2'000};
  std::chrono::milliseconds connect_timeout{10'000};
};

/// Parse the distributed environment. kind == Inproc (with defaulted fields)
/// when VPAR_TRANSPORT selects the in-process backend; throws TransportError
/// on inconsistent settings (missing rank/world, rank out of range, no
/// endpoint configuration).
[[nodiscard]] DistConfig dist_config_from_env();

/// True when this process was launched as one rank of a multi-process job
/// (VPAR_TRANSPORT=socket plus VPAR_RANK/VPAR_WORLD). Read once and
/// cached — the decision must not flip mid-process.
[[nodiscard]] bool distributed_env_active();

/// This process's rank / the team size under distributed_env_active();
/// -1 / 0 otherwise.
[[nodiscard]] int distributed_rank();
[[nodiscard]] int distributed_world();

/// True while the calling thread is inside a distributed rank body: nested
/// simrt::run calls from there execute in-process (the session cannot host a
/// job within a job).
[[nodiscard]] bool in_distributed_body();

/// Run `body` as this process's rank of a `options.size`-rank multi-process
/// job. The first call brings up the socket mesh (blocking until all ranks
/// arrive); subsequent calls reuse the session, so a program of several
/// run() calls pays bring-up once. Every rank process must make the same
/// sequence of run() calls with the same sizes.
///
/// Semantics relative to the in-process executor:
///  - the body runs on the calling thread (one rank per process);
///  - watchdog/deadline supervision watches this rank only and folds the
///    transport's peer-liveness report into any timeout report;
///  - a peer process dying mid-job surfaces as PeerLost naming the rank;
///  - the returned RunResult carries this rank's recorder only (merged ==
///    per_rank[rank]); cross-rank profile merging needs a gather the caller
///    owns.
///
/// simrt::run() dispatches here automatically when the distributed
/// environment is active and options.size == distributed_world().
RunResult run_distributed(const RunOptions& options,
                          const std::function<void(Communicator&)>& body);

}  // namespace vpar::simrt
