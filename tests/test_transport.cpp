// Transport layer tests: wire-frame codec units, distributed-environment
// parsing, and true multi-process suites. The multi-process tests fork rank
// processes that re-exec this binary with `--vpar-child <mode>` and the
// distributed environment set (VPAR_TRANSPORT/VPAR_RANK/VPAR_WORLD/...), so
// every child is a real separate process exactly like a vpar_launch rank:
//
//  - equivalence: ring exchange, collectives and small LBMHD and QCD runs
//    must be bitwise-identical between the in-process executor and the
//    socket backend (the determinism claim of docs/transport.md);
//  - failure: killing one rank process mid-run surfaces as PeerLost at the
//    survivors, and relaunching recovers from the last complete checkpoint
//    to a final state bitwise-identical to the never-killed run; a stopped
//    (wedged) rank, whose sockets stay open, is caught by heartbeat silence;
//  - chaos: a seeded benign fault plan (delays, reorder, stragglers) with
//    checksums on behaves identically over the socket transport.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "lbmhd/simulation.hpp"
#include "qcd/simulation.hpp"
#include "simrt/distributed.hpp"
#include "simrt/fault.hpp"
#include "simrt/runtime.hpp"
#include "simrt/transport.hpp"

extern char** environ;

namespace {

using vpar::simrt::Communicator;
using vpar::simrt::FrameHeader;
using vpar::simrt::FrameType;
using vpar::simrt::Message;
using vpar::simrt::Payload;
using vpar::simrt::TransportError;
using vpar::simrt::TransportKind;

// --- process plumbing -------------------------------------------------------

struct EnvVar {
  std::string key, value;
};

/// Fork + exec this binary as `--vpar-child <mode>`. The child environment
/// is the parent's minus every VPAR_* variable, plus `extra` — children must
/// see exactly the distributed environment the test composes. Arrays are
/// prebuilt so the post-fork child only calls execve/_exit.
pid_t spawn_child(const std::string& mode, const std::vector<EnvVar>& extra) {
  auto envs = std::make_unique<std::vector<std::string>>();
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VPAR_", 5) != 0) envs->emplace_back(*e);
  }
  for (const auto& v : extra) envs->push_back(v.key + "=" + v.value);
  auto args = std::make_unique<std::vector<std::string>>(
      std::vector<std::string>{"/proc/self/exe", "--vpar-child", mode});
  std::vector<char*> argv, envp;
  for (auto& a : *args) argv.push_back(a.data());
  argv.push_back(nullptr);
  for (auto& e : *envs) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve("/proc/self/exe", argv.data(), envp.data());
    _exit(127);
  }
  return pid;
}

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int wait_status(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return decode_status(status);
}

/// As wait_status, but gives up at `deadline` and returns -1 with the child
/// still running, so a missed failure detection fails a test instead of
/// hanging it.
int wait_status_until(pid_t pid, std::chrono::steady_clock::time_point deadline) {
  for (;;) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid) return decode_status(status);
    if (got < 0 || std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// RAII per-test session directory (socket endpoints, artifacts).
struct Session {
  std::string dir;
  Session() {
    char tmpl[] = "/tmp/vpar-test-XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    dir = made;
  }
  ~Session() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// The socket-backend environment of one rank, with `extra` replacing
/// same-named defaults (getenv reads the first match, so an appended
/// duplicate would be ignored).
std::vector<EnvVar> dist_env(int rank, int world, const std::string& session,
                             const std::vector<EnvVar>& extra) {
  std::vector<EnvVar> env = {{"VPAR_TRANSPORT", "socket"},
                             {"VPAR_RANK", std::to_string(rank)},
                             {"VPAR_WORLD", std::to_string(world)},
                             {"VPAR_SESSION_DIR", session},
                             {"VPAR_HEARTBEAT_MS", "100"},
                             {"VPAR_PEER_TIMEOUT_MS", "3000"}};
  for (const auto& v : extra) {
    auto same = std::find_if(env.begin(), env.end(),
                             [&](const EnvVar& e) { return e.key == v.key; });
    if (same != env.end()) {
      same->value = v.value;
    } else {
      env.push_back(v);
    }
  }
  return env;
}

/// Start one rank process per rank of a socket job.
std::vector<pid_t> spawn_world(int world, const std::string& mode,
                               const std::string& session,
                               const std::vector<EnvVar>& extra) {
  std::vector<pid_t> pids;
  pids.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    pids.push_back(spawn_child(mode, dist_env(r, world, session, extra)));
  }
  return pids;
}

/// Launch one rank process per rank, wait for all, return the exit codes.
std::vector<int> launch_world(int world, const std::string& mode,
                              const std::string& session,
                              const std::vector<EnvVar>& extra = {}) {
  const std::vector<pid_t> pids = spawn_world(world, mode, session, extra);
  std::vector<int> codes;
  codes.reserve(pids.size());
  for (const pid_t pid : pids) codes.push_back(wait_status(pid));
  return codes;
}

std::vector<double> read_doubles(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  const auto bytes = static_cast<std::size_t>(in.tellg());
  std::vector<double> out(bytes / sizeof(double));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(out.size() * sizeof(double)));
  return out;
}

void write_doubles(const std::string& path, const std::vector<double>& data) {
  // tmp + rename: a file that exists is complete (the checkpoint-set scan
  // and the parent's artifact reads rely on this).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size() * sizeof(double)));
  }
  std::filesystem::rename(tmp, path);
}

// --- shared rank bodies (parent reference and children run the same code) ---

long env_long_or(const char* name, long fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtol(s, nullptr, 10) : fallback;
}

constexpr int kLbmhdSteps = 12;

vpar::lbmhd::Options lbmhd_options() {
  vpar::lbmhd::Options opt;
  opt.nx = 32;
  opt.ny = 32;
  opt.px = 2;
  opt.py = 2;
  return opt;
}

/// Run the small LBMHD problem and return Density+Bx+By gathered on rank 0
/// (empty elsewhere). Identical code runs in-process and distributed — any
/// byte of difference is the transport's fault.
std::vector<double> lbmhd_final_fields(Communicator& comm, int steps) {
  using vpar::lbmhd::Simulation;
  Simulation sim(comm, lbmhd_options());
  sim.initialize(vpar::lbmhd::orszag_tang_ic());
  sim.run(steps);
  std::vector<double> out;
  for (const auto field : {Simulation::Field::Density, Simulation::Field::Bx,
                           Simulation::Field::By}) {
    const auto g = sim.gather(field);
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

constexpr int kQcdSteps = 4;

vpar::qcd::Options qcd_options() {
  vpar::qcd::Options opt;
  opt.nx = 8;
  opt.ny = 4;
  opt.nz = 4;
  opt.nt = 6;
  return opt;
}

/// Run the small QCD problem (4D halo exchange through vpar_part plus the
/// per-step norm allreduce) and return the gathered field on rank 0.
std::vector<double> qcd_final_psi(Communicator& comm, int steps) {
  vpar::qcd::Simulation sim(comm, qcd_options());
  sim.initialize();
  sim.run(steps);
  return sim.gather_psi();
}

void ring_and_collectives_body(Communicator& comm) {
  const int rank = comm.rank();
  const int P = comm.size();
  // Ring exchange with a rank-keyed pattern (messages large enough to leave
  // the inline payload tier).
  std::vector<std::uint64_t> out(512);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = (static_cast<std::uint64_t>(rank) << 32) ^ (i * 2654435761u);
  }
  comm.send(( rank + 1) % P, std::span<const std::uint64_t>(out), 7);
  std::vector<std::uint64_t> in(out.size());
  comm.recv((rank - 1 + P) % P, std::span<std::uint64_t>(in), 7);
  const int prev = (rank - 1 + P) % P;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint64_t want =
        (static_cast<std::uint64_t>(prev) << 32) ^ (i * 2654435761u);
    if (in[i] != want) throw std::runtime_error("ring payload mismatch");
  }
  // Collectives over the same transport.
  const double sum = comm.allreduce(static_cast<double>(rank),
                                    vpar::simrt::ReduceOp::Sum);
  if (sum != static_cast<double>(P * (P - 1) / 2)) {
    throw std::runtime_error("allreduce sum mismatch");
  }
  std::vector<int> bcast(16, rank == 0 ? 41 : 0);
  comm.broadcast(std::span<int>(bcast), 0);
  for (const int v : bcast) {
    if (v != 41) throw std::runtime_error("broadcast mismatch");
  }
  comm.barrier();
}

// --- child mains ------------------------------------------------------------

int child_ring() {
  const int world = vpar::simrt::distributed_world();
  vpar::simrt::run(world, ring_and_collectives_body);
  // Second run on the same session: bring-up happens once, mailboxes carry
  // over, and a peer racing into this run early must not confuse anyone.
  vpar::simrt::run(world, [](Communicator& comm) {
    const double top = comm.allreduce(static_cast<double>(comm.rank()),
                                      vpar::simrt::ReduceOp::Max);
    if (top != static_cast<double>(comm.size() - 1)) {
      throw std::runtime_error("second-run allreduce mismatch");
    }
  });
  return 0;
}

int child_lbmhd() {
  const int world = vpar::simrt::distributed_world();
  const char* out_path = std::getenv("VPAR_TEST_OUT");
  if (world != 4 || out_path == nullptr) return 3;
  const std::string path = out_path;
  vpar::simrt::run(world, [&](Communicator& comm) {
    const auto fields = lbmhd_final_fields(comm, kLbmhdSteps);
    if (comm.rank() == 0) write_doubles(path, fields);
  });
  return 0;
}

int child_qcd() {
  const int world = vpar::simrt::distributed_world();
  const char* out_path = std::getenv("VPAR_TEST_OUT");
  if (world != 4 || out_path == nullptr) return 3;
  const std::string path = out_path;
  vpar::simrt::run(world, [&](Communicator& comm) {
    const auto psi = qcd_final_psi(comm, kQcdSteps);
    if (comm.rank() == 0) write_doubles(path, psi);
  });
  return 0;
}

/// LBMHD with per-rank checkpoints. Rank VPAR_KILL_RANK dies at step
/// VPAR_KILL_STEP: with `wedge` it stops itself (SIGSTOP), keeping its
/// sockets open, otherwise it exits hard. A survivor that observes the loss
/// writes the failure report to <session>/lost-rank<r>.txt and exits 42.
int child_lbmhd_kill(bool wedge) {
  const int world = vpar::simrt::distributed_world();
  const int kill_rank = static_cast<int>(env_long_or("VPAR_KILL_RANK", -1));
  const int kill_step = static_cast<int>(env_long_or("VPAR_KILL_STEP", -1));
  const int restart = static_cast<int>(env_long_or("VPAR_RESTART", 0));
  const std::string dir = std::getenv("VPAR_SESSION_DIR");
  constexpr int kTotalSteps = 10;
  constexpr int kCheckpointEvery = 4;

  const auto ckpt_path = [&](int step, int rank) {
    return dir + "/ckpt-" + std::to_string(step) + "-rank" +
           std::to_string(rank) + ".bin";
  };
  const auto complete_checkpoint = [&] {
    // Latest step for which EVERY rank's file exists; files are written
    // tmp+rename, so existence means complete.
    for (int step = kTotalSteps - 1; step > 0; --step) {
      if (step % kCheckpointEvery != 0) continue;
      bool all = true;
      for (int r = 0; r < world && all; ++r) {
        all = std::filesystem::exists(ckpt_path(step, r));
      }
      if (all) return step;
    }
    return 0;
  };

  try {
    vpar::simrt::run(world, [&](Communicator& comm) {
      using vpar::lbmhd::Simulation;
      Simulation sim(comm, lbmhd_options());
      sim.initialize(vpar::lbmhd::orszag_tang_ic());
      int start = 0;
      if (restart > 0) {
        const int step = complete_checkpoint();
        if (step > 0) {
          Simulation::Checkpoint ckpt;
          ckpt.fields = read_doubles(ckpt_path(step, comm.rank()));
          sim.restore_state(ckpt);
          start = step;
          write_doubles(dir + "/resumed-from-" + std::to_string(step) +
                            "-rank" + std::to_string(comm.rank()),
                        {static_cast<double>(step)});
        }
      }
      for (int s = start; s < kTotalSteps; ++s) {
        if (restart == 0 && comm.rank() == kill_rank && s == kill_step) {
          if (wedge) ::raise(SIGSTOP);  // alive to the kernel, silent to peers
          _exit(137);  // simulated hard death: no Goodbye, no destructors
        }
        sim.step();
        const int done = s + 1;
        if (done % kCheckpointEvery == 0 && done < kTotalSteps) {
          write_doubles(ckpt_path(done, comm.rank()), sim.save_state().fields);
        }
      }
      std::vector<double> out;
      for (const auto field :
           {Simulation::Field::Density, Simulation::Field::Bx,
            Simulation::Field::By}) {
        const auto g = sim.gather(field);
        out.insert(out.end(), g.begin(), g.end());
      }
      if (comm.rank() == 0) write_doubles(dir + "/final.bin", out);
    });
  } catch (const vpar::simrt::JobAborted& e) {  // PeerLost is one
    std::ofstream(dir + "/lost-rank" +
                  std::to_string(vpar::simrt::distributed_rank()) + ".txt")
        << e.what();
    return 42;
  } catch (const TransportError&) {
    return 42;  // send into a lost peer races the cooperative abort
  }
  return 0;
}

int child_chaos() {
  const int world = vpar::simrt::distributed_world();
  vpar::simrt::RunOptions options;
  options.size = world;
  options.checksums = true;
  options.fault.seed = static_cast<std::uint64_t>(env_long_or("VPAR_TEST_SEED", 7));
  options.fault.delay_prob = 0.05;
  options.fault.delay_max_us = 200;
  options.fault.reorder_prob = 0.10;
  options.fault.straggler_ranks = {1};
  options.fault.straggle_us = 100;
  vpar::simrt::run(options, ring_and_collectives_body);
  return 0;
}

int vpar_child_main(const std::string& mode) {
  try {
    if (mode == "ring") return child_ring();
    if (mode == "lbmhd") return child_lbmhd();
    if (mode == "qcd") return child_qcd();
    if (mode == "lbmhd_kill") return child_lbmhd_kill(false);
    if (mode == "lbmhd_wedge") return child_lbmhd_kill(true);
    if (mode == "chaos") return child_chaos();
    std::fprintf(stderr, "unknown --vpar-child mode '%s'\n", mode.c_str());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank %d: %s\n", vpar::simrt::distributed_rank(),
                 e.what());
    return 1;
  }
}

// --- frame codec units ------------------------------------------------------

std::vector<std::byte> some_payload(std::size_t n) {
  std::vector<std::byte> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  return data;
}

TEST(TransportFrame, DataRoundTrip) {
  const auto payload = some_payload(300);
  Message msg;
  msg.source = 3;
  msg.tag = 17;
  msg.trace_id = 0x123456789ULL;
  msg.checksummed = true;
  msg.checksum = vpar::simrt::fnv1a64(payload);
  msg.reorder = 2;
  msg.payload = Payload::copy_of(payload);

  const FrameHeader header = vpar::simrt::encode_frame(msg);
  EXPECT_EQ(header.payload_bytes, payload.size());
  ASSERT_NO_THROW(vpar::simrt::verify_frame(header, payload));

  const Message back = vpar::simrt::decode_message(header, payload);
  EXPECT_EQ(back.source, 3);
  EXPECT_EQ(back.tag, 17);
  EXPECT_EQ(back.trace_id, 0x123456789ULL);
  EXPECT_TRUE(back.checksummed);
  EXPECT_EQ(back.checksum, msg.checksum);
  EXPECT_EQ(back.reorder, 2);
  ASSERT_EQ(back.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(back.payload.data(), payload.data(), payload.size()), 0);
}

TEST(TransportFrame, ControlFramesCarryWorldInTag) {
  const FrameHeader hello =
      vpar::simrt::encode_control(FrameType::Hello, 2, 8);
  EXPECT_EQ(hello.type, static_cast<std::uint8_t>(FrameType::Hello));
  EXPECT_EQ(hello.source, 2);
  EXPECT_EQ(hello.tag, 8);
  EXPECT_EQ(hello.payload_bytes, 0u);
  ASSERT_NO_THROW(vpar::simrt::verify_frame(hello, {}));
}

TEST(TransportFrame, DetectsPayloadCorruption) {
  auto payload = some_payload(64);
  Message msg;
  msg.source = 1;
  msg.tag = 5;
  msg.payload = Payload::copy_of(payload);
  const FrameHeader header = vpar::simrt::encode_frame(msg);
  payload[40] ^= std::byte{0x10};
  EXPECT_THROW(vpar::simrt::verify_frame(header, payload), TransportError);
}

TEST(TransportFrame, DetectsHeaderCorruption) {
  const auto payload = some_payload(64);
  Message msg;
  msg.source = 1;
  msg.tag = 5;
  msg.payload = Payload::copy_of(payload);
  FrameHeader header = vpar::simrt::encode_frame(msg);
  header.tag = 6;  // metadata corruption must fail the frame checksum
  EXPECT_THROW(vpar::simrt::verify_frame(header, payload), TransportError);

  FrameHeader bad_magic = vpar::simrt::encode_frame(msg);
  bad_magic.magic = 0xDEADBEEF;
  EXPECT_THROW(vpar::simrt::verify_frame(bad_magic, payload), TransportError);
}

TEST(TransportFrame, DetectsLengthMismatch) {
  const auto payload = some_payload(64);
  Message msg;
  msg.source = 0;
  msg.tag = 1;
  msg.payload = Payload::copy_of(payload);
  const FrameHeader header = vpar::simrt::encode_frame(msg);
  const std::span<const std::byte> truncated(payload.data(), 32);
  EXPECT_THROW(vpar::simrt::verify_frame(header, truncated), TransportError);
}

// --- environment parsing ----------------------------------------------------

/// setenv/unsetenv guard: these tests run before any child spawn and restore
/// the variable, so the cached distributed_env_active() decision (false in
/// the parent) and later child environments are unaffected.
struct ScopedEnv {
  std::string key;
  ScopedEnv(const std::string& k, const std::string& v) : key(k) {
    ::setenv(key.c_str(), v.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(key.c_str()); }
};

TEST(TransportEnv, KindParsing) {
  EXPECT_EQ(vpar::simrt::transport_kind_from_env(), TransportKind::Inproc);
  {
    ScopedEnv t("VPAR_TRANSPORT", "socket");
    EXPECT_EQ(vpar::simrt::transport_kind_from_env(), TransportKind::Socket);
  }
  for (const char* junk : {"shm", "carrier-pigeon"}) {
    // The removed shared-memory backend is junk too: a leftover setting
    // must fail loudly, not run single-process.
    ScopedEnv t("VPAR_TRANSPORT", junk);
    try {
      (void)vpar::simrt::transport_kind_from_env();
      ADD_FAILURE() << "VPAR_TRANSPORT=" << junk << " was accepted";
    } catch (const TransportError& e) {
      EXPECT_NE(std::string(e.what()).find("inproc|socket"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TransportEnv, DistConfigValidation) {
  {
    // Inproc: no distributed requirements at all.
    const auto config = vpar::simrt::dist_config_from_env();
    EXPECT_EQ(config.kind, TransportKind::Inproc);
  }
  {
    ScopedEnv t("VPAR_TRANSPORT", "socket");
    // Missing rank/world must fail loudly, not fall back to inproc.
    EXPECT_THROW(vpar::simrt::dist_config_from_env(), TransportError);
  }
  {
    ScopedEnv t("VPAR_TRANSPORT", "socket");
    ScopedEnv r("VPAR_RANK", "5");
    ScopedEnv w("VPAR_WORLD", "4");
    ScopedEnv d("VPAR_SESSION_DIR", "/tmp");
    EXPECT_THROW(vpar::simrt::dist_config_from_env(), TransportError);  // rank >= world
  }
  {
    ScopedEnv t("VPAR_TRANSPORT", "socket");
    ScopedEnv r("VPAR_RANK", "1");
    ScopedEnv w("VPAR_WORLD", "4");
    // Socket without endpoints (no session dir, no TCP base) is an error.
    EXPECT_THROW(vpar::simrt::dist_config_from_env(), TransportError);
  }
  {
    ScopedEnv t("VPAR_TRANSPORT", "socket");
    ScopedEnv r("VPAR_RANK", "1");
    ScopedEnv w("VPAR_WORLD", "4");
    ScopedEnv d("VPAR_SESSION_DIR", "/tmp/somewhere");
    ScopedEnv hb("VPAR_HEARTBEAT_MS", "50");
    const auto config = vpar::simrt::dist_config_from_env();
    EXPECT_EQ(config.kind, TransportKind::Socket);
    EXPECT_EQ(config.rank, 1);
    EXPECT_EQ(config.world, 4);
    EXPECT_EQ(config.session_dir, "/tmp/somewhere");
    EXPECT_EQ(config.heartbeat.count(), 50);
  }
}

// --- multi-process equivalence ----------------------------------------------

TEST(SocketTransport, TwoRankRingAndCollectives) {
  Session session;
  const auto codes = launch_world(2, "ring", session.dir);
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

TEST(SocketTransport, FourRankRingAndCollectives) {
  Session session;
  const auto codes = launch_world(4, "ring", session.dir);
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
}

TEST(SocketTransport, TcpLoopbackRing) {
  Session session;
  const auto codes = launch_world(2, "ring", session.dir,
                                  {{"VPAR_TCP_BASE", "47310"}});
  EXPECT_EQ(codes, (std::vector<int>{0, 0}));
}

TEST(SocketTransport, LbmhdBitwiseMatchesInproc) {
  Session session;
  const std::string out = session.dir + "/fields.bin";
  const auto codes =
      launch_world(4, "lbmhd", session.dir, {{"VPAR_TEST_OUT", out}});
  ASSERT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
  const auto distributed = read_doubles(out);
  std::vector<double> reference;
  vpar::simrt::run(4, [&](Communicator& comm) {
    const auto fields = lbmhd_final_fields(comm, kLbmhdSteps);
    if (comm.rank() == 0) reference = fields;
  });
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(distributed.size(), reference.size());
  // Bitwise, not approximately: the transport must not change one bit of
  // the physics.
  EXPECT_EQ(std::memcmp(distributed.data(), reference.data(),
                        reference.size() * sizeof(double)),
            0);
}

TEST(SocketTransport, QcdBitwiseMatchesInproc) {
  Session session;
  const std::string out = session.dir + "/psi.bin";
  const auto codes =
      launch_world(4, "qcd", session.dir, {{"VPAR_TEST_OUT", out}});
  ASSERT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
  const auto distributed = read_doubles(out);
  std::vector<double> reference;
  vpar::simrt::run(4, [&](Communicator& comm) {
    const auto psi = qcd_final_psi(comm, kQcdSteps);
    if (comm.rank() == 0) reference = psi;
  });
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(distributed.size(), reference.size());
  EXPECT_EQ(std::memcmp(distributed.data(), reference.data(),
                        reference.size() * sizeof(double)),
            0);
}

TEST(SocketTransport, SeededChaosSmoke) {
  Session session;
  const auto codes = launch_world(4, "chaos", session.dir,
                                  {{"VPAR_TEST_SEED", "20260808"}});
  EXPECT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
}

// --- failure detection and elastic restart ----------------------------------

TEST(SocketTransport, KilledRankRecoversViaCheckpointRestart) {
  // Reference: the same checkpointing program, never killed.
  Session clean;
  {
    const auto codes = launch_world(4, "lbmhd_kill", clean.dir);
    ASSERT_EQ(codes, (std::vector<int>{0, 0, 0, 0}));
  }
  const auto reference = read_doubles(clean.dir + "/final.bin");
  ASSERT_FALSE(reference.empty());

  // Attempt 0: rank 2 dies hard (_exit, no Goodbye) at step 6. Survivors
  // must observe PeerLost (exit 42), not hang and not finish.
  Session session;
  const std::vector<EnvVar> kill = {{"VPAR_KILL_RANK", "2"},
                                    {"VPAR_KILL_STEP", "6"}};
  const auto first = launch_world(4, "lbmhd_kill", session.dir, kill);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[2], 137);
  for (const int r : {0, 1, 3}) {
    EXPECT_EQ(first[static_cast<std::size_t>(r)], 42)
        << "rank " << r << " did not observe PeerLost";
  }

  // Attempt 1 (the launcher's restart): every rank restores the latest
  // complete checkpoint and reruns to completion.
  const auto second = launch_world(4, "lbmhd_kill", session.dir,
                                   {{"VPAR_RESTART", "1"}});
  ASSERT_EQ(second, (std::vector<int>{0, 0, 0, 0}));
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(std::filesystem::exists(session.dir + "/resumed-from-4-rank" +
                                        std::to_string(r)))
        << "rank " << r << " did not resume from the step-4 checkpoint";
  }
  const auto recovered = read_doubles(session.dir + "/final.bin");
  ASSERT_EQ(recovered.size(), reference.size());
  EXPECT_EQ(std::memcmp(recovered.data(), reference.data(),
                        reference.size() * sizeof(double)),
            0)
      << "checkpoint-restart final state differs from the clean run";
}

TEST(SocketTransport, WedgedRankIsDetectedByHeartbeatSilence) {
  // A stopped rank process keeps its sockets open, so its peers never see
  // EOF: only the heartbeat-silence check (timeout shortened here) can
  // declare it lost.
  Session session;
  const auto pids = spawn_world(4, "lbmhd_wedge", session.dir,
                                {{"VPAR_KILL_RANK", "1"},
                                 {"VPAR_KILL_STEP", "6"},
                                 {"VPAR_PEER_TIMEOUT_MS", "800"}});
  // Detection takes about the 800 ms timeout; the bound only turns a missed
  // detection into a failure instead of a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<int> codes(pids.size(), -1);
  for (const int r : {0, 2, 3}) {
    codes[static_cast<std::size_t>(r)] =
        wait_status_until(pids[static_cast<std::size_t>(r)], deadline);
  }
  for (std::size_t r = 0; r < pids.size(); ++r) {
    if (codes[r] != -1) continue;  // reaped already: the pid is not ours
    ::kill(pids[r], SIGKILL);
    codes[r] = wait_status(pids[r]);
  }
  // Rank 1 was still stopped (alive) until the SIGKILL above.
  EXPECT_EQ(codes[1], 128 + SIGKILL);
  std::string reports;
  for (const int r : {0, 2, 3}) {
    EXPECT_EQ(codes[static_cast<std::size_t>(r)], 42)
        << "rank " << r << " did not observe PeerLost in time";
    std::ifstream in(session.dir + "/lost-rank" + std::to_string(r) + ".txt");
    reports += std::string(std::istreambuf_iterator<char>(in), {}) + "\n";
  }
  EXPECT_NE(reports.find("no heartbeat"), std::string::npos) << reports;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--vpar-child") {
    return vpar_child_main(argc >= 3 ? argv[2] : "");
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
