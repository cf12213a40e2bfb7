#include <gtest/gtest.h>

#include "arch/cpu_model.hpp"
#include "arch/machine_model.hpp"
#include "arch/network_model.hpp"
#include "arch/platform.hpp"

namespace vpar::arch {
namespace {

perf::LoopRecord vec_loop(double instances, double trips, double flops,
                          double bytes,
                          perf::AccessPattern acc = perf::AccessPattern::Stream) {
  perf::LoopRecord r;
  r.vectorizable = true;
  r.instances = instances;
  r.trips = trips;
  r.flops_per_trip = flops;
  r.bytes_per_trip = bytes;
  r.access = acc;
  return r;
}

perf::LoopRecord scalar_loop(double instances, double trips, double flops) {
  auto r = vec_loop(instances, trips, flops, 8.0);
  r.vectorizable = false;
  return r;
}

TEST(Platform, TableOneValues) {
  EXPECT_EQ(all_platforms().size(), 5u);
  EXPECT_DOUBLE_EQ(earth_simulator().peak_gflops, 8.0);
  EXPECT_DOUBLE_EQ(earth_simulator().mem_bw_gbs, 32.0);
  EXPECT_EQ(earth_simulator().vector_length, 256u);
  EXPECT_DOUBLE_EQ(x1().peak_gflops, 12.8);
  EXPECT_EQ(x1().vector_length, 64u);
  EXPECT_DOUBLE_EQ(power3().peak_gflops, 1.5);
  EXPECT_DOUBLE_EQ(power4().peak_gflops, 5.2);
  EXPECT_DOUBLE_EQ(altix().peak_gflops, 6.0);
  EXPECT_EQ(platform_by_name("ES").name, "ES");
  EXPECT_THROW((void)platform_by_name("Cray-2"), std::runtime_error);
}

TEST(Platform, Host2026IsCalibratedButOffTable) {
  // The calibrated host platform must stay out of the Table 1 set (the
  // paper-table benches iterate exactly five systems) yet resolve by name.
  EXPECT_EQ(all_platforms().size(), 5u);
  const auto& h = platform_by_name("Host2026");
  EXPECT_TRUE(h.is_vector);
  EXPECT_EQ(h.vector_length, 8u);  // AVX-512 doubles vs 256 (ES) / 64 (X1)
  EXPECT_DOUBLE_EQ(h.peak_gflops, 33.6);
  EXPECT_GT(h.scalar_gflops, 0.0);
  // Short pipelines: half performance within a couple of hardware vectors,
  // far below the deep-pipe ES/X1 n_1/2 values.
  EXPECT_LT(h.vector_n_half, earth_simulator().vector_n_half);
  EXPECT_GT(h.vector_compute_eff, 0.0);
  EXPECT_LE(h.vector_compute_eff, 1.0);
}

TEST(Platform, VectorScalarRatios) {
  // Both machines have an 8:1 vector:scalar ratio; the X1's serialized rate
  // is 1/32 of MSP peak (one SSP scalar unit of four).
  EXPECT_DOUBLE_EQ(earth_simulator().peak_gflops / earth_simulator().scalar_gflops, 8.0);
  EXPECT_DOUBLE_EQ(x1().peak_gflops / x1().serialized_gflops, 32.0);
}

TEST(CpuModel, LongVectorsBeatShortVectors) {
  const CpuModel es(earth_simulator());
  // Same work, different trip structure.
  const auto long_loops = vec_loop(1, 65536, 10, 8);
  const auto short_loops = vec_loop(1024, 64, 10, 8);
  EXPECT_LT(es.loop_seconds(long_loops), es.loop_seconds(short_loops));
}

TEST(CpuModel, UnvectorizedPenaltyWorseOnX1) {
  const CpuModel es(earth_simulator());
  const CpuModel cray(x1());
  const auto serial = scalar_loop(1, 1000, 100);
  // Relative to peak, a serialized loop costs the X1 4x more than the ES:
  // seconds * peak is 32 vs 8 in units of "peak-flop-times".
  const double es_cost = es.loop_seconds(serial) * es.spec().peak_gflops;
  const double x1_cost = cray.loop_seconds(serial) * cray.spec().peak_gflops;
  EXPECT_NEAR(x1_cost / es_cost, 4.0, 1e-9);
}

TEST(CpuModel, MemoryBoundLoopLimitedByBandwidth) {
  const CpuModel es(earth_simulator());
  // 1 flop per 64 bytes: hopelessly memory bound.
  const auto loop = vec_loop(1, 1 << 20, 1, 64);
  const double t = es.loop_seconds(loop);
  const double bw_floor = loop.total_bytes() /
                          (earth_simulator().mem_bw_gbs * 1e9);
  EXPECT_GE(t, bw_floor * 0.99);
}

TEST(CpuModel, GatherSlowerThanStream) {
  for (const auto& p : all_platforms()) {
    const CpuModel m(p);
    const auto stream = vec_loop(1, 1 << 16, 2, 16, perf::AccessPattern::Stream);
    const auto gather = vec_loop(1, 1 << 16, 2, 16, perf::AccessPattern::Gather);
    EXPECT_LE(m.loop_seconds(stream), m.loop_seconds(gather)) << p.name;
  }
}

TEST(CpuModel, CacheResidentLoopBeatsStreaming) {
  const CpuModel p3(power3());
  auto streaming = vec_loop(1024, 4096, 2, 32);
  auto cached = streaming;
  cached.working_set_bytes = 1 << 20;  // 1 MB fits the 8 MB L2
  EXPECT_LT(p3.loop_seconds(cached), p3.loop_seconds(streaming));
}

TEST(CpuModel, RegionBreakdownSumsToTotal) {
  const CpuModel es(earth_simulator());
  perf::KernelProfile prof;
  prof.record("a", vec_loop(10, 1000, 5, 8));
  prof.record("b", scalar_loop(10, 10, 3));
  const auto regions = es.region_seconds(prof);
  double sum = 0.0;
  for (const auto& [name, t] : regions) sum += t;
  EXPECT_NEAR(sum, es.profile_seconds(prof), 1e-15);
  EXPECT_EQ(regions.size(), 2u);
}

TEST(NetworkModel, CrossbarBisectionScalesLinearly) {
  const NetworkModel es(earth_simulator());
  EXPECT_NEAR(es.bisection_gbs_total(128) / es.bisection_gbs_total(64), 2.0, 1e-12);
}

TEST(NetworkModel, TorusBisectionScalesAsSqrt) {
  // Per-flop torus bisection shrinks as 1/sqrt(P) (total grows as sqrt(P)
  // times the linear term), but small sub-mesh jobs cannot exceed twice the
  // quoted per-flop ratio.
  const NetworkModel cray(x1());
  EXPECT_NEAR(cray.bisection_gbs_total(2048) / cray.bisection_gbs_total(512), 2.0,
              1e-9);
  const double ratio64 = cray.bisection_gbs_total(64) / (64.0 * x1().peak_gflops);
  EXPECT_NEAR(ratio64, 2.0 * x1().bisection_bytes_per_flop, 1e-12);
}

TEST(NetworkModel, AllToAllHurtsTorusMoreAtScale) {
  const NetworkModel es(earth_simulator());
  const NetworkModel cray(x1());
  perf::CommProfile prof;
  prof.record(perf::CommKind::AllToAll, 255, 64.0 * (1 << 20));

  const double es_ratio = es.seconds(prof, 1024) / es.seconds(prof, 64);
  const double x1_ratio = cray.seconds(prof, 1024) / cray.seconds(prof, 64);
  EXPECT_GT(x1_ratio, es_ratio);
}

TEST(NetworkModel, LatencyDominatesSmallMessages) {
  const NetworkModel p3(power3());
  perf::CommProfile many_small, one_big;
  many_small.record(perf::CommKind::PointToPoint, 1000, 8000);
  one_big.record(perf::CommKind::PointToPoint, 1, 8000);
  EXPECT_GT(p3.seconds(many_small, 16), 100.0 * p3.seconds(one_big, 16));
}

TEST(NetworkModel, CafLatencyCheaperOnX1) {
  const NetworkModel cray(x1());
  perf::CommProfile mpi_prof, caf_prof;
  mpi_prof.record(perf::CommKind::PointToPoint, 100, 0);
  caf_prof.record(perf::CommKind::OneSided, 100, 0);
  EXPECT_LT(cray.seconds(caf_prof, 16), cray.seconds(mpi_prof, 16));
}

TEST(MachineModel, PredictionBasics) {
  const MachineModel es(earth_simulator());
  AppProfile app;
  app.procs = 16;
  app.kernels.record("k", vec_loop(1000, 4096, 100, 50));
  app.comm.record(perf::CommKind::PointToPoint, 100, 1e6);
  app.baseline_flops = app.kernels.total_flops() * 16;

  const auto pred = es.predict(app);
  EXPECT_GT(pred.seconds, 0.0);
  EXPECT_NEAR(pred.seconds, pred.compute_seconds + pred.comm_seconds, 1e-12);
  EXPECT_GT(pred.gflops_per_proc, 0.0);
  EXPECT_LE(pred.pct_peak, 1.0);
  EXPECT_GT(pred.vor, 0.99);
  EXPECT_GT(pred.avl, 200.0);
  EXPECT_EQ(pred.region_seconds.size(), 1u);
}

TEST(MachineModel, MoreBandwidthNeverSlower) {
  // Monotonicity: scaling memory bandwidth up cannot increase predicted time.
  PlatformSpec fast = earth_simulator();
  fast.mem_bw_gbs *= 2.0;
  AppProfile app;
  app.procs = 4;
  app.kernels.record("k", vec_loop(100, 1 << 16, 1, 64));
  app.baseline_flops = app.kernels.total_flops() * 4;
  const auto base = MachineModel(earth_simulator()).predict(app);
  const auto boosted = MachineModel(fast).predict(app);
  EXPECT_LE(boosted.seconds, base.seconds);
}

TEST(MachineModel, SuperscalarReportsNoVectorStats) {
  const MachineModel p3(power3());
  AppProfile app;
  app.procs = 1;
  app.kernels.record("k", vec_loop(10, 100, 10, 8));
  app.baseline_flops = app.kernels.total_flops();
  const auto pred = p3.predict(app);
  EXPECT_DOUBLE_EQ(pred.vor, 0.0);
  EXPECT_DOUBLE_EQ(pred.avl, 0.0);
}

TEST(MachineModel, AmdahlScalarFractionDominates) {
  // 10% scalar work at 1/32 of peak should destroy X1 efficiency far more
  // than ES efficiency — the paper's central balance observation.
  AppProfile app;
  app.procs = 1;
  app.kernels.record("vec", vec_loop(1000, 4096, 90, 8));
  app.kernels.record("ser", scalar_loop(1000, 4096, 10));
  app.baseline_flops = app.kernels.total_flops();

  const auto es = MachineModel(earth_simulator()).predict(app);
  const auto cray = MachineModel(x1()).predict(app);
  EXPECT_GT(es.pct_peak, cray.pct_peak * 1.5);
}

TEST(NetworkModel, OverlappedBytesSplitOutButTotalPreserved) {
  const NetworkModel es(earth_simulator());
  perf::CommProfile serialized, half_overlapped;
  serialized.record(perf::CommKind::PointToPoint, 10, 2e6);
  half_overlapped.record(perf::CommKind::PointToPoint, 10, 1e6);
  half_overlapped.record_overlapped(perf::CommKind::PointToPoint, 0, 1e6);

  // Total charged time is identical; overlap only reclassifies transfer time
  // as hideable.
  EXPECT_NEAR(es.seconds(serialized, 16), es.seconds(half_overlapped, 16), 1e-15);
  const CommTime t = es.time(half_overlapped, 16);
  EXPECT_GT(t.overlapped, 0.0);
  EXPECT_NEAR(t.overlapped, 1e6 / (earth_simulator().net_bw_gbs * 1e9), 1e-15);
  // Latency is never hideable.
  EXPECT_GT(t.serialized, 10 * earth_simulator().mpi_latency_us * 1e-6 * 0.99);
}

TEST(NetworkModel, GatherCostedAsLogDepthCollective) {
  const NetworkModel p3(power3());
  perf::CommProfile prof;
  // The communicator records log2ceil(P) in messages and bytes*log2ceil(P).
  prof.record(perf::CommKind::Gather, 4.0, 4.0 * 8192.0);
  const double t = p3.seconds(prof, 16);
  const double expect = 4.0 * power3().mpi_latency_us * 1e-6 +
                        4.0 * 8192.0 / (power3().net_bw_gbs * 1e9);
  EXPECT_NEAR(t, expect, 1e-15);
  // Synchronizing collective: none of it is hideable.
  EXPECT_DOUBLE_EQ(p3.time(prof, 16).overlapped, 0.0);
}

TEST(MachineModel, OverlapCreditHidesCommBehindCompute) {
  AppProfile app;
  app.procs = 16;
  app.kernels.record("k", vec_loop(1000, 4096, 100, 50));
  app.comm.record_overlapped(perf::CommKind::PointToPoint, 100, 1e8);
  app.comm.record_overlap_window(1.0);
  app.baseline_flops = app.kernels.total_flops() * 16;

  PlatformSpec no_overlap = earth_simulator();
  no_overlap.overlap_eff = 0.0;
  const auto blocking = MachineModel(no_overlap).predict(app);
  const auto overlapping = MachineModel(earth_simulator()).predict(app);

  // Same traffic, same compute: the overlap-capable platform is faster.
  EXPECT_LT(overlapping.seconds, blocking.seconds);
  EXPECT_GT(overlapping.comm_hidden_seconds, 0.0);
  EXPECT_NEAR(overlapping.comm_hidden_seconds,
              overlapping.comm_overlapped_seconds * earth_simulator().overlap_eff,
              1e-12);
  EXPECT_NEAR(overlapping.seconds,
              overlapping.compute_seconds + overlapping.comm_seconds, 1e-15);
  EXPECT_NEAR(blocking.seconds - overlapping.seconds,
              overlapping.comm_hidden_seconds, 1e-12);
}

TEST(MachineModel, HiddenTimeNeverExceedsCompute) {
  // A communication-dominated profile: the credit is capped by the compute
  // time available to hide behind.
  AppProfile app;
  app.procs = 4;
  app.kernels.record("k", vec_loop(1, 256, 1, 1));  // almost no compute
  app.comm.record_overlapped(perf::CommKind::PointToPoint, 10, 1e9);
  app.baseline_flops = app.kernels.total_flops() * 4;

  const auto pred = MachineModel(earth_simulator()).predict(app);
  EXPECT_LE(pred.comm_hidden_seconds, pred.compute_seconds + 1e-18);
  EXPECT_GE(pred.comm_seconds, pred.comm_serialized_seconds);
}

}  // namespace
}  // namespace vpar::arch
