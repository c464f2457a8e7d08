// Open-loop traffic engine: arrival-rate model shape, determinism, and the
// conservation law every report must obey (offered ops land in exactly one
// outcome counter — nothing double-counted, nothing silently lost).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "workload/traffic.hpp"

namespace paso {
namespace {

using workload::ArrivalModel;
using workload::TrafficConfig;
using workload::TrafficEngine;
using workload::TrafficReport;

// ---------------------------------------------------------------------------
// ArrivalModel

TEST(ArrivalModelTest, ConstantRateWithoutShaping) {
  ArrivalModel m;
  m.base_rate = 0.25;
  EXPECT_DOUBLE_EQ(m.rate_at(0), 0.25);
  EXPECT_DOUBLE_EQ(m.rate_at(123456), 0.25);
  EXPECT_DOUBLE_EQ(m.peak_rate(), 0.25);
}

TEST(ArrivalModelTest, DiurnalSinusoidSwingsAroundTheBase) {
  ArrivalModel m;
  m.base_rate = 0.1;
  m.diurnal_amplitude = 0.5;
  m.diurnal_period = 1000;
  EXPECT_NEAR(m.rate_at(0), 0.1, 1e-12);          // sin(0) = 0
  EXPECT_NEAR(m.rate_at(250), 0.15, 1e-12);       // crest: base * 1.5
  EXPECT_NEAR(m.rate_at(750), 0.05, 1e-12);       // trough: base * 0.5
  EXPECT_NEAR(m.peak_rate(), 0.15, 1e-12);
}

TEST(ArrivalModelTest, FlashCrowdMultipliesOnlyInsideItsWindow) {
  ArrivalModel m;
  m.base_rate = 0.1;
  m.flash_crowds.push_back({/*start=*/100, /*duration=*/50, /*multiplier=*/8});
  EXPECT_DOUBLE_EQ(m.rate_at(99), 0.1);
  EXPECT_DOUBLE_EQ(m.rate_at(100), 0.8);
  EXPECT_DOUBLE_EQ(m.rate_at(149), 0.8);
  EXPECT_DOUBLE_EQ(m.rate_at(150), 0.1);
  // The majorant covers the crowd even when sampling outside the window.
  EXPECT_DOUBLE_EQ(m.peak_rate(), 0.8);
}

TEST(ArrivalModelTest, PeakRateDominatesEverySample) {
  ArrivalModel m;
  m.base_rate = 0.02;
  m.diurnal_amplitude = 0.8;
  m.diurnal_period = 7000;
  m.flash_crowds.push_back({2000, 1500, 5});
  m.flash_crowds.push_back({2500, 400, 3});
  const double peak = m.peak_rate();
  for (sim::SimTime t = 0; t < 10000; t += 13) {
    ASSERT_LE(m.rate_at(t), peak) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// TrafficEngine on a live cluster

Schema task_schema() {
  return Schema({
      ClassSpec{"task", {FieldType::kInt, FieldType::kText}, 0, 1},
  });
}

TrafficConfig small_traffic(std::uint64_t seed) {
  TrafficConfig cfg;
  cfg.seed = seed;
  cfg.arrivals.base_rate = 0.002;
  cfg.duration = 100'000;
  cfg.sessions = 1'000'000;  // identity space only — costs nothing
  cfg.key_space = 64;
  cfg.make_tuple = [](std::uint64_t key, std::size_t payload_bytes) {
    return Tuple{Value{static_cast<std::int64_t>(key)},
                 Value{std::string(payload_bytes, 'x')}};
  };
  cfg.make_criterion = [](std::uint64_t key) {
    return criterion(Exact{Value{static_cast<std::int64_t>(key)}},
                     TypedAny{FieldType::kText});
  };
  return cfg;
}

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.machines = 6;
  cfg.lambda = 1;
  cfg.record_history = false;  // millions-of-ops scale: no history ledger
  return cfg;
}

TEST(TrafficEngineTest, ReportObeysTheConservationLaw) {
  Cluster cluster(task_schema(), small_cluster());
  cluster.assign_basic_support();
  TrafficEngine engine(cluster, small_traffic(7));
  const TrafficReport r = engine.run();

  EXPECT_GT(r.offered, 50u);  // ~0.002 * 100k = 200 expected arrivals
  EXPECT_EQ(r.offered, r.ok + r.failed + r.timed_out + r.degraded +
                           r.overloaded + r.orphaned);
  EXPECT_EQ(r.skipped, 0u);   // nobody crashed
  EXPECT_EQ(r.orphaned, 0u);  // ditto
  EXPECT_GT(r.ok, 0u);
  EXPECT_DOUBLE_EQ(r.elapsed, 100'000.0);
  EXPECT_GT(r.goodput(), 0.0);
  // Completed ops all recorded a latency sample.
  EXPECT_EQ(r.latency.count(), r.ok + r.failed);
  EXPECT_FALSE(std::isnan(r.p50()));
  EXPECT_GE(r.p99(), r.p50());
  EXPECT_GE(r.p999(), r.p99());
}

TEST(TrafficEngineTest, SameSeedReplaysBitForBit) {
  const auto run_once = [] {
    Cluster cluster(task_schema(), small_cluster());
    cluster.assign_basic_support();
    TrafficEngine engine(cluster, small_traffic(42));
    const TrafficReport r = engine.run();
    return std::tuple{r.offered, r.ok,  r.failed,
                      r.timed_out, r.p50(), r.p99(),
                      cluster.ledger().total_msg_cost()};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(TrafficEngineTest, DifferentSeedsDiverge) {
  const auto run_once = [](std::uint64_t seed) {
    Cluster cluster(task_schema(), small_cluster());
    cluster.assign_basic_support();
    TrafficEngine engine(cluster, small_traffic(seed));
    const TrafficReport r = engine.run();
    return std::pair{r.offered, cluster.ledger().total_msg_cost()};
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(TrafficEngineTest, FlashCrowdRaisesOfferedLoad) {
  TrafficConfig quiet = small_traffic(9);
  TrafficConfig crowded = small_traffic(9);
  crowded.arrivals.flash_crowds.push_back(
      {/*start=*/20'000, /*duration=*/40'000, /*multiplier=*/6});

  const auto offered_with = [](const TrafficConfig& cfg) {
    Cluster cluster(task_schema(), small_cluster());
    cluster.assign_basic_support();
    TrafficEngine engine(cluster, cfg);
    return engine.run().offered;
  };
  const std::uint64_t base = offered_with(quiet);
  const std::uint64_t crowd = offered_with(crowded);
  // The crowd multiplies 40% of the horizon by 6x: ~3x total volume.
  EXPECT_GT(crowd, base * 2);
}

TEST(TrafficEngineTest, ZipfKeysAreSkewedTowardTheHead) {
  // Not an engine test per se, but the engine's skew knob rests on it: the
  // head of a Zipf(0.99) distribution must dominate the tail.
  Rng rng(5);
  std::size_t head = 0;
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.zipf(1024, 0.99) < 8) ++head;
  }
  // Under uniform choice the first 8 of 1024 keys get ~0.8% of draws;
  // Zipf(0.99) concentrates roughly a third of the mass there.
  EXPECT_GT(head, kDraws / 5);
}

TEST(TrafficEngineTest, CrashedHomeMachineFailsOverToTheNextLiveOne) {
  Cluster cluster(task_schema(), small_cluster());
  cluster.assign_basic_support();
  cluster.crash(MachineId{2});
  cluster.settle();

  TrafficConfig cfg = small_traffic(11);
  TrafficEngine engine(cluster, cfg);
  const TrafficReport r = engine.run();
  // Sessions homed on machine 2 re-resolve instead of being skipped.
  EXPECT_EQ(r.skipped, 0u);
  EXPECT_GT(r.ok, 0u);
  EXPECT_EQ(r.offered, r.ok + r.failed + r.timed_out + r.degraded +
                           r.overloaded + r.orphaned);
}

TEST(TrafficEngineTest, AdmissionControlSurfacesOverloadedInTheReport) {
  ClusterConfig cc = small_cluster();
  cc.runtime.admission_limit = 1;
  Cluster cluster(task_schema(), cc);
  cluster.assign_basic_support();

  TrafficConfig cfg = small_traffic(13);
  cfg.arrivals.base_rate = 0.2;  // far past what limit=1 can admit
  cfg.duration = 20'000;
  TrafficEngine engine(cluster, cfg);
  const TrafficReport r = engine.run();
  EXPECT_GT(r.overloaded, 0u);
  EXPECT_GT(r.shed_rate(), 0.0);
  EXPECT_EQ(r.offered, r.ok + r.failed + r.timed_out + r.degraded +
                           r.overloaded + r.orphaned);
}

}  // namespace
}  // namespace paso
