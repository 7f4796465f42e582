// Cross-module integration tests: full pipelines over every data
// source, certified approximation ratios, and the paper's headline
// qualitative claims at test scale.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "test_util.hpp"

namespace kc {
namespace {

// GoogleTest names each case after a byte dump of this struct, cut short
// by test runners. `n` leads so that the dump starts with a value, not
// with the address of `name`, which moves with the link layout and the
// source path.
struct PipelineCase {
  std::size_t n;
  std::size_t clusters;
  std::size_t k;
  data::SyntheticKind kind;
  const char* name;
};

class FullPipeline : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(FullPipeline, AllAlgorithmsProduceCertifiedSolutions) {
  const auto& pc = GetParam();
  data::SyntheticSpec spec;
  spec.kind = pc.kind;
  spec.n = pc.n;
  spec.inherent_clusters = pc.clusters;
  Rng rng(2024);
  const PointSet ps = data::generate(spec, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();

  // Certified lower bound: value/LB bounds the true approximation ratio.
  const double lb = eval::gonzalez_lower_bound(oracle, all, pc.k);

  for (const auto kind : {harness::AlgoKind::GON, harness::AlgoKind::MRG,
                          harness::AlgoKind::EIM}) {
    harness::AlgoConfig config;
    config.kind = kind;
    config.machines = 10;
    const auto run = harness::run_algorithm(config, ps, pc.k, 7);
    EXPECT_EQ(run.centers.size(), pc.k) << harness::to_string(kind);
    ASSERT_TRUE(test::valid_center_set(run.centers, ps.size()));
    if (lb > 0.0) {
      const double certified_ratio = run.value / lb;
      // Sound bounds: value <= factor * OPT and LB >= OPT/2, so the
      // certified ratio is at most 2 * factor (GON: 4, MRG 2-round: 8,
      // EIM: 20).
      const double allowance =
          kind == harness::AlgoKind::GON ? 4.0 : (kind == harness::AlgoKind::MRG ? 8.0 : 20.0);
      EXPECT_LE(certified_ratio, allowance + 1e-9)
          << harness::to_string(kind) << " on " << pc.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FullPipeline,
    ::testing::Values(
        PipelineCase{20000, 10, 5, data::SyntheticKind::Gau, "gau_small_k"},
        PipelineCase{20000, 10, 10, data::SyntheticKind::Gau, "gau_match_k"},
        PipelineCase{20000, 0, 8, data::SyntheticKind::Unif, "unif"},
        PipelineCase{20000, 10, 10, data::SyntheticKind::Unb, "unb"}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

TEST(Integration, PokerPipeline) {
  Rng rng(1);
  const PointSet hands = data::poker_hand_surrogate(5000, rng);
  harness::AlgoConfig config;
  config.kind = harness::AlgoKind::MRG;
  config.machines = 10;
  const auto run = harness::run_algorithm(config, hands, 10, 3);
  EXPECT_EQ(run.centers.size(), 10u);
  // Table 5 band: values between ~8 and ~20 across the k sweep.
  EXPECT_GT(run.value, 5.0);
  EXPECT_LT(run.value, 25.0);
}

TEST(Integration, KddPipelineIsOutlierDominated) {
  Rng rng(2);
  const PointSet kdd = data::kdd_cup_surrogate(30000, rng);
  harness::AlgoConfig gon;
  gon.kind = harness::AlgoKind::GON;
  harness::AlgoConfig mrg_cfg;
  mrg_cfg.kind = harness::AlgoKind::MRG;
  mrg_cfg.machines = 10;
  const auto g = harness::run_algorithm(gon, kdd, 25, 5);
  const auto m = harness::run_algorithm(mrg_cfg, kdd, 25, 5);
  // Both must tame the 1e9-scale outliers into the same order of
  // magnitude (Figure 1's mid-k regime).
  EXPECT_LT(g.value / m.value, 10.0);
  EXPECT_LT(m.value / g.value, 10.0);
}

TEST(Integration, MrgIsFasterThanGonInSimulatedTime) {
  // The paper's headline: MRG's simulated time beats sequential GON by
  // roughly the machine count. At test scale we only require a clear
  // win to avoid flakiness on noisy CI hosts.
  const PointSet ps = test::small_gaussian_instance(10, 10000, 3);
  harness::AlgoConfig gon;
  gon.kind = harness::AlgoKind::GON;
  harness::AlgoConfig mrg_cfg;
  mrg_cfg.kind = harness::AlgoKind::MRG;
  mrg_cfg.machines = 50;
  const auto g = harness::run_algorithm(gon, ps, 25, 7);
  const auto m = harness::run_algorithm(mrg_cfg, ps, 25, 7);
  EXPECT_LT(m.sim_seconds, g.sim_seconds);
}

TEST(Integration, QualityComparableAcrossAlgorithms) {
  // §8.1: parallel solutions are comparable to the sequential baseline.
  const PointSet ps = test::small_gaussian_instance(25, 2000, 4);
  double values[3] = {0, 0, 0};
  int i = 0;
  for (const auto kind : {harness::AlgoKind::GON, harness::AlgoKind::MRG,
                          harness::AlgoKind::EIM}) {
    harness::AlgoConfig config;
    config.kind = kind;
    config.machines = 25;
    values[i++] = harness::run_algorithm(config, ps, 25, 9).value;
  }
  // All three find the 25 planted clusters: values within 3x of each
  // other (in the paper they differ by <15%).
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      EXPECT_LT(values[a], 3.0 * values[b] + 1e-9);
    }
  }
}

TEST(Integration, EimMatchesItsOwnTraceAccounting) {
  const PointSet ps = test::small_gaussian_instance(10, 4000, 5);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const WorkScope scope;
  const auto result = eim(oracle, all, 10, cluster, {});
  // All distance work of the run is attributed to some round.
  EXPECT_EQ(scope.elapsed().distance_evals, result.trace.total_dist_evals());
}

TEST(Integration, MrgMatchesItsOwnTraceAccounting) {
  const PointSet ps = test::small_gaussian_instance(10, 2000, 6);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const mr::SimCluster cluster(10);
  const WorkScope scope;
  const auto result = mrg(oracle, all, 10, cluster, {});
  EXPECT_EQ(scope.elapsed().distance_evals, result.trace.total_dist_evals());
}

TEST(Integration, NonEuclideanEndToEnd) {
  // The whole stack is metric-generic: run MRG under L1 and Linf.
  const PointSet ps = test::small_gaussian_instance(6, 500, 7);
  for (const auto metric : {MetricKind::L1, MetricKind::Linf}) {
    const DistanceOracle oracle(ps, metric);
    const auto all = ps.all_indices();
    const mr::SimCluster cluster(6);
    const auto result = mrg(oracle, all, 6, cluster, {});
    EXPECT_EQ(result.centers.size(), 6u);
    const auto value = eval::covering_radius(oracle, all, result.centers);
    EXPECT_GT(value.radius, 0.0);
  }
}

TEST(Integration, LargeKProducesDegenerateEimAcrossStack) {
  // Figure 4b's regime through the full harness: small n, large k.
  const PointSet ps = test::small_gaussian_instance(10, 300, 8);  // n = 3000
  harness::AlgoConfig config;
  config.kind = harness::AlgoKind::EIM;
  config.machines = 10;
  const auto run = harness::run_algorithm(config, ps, 100, 11);
  EXPECT_FALSE(run.eim_sampled);
  EXPECT_EQ(run.map_reduce_rounds, 1);
}

}  // namespace
}  // namespace kc
