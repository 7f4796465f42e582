// Ablation: how the mapper's "arbitrary" partition affects MRG.
//
// Part 1 compares Block / RoundRobin / Shuffled partitioning on
// clustered data: in practice the choice is immaterial (Lemma 1 holds
// for every subset), which is why the paper leaves it arbitrary.
//
// Part 2 addresses the paper's future-work claim that the factor 4 is
// *tight*: it evaluates the hand-constructed 12-point witness (ratio
// 3.81, see tests/test_util.hpp for the derivation) and then runs a
// randomized adversarial search over small instances and explicit
// partitions, reporting the worst ratio found -- empirical evidence for
// "how likely are such cases in practice?" (answer: they exist but
// random partitions essentially never produce them).
#include "common.hpp"

#include "algo/brute_force.hpp"

namespace {

using namespace kcb;

void partition_comparison(const BenchOptions& options, std::size_t n) {
  kc::Rng rng(options.seed);
  const kc::PointSet data = kc::data::generate_gau(n, 25, 2, 100.0, 0.1, rng);
  const kc::DistanceOracle oracle(data);
  const auto all = data.all_indices();

  kc::harness::Table table(
      {"partition", "value (k=25)", "value (k=100)", "sim time (s)"});
  for (const auto strategy :
       {kc::mr::PartitionStrategy::Block, kc::mr::PartitionStrategy::RoundRobin,
        kc::mr::PartitionStrategy::Shuffled}) {
    double values[2];
    double seconds = 0.0;
    int slot = 0;
    for (const std::size_t k : {25u, 100u}) {
      const kc::mr::SimCluster cluster(options.machines,
                                       options.resolve_backend());
      kc::MrgOptions mrg_options;
      mrg_options.partition = strategy;
      mrg_options.seed = options.seed;
      const auto result = kc::mrg(oracle, all, k, cluster, mrg_options);
      values[slot++] =
          kc::eval::covering_radius(oracle, all, result.centers).radius;
      seconds += result.trace.simulated_seconds();
    }
    table.add_row({std::string(to_string(strategy)),
                   kc::harness::format_sig(values[0]),
                   kc::harness::format_sig(values[1]),
                   kc::harness::format_seconds(seconds)});
  }
  std::printf("[1] partition strategies on GAU (n=%zu, k'=25):\n%s\n", n,
              table.to_string().c_str());
}

/// The deterministic witness: four unit clusters on a line, block
/// partition, first-point seeding => ratio 4.0 / 1.05 = 3.81.
void tightness_witness() {
  const double coords[12] = {4.0, 13.0, 9.0,  8.0,  12.0, 5.0,
                             2.0, 14.0, 6.05, 10.0, 0.0,  1.0};
  kc::PointSet points(12, 1);
  for (kc::index_t i = 0; i < 12; ++i) points.mutable_point(i)[0] = coords[i];
  const kc::DistanceOracle oracle(points);
  const auto all = points.all_indices();

  const auto opt = kc::brute_force_opt(oracle, all, 4);
  const kc::mr::SimCluster cluster(2);
  const auto result = kc::mrg(oracle, all, 4, cluster, {});
  const double value =
      kc::eval::covering_radius(oracle, all, result.centers).radius;
  const double opt_value = oracle.to_reported(opt.radius_comparable);
  std::printf(
      "[2] tightness witness (12 points, k=4, m=2, block partition):\n"
      "    OPT = %s, MRG value = %s, ratio = %s (worst case bound: 4)\n\n",
      kc::harness::format_sig(opt_value).c_str(),
      kc::harness::format_sig(value).c_str(),
      kc::harness::format_sig(value / opt_value, 3).c_str());
}

/// Randomized adversarial search: random small clustered instances and
/// random explicit partitions; exact OPT by brute force.
void adversarial_search(const BenchOptions& options, int trials) {
  kc::Rng rng(options.seed + 99);
  double worst_ratio = 0.0;
  double worst_random_only = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    // 3-5 well-separated tight clusters on a line, 12-16 points.
    const std::size_t clusters = 3 + rng.uniform_int(3);
    const std::size_t n = 12 + rng.uniform_int(5);
    kc::PointSet points(n, 1);
    for (kc::index_t i = 0; i < n; ++i) {
      const double center = 10.0 * static_cast<double>(rng.uniform_int(clusters));
      points.mutable_point(i)[0] = center + rng.uniform(-1.0, 1.0);
    }
    const kc::DistanceOracle oracle(points);
    const auto all = points.all_indices();
    const std::size_t k = clusters;
    const auto opt = kc::brute_force_opt(oracle, all, k);
    const double opt_value = oracle.to_reported(opt.radius_comparable);
    if (opt_value < 1e-9) continue;

    // Several random explicit partitions per instance.
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::vector<int> assignment(n);
      for (auto& a : assignment) a = static_cast<int>(rng.uniform_int(2));
      const kc::mr::SimCluster cluster(2);
      kc::MrgOptions mrg_options;
      mrg_options.partition = kc::mr::PartitionStrategy::Explicit;
      mrg_options.explicit_assignment = assignment;
      mrg_options.capacity = n;  // always 2 rounds at most
      kc::MrgResult result;
      try {
        result = kc::mrg(oracle, all, k, cluster, mrg_options);
      } catch (const std::exception&) {
        continue;  // degenerate partition (k*m >= |S|)
      }
      const double value =
          kc::eval::covering_radius(oracle, all, result.centers).radius;
      worst_ratio = std::max(worst_ratio, value / opt_value);
      if (attempt == 0) {
        worst_random_only = std::max(worst_random_only, value / opt_value);
      }
    }
  }
  std::printf(
      "[3] randomized adversarial search (%d instances x 16 partitions):\n"
      "    worst ratio over all partitions: %s\n"
      "    worst ratio with a single random partition: %s\n"
      "    (both <= 4 as Lemma 2 demands; ratios near 4 need engineered\n"
      "     partitions like [2] -- random ones stay near the sequential 2)\n",
      trials, kc::harness::format_sig(worst_ratio, 3).c_str(),
      kc::harness::format_sig(worst_random_only, 3).c_str());
}

void run(kc::cli::Args& args) {
  BenchOptions options = parse_common(args);
  const std::size_t n = args.size("n", options.pick(10'000, 50'000, 200'000));
  const int trials = args.int_value("trials", options.quick ? 20 : 150);
  reject_unknown_flags(args);
  print_banner("Ablation: partitioning",
               "Partition strategies + factor-4 tightness evidence", options);
  partition_comparison(options, n);
  tightness_witness();
  adversarial_search(options, trials);
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
