// Ablation: MRG round count vs solution quality (the paper's
// future-work question "what is the effectiveness when MRG needs more
// than two rounds?", §9 / Lemma 3).
//
// Forces extra reduce rounds by shrinking the per-machine capacity c
// below k*m and reports, per capacity: rounds used, the loosened
// worst-case guarantee 2(i+1), the measured value, and the certified
// ratio against the Gonzalez lower bound. The punchline matches the
// example in examples/massive_multiround.cpp: measured quality barely
// moves even as the guarantee loosens.
#include "common.hpp"

namespace {

using namespace kcb;

void run(kc::cli::Args& args) {
  BenchOptions options = parse_common(args);
  // Multi-round MRG needs n/m <= c < k*m, i.e. n < k*m^2: a large
  // simulated cluster relative to n. Default m = 200 here (the paper's
  // m = 50 only ever needs two rounds at its n).
  options.machines = args.int_value("m", 200);
  const std::size_t n = args.size("n", options.pick(20'000, 50'000, 100'000));
  const std::size_t k = args.size("k", 64);
  reject_unknown_flags(args);
  print_banner("Ablation: MRG rounds",
               "Forced multi-round MRG on GAU (n=" + std::to_string(n) +
                   ", k'=" + std::to_string(k) + ", k=" + std::to_string(k) +
                   ", m=" + std::to_string(options.machines) + ")",
               options);

  kc::Rng rng(options.seed);
  const kc::PointSet data = kc::data::generate_gau(
      n, k, 2, 100.0, 0.1, rng);
  const kc::DistanceOracle oracle(data);
  const auto all = data.all_indices();
  const double lb = kc::eval::gonzalez_lower_bound(oracle, all, k);

  const std::size_t km = k * static_cast<std::size_t>(options.machines);
  const std::size_t per_machine = (n + options.machines - 1) / options.machines;
  // Capacity sweep: halve from the comfortable 2-round regime (c = km)
  // down toward the feasibility floor max(n/m, 2k+1); smaller c forces
  // more reduce rounds (c/k shrinks, so each round compresses less).
  std::vector<std::size_t> capacities;
  const std::size_t floor_c = std::max(per_machine, 2 * k + 1);
  for (std::size_t c = km; c > floor_c; c /= 2) capacities.push_back(c);
  capacities.push_back(floor_c);

  kc::harness::Table table({"capacity c", "reduce rounds", "guarantee",
                            "value", "certified ratio", "sim time (s)"});
  for (const std::size_t c : capacities) {
    const kc::mr::SimCluster cluster(options.machines,
                                     options.resolve_backend());
    kc::MrgOptions mrg_options;
    mrg_options.capacity = c;
    mrg_options.seed = options.seed;
    const auto result = kc::mrg(oracle, all, k, cluster, mrg_options);
    const double value =
        kc::eval::covering_radius(oracle, all, result.centers).radius;
    table.add_row({kc::harness::format_count(c),
                   std::to_string(result.reduce_rounds),
                   std::to_string(result.guaranteed_factor()) + "*OPT",
                   kc::harness::format_sig(value),
                   kc::harness::format_sig(value / lb, 3),
                   kc::harness::format_seconds(
                       result.trace.simulated_seconds())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "(certified ratio = value / (GON lower bound); the guarantee column\n"
      " loosens by 2 per round while the measured value stays put)\n");
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
