// Table 1: theoretical comparison of the algorithms (approximation
// factor, MapReduce rounds, asymptotic runtime) plus an empirical
// check that the implementation matches the stated complexities:
// distance-evaluation counts against the closed-form work formulas and
// measured round counts against the round structure. The formulas
// count every pair the unpruned algorithm compares, so the measured
// work is evaluated plus pruned pairs: the ratio is the same with
// pruning on or off.
//
// Usage: bench_table1_theory [--n=50000] [--k=25] [--machines=50] [--seed=S]
#include "common.hpp"

#include <cmath>

namespace {

using namespace kcb;

void run(kc::cli::Args& args) {
  BenchOptions options = parse_common(args);
  consume_algo_filter(args, options);
  const std::size_t n = args.size("n", options.pick(10'000, 50'000, 200'000));
  const std::size_t k = args.size("k", 25);
  reject_unknown_flags(args);
  print_banner("Table 1", "Theoretical comparison + empirical work check",
               options);

  // ---- The paper's table, verbatim.
  kc::harness::Table theory({"Algorithm", "alpha", "Rounds", "Runtime"});
  theory.add_row({"GON [Gonzalez'85]", "2", "n/a", "k*n"});
  theory.add_row({"MRG", "4", "2", "k*n/m + k^2*m"});
  theory.add_row(
      {"EIM [Ene et al.'11]", "10", "O(1/eps)",
       "k*n^(1+eps)*log(n) / (m*(1-n^-eps)^2)"});
  std::printf("%s\n", theory.to_string().c_str());

  // ---- Empirical verification on one GAU instance.
  kc::Rng rng(options.seed);
  const kc::PointSet data =
      kc::data::generate_gau(n, 25, 2, 100.0, 0.1, rng);
  const double m = options.machines;

  kc::harness::Table measured({"Algorithm", "MR rounds", "dist evals",
                               "pruned", "work formula", "ratio"});
  for (auto& config : standard_algos(options)) {
    const auto run_result =
        kc::harness::run_algorithm(config, data, k, options.seed);
    double formula = 0.0;
    switch (config.kind) {
      case AlgoKind::GON:
        formula = static_cast<double>(k) * static_cast<double>(n);
        break;
      case AlgoKind::MRG:
        // Round 1: every point swept once per center on its machine
        // (k*n total); final round: k * (k*m) on one machine.
        formula = static_cast<double>(k) * n +
                  static_cast<double>(k) * k * m;
        break;
      case AlgoKind::EIM: {
        // Dominant Round 3 work: sum over iterations of |R_l|*|dS_l|
        // ~ 9 k n^eps log(n) * n / (1 - n^-eps) (§5.2, times m because
        // the formula in Table 1 is per-machine).
        const double n_eps = std::pow(static_cast<double>(n), 0.1);
        const double log_n = std::log10(static_cast<double>(n));
        formula = 9.0 * k * n_eps * log_n * static_cast<double>(n) /
                  (1.0 - 1.0 / n_eps);
        break;
      }
    }
    const std::uint64_t work = run_result.dist_evals + run_result.pairs_pruned;
    measured.add_row(
        {std::string(kc::harness::to_string(config.kind)),
         std::to_string(run_result.map_reduce_rounds),
         kc::harness::format_count(run_result.dist_evals),
         kc::harness::format_count(run_result.pairs_pruned),
         kc::harness::format_count(static_cast<std::uint64_t>(formula)),
         kc::harness::format_sig(static_cast<double>(work) / formula, 3)});
  }
  std::printf("empirical check (GAU n=%zu, k'=25, k=%zu, m=%d):\n%s\n", n, k,
              options.machines, measured.to_string().c_str());
  std::printf(
      "The 'ratio' column is (dist evals + pruned)/formula: O(1)\n"
      "constants near 1 confirm the §5 work analysis (EIM's constant\n"
      "varies with the realized iteration count).\n");
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
