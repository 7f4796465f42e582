// EIM phi trade-off explorer (§4.2 / §8.3 of the paper).
//
//   ./examples/tradeoff_explorer [--n=100000] [--k=25] [--clusters=25]
//                                [--phis=1,2,4,6,8,12] [--seed=9]
//
// phi controls which pivot EIM's Select() picks: the phi*log(n)-th
// farthest sampled point. Smaller phi -> more aggressive pruning ->
// fewer iterations and a faster run, but the provable quality bound
// only holds for phi > 5.15. The paper finds small phi often *improves*
// quality on clustered data (it avoids sampling cluster-perimeter
// points); this tool lets you reproduce that on synthetic data.
#include <cstdio>
#include <exception>
#include <vector>

#include "cli/args.hpp"
#include "core/kcenter.hpp"
#include "harness/format.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  try {
    kc::cli::Args args(argc, argv);
    const std::size_t n = args.size("n", 100'000);
    const std::size_t k = args.size("k", 25);
    const std::size_t clusters = args.size("clusters", 25);
    const std::uint64_t seed = args.size("seed", 9);
    const std::vector<std::size_t> phis =
        args.size_list("phis", {1, 2, 4, 6, 8, 12});
    kc::cli::reject_unknown_flags(args);

    std::printf(
        "EIM phi trade-off: GAU n=%zu, k'=%zu, k=%zu "
        "(provable bound needs phi > 5.15)\n\n",
        n, clusters, k);

    kc::Rng rng(seed);
    const kc::PointSet data = kc::data::generate_gau(
        n, clusters, /*dim=*/2, /*side=*/100.0, /*sigma=*/0.1, rng);

    kc::api::SolveRequest request;
    request.points = &data;
    request.k = k;
    request.seed = seed;
    kc::api::Solver solver;

    // Baseline for context.
    request.algorithm = "gon";
    const kc::api::SolveReport gon_run = solver.solve(request);

    kc::harness::Table table({"phi", "value", "vs GON", "sim time (s)",
                              "iterations", "sample |C|", "provable?"});
    request.algorithm = "eim";
    for (const std::size_t phi : phis) {
      kc::EimOptions options;
      options.phi = static_cast<double>(phi);
      request.options = options;
      const kc::api::SolveReport run = solver.solve(request);
      char rel[32];
      std::snprintf(rel, sizeof(rel), "%+.1f%%",
                    100.0 * (run.value - gon_run.value) / gon_run.value);
      table.add_row({std::to_string(phi),
                     kc::harness::format_sig(run.value),
                     rel,
                     kc::harness::format_seconds(run.sim_seconds),
                     std::to_string(run.iterations),
                     kc::harness::format_count(run.final_sample_size),
                     phi > 5.15 ? "yes" : "no"});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("GON reference: value %s in %ss (sequential)\n",
                kc::harness::format_sig(gon_run.value).c_str(),
                kc::harness::format_seconds(gon_run.wall_seconds).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tradeoff_explorer: %s\n", e.what());
    return kc::cli::exit_status(e);
  }
}
