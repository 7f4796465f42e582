// Quickstart: generate clustered data, run all three algorithm
// families through the kc::api::Solver facade, and compare solution
// quality and (simulated) runtime.
//
//   ./examples/quickstart [--n=200000] [--k=25] [--clusters=25]
//                         [--machines=50] [--seed=7] [--list-algos]
//
// This is the 60-second tour of the library: one SolveRequest per
// algorithm name, one Solver dispatching through the registry, one
// SolveReport per run — the sequential baseline GON (2-approximation),
// the paper's 2-round MapReduce Gonzalez MRG (4-approximation), and
// the iterative-sampling EIM scheme (10-approximation w.s.p.), all on
// the same GAU data set.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>

#include "cli/algos.hpp"
#include "cli/args.hpp"
#include "core/kcenter.hpp"
#include "harness/format.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  try {
    kc::cli::Args args(argc, argv);
    if (kc::cli::list_algos(args)) return 0;
    const std::size_t n = args.size("n", 200'000);
    const std::size_t k = args.size("k", 25);
    const std::size_t clusters = args.size("clusters", 25);
    const int machines = static_cast<int>(args.integer("machines", 50));
    const std::uint64_t seed = args.size("seed", 7);
    kc::cli::reject_unknown_flags(args);

    std::printf("k-center quickstart: GAU data, n=%zu, k'=%zu, k=%zu, m=%d\n\n",
                n, clusters, k, machines);

    kc::Rng rng(seed);
    const kc::PointSet data =
        kc::data::generate_gau(n, clusters, /*dim=*/2, /*side=*/100.0,
                               /*sigma=*/0.1, rng);

    // One request template; only the algorithm name varies per row.
    // request.prune is PruneMode::Auto by default: at this size and
    // dimension the Solver builds a grid spatial index and the hot
    // scans skip geometrically hopeless work — bit-identical results,
    // with the skipped pairs reported in SolveReport::pairs_pruned
    // (set request.prune = kc::PruneMode::Off to opt out).
    kc::api::SolveRequest request;
    request.points = &data;
    request.k = k;
    request.seed = seed;
    request.exec.machines = machines;

    kc::api::Solver solver;  // one backend bound across all three runs
    kc::harness::Table table({"algorithm", "value", "time (s)", "MR rounds",
                              "guarantee (x OPT)", "pruned"});

    for (const char* algo : {"gon", "mrg", "eim"}) {
      request.algorithm = algo;
      const kc::api::SolveReport report = solver.solve(request);
      const double pruned_pct =
          100.0 * static_cast<double>(report.pairs_pruned) /
          static_cast<double>(std::max<std::uint64_t>(
              1, report.dist_evals + report.pairs_pruned));
      char pruned[16];
      std::snprintf(pruned, sizeof pruned, "%.1f%%", pruned_pct);
      table.add_row({report.algorithm,
                     kc::harness::format_sig(report.value),
                     kc::harness::format_seconds(report.sim_seconds),
                     std::to_string(report.rounds),
                     report.guarantee,
                     pruned});
    }

    std::printf("%s\n", table.to_string().c_str());

    const kc::DistanceOracle oracle(data);
    const double lb =
        kc::eval::gonzalez_lower_bound(oracle, data.all_indices(), k);
    std::printf("certified lower bound on OPT: %s\n",
                kc::harness::format_sig(lb).c_str());
    std::printf("(so every value above is within value/LB of optimal)\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 1;
  }
}
