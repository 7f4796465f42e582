// Depot placement (vehicle routing): one of the applications the
// paper's introduction motivates. Choose k depot sites among delivery
// addresses so that the *worst-case* drive to the nearest depot is
// minimized — exactly the k-center objective.
//
//   ./examples/depot_placement [--addresses=150000] [--towns=40]
//                              [--depots=12] [--machines=50] [--seed=11]
//
// The address map is synthesized as towns of very different sizes
// (an unbalanced mixture, like the paper's UNB data): a few dense
// metro areas plus many small towns. The example runs the 2-round MRG
// algorithm, reports the service radius, and breaks the result down
// per depot.
#include <cstdio>
#include <exception>

#include "cli/args.hpp"
#include "core/kcenter.hpp"
#include "harness/format.hpp"
#include "harness/table.hpp"

int main(int argc, char** argv) {
  try {
    kc::cli::Args args(argc, argv);
    const std::size_t addresses = args.size("addresses", 150'000);
    const std::size_t towns = args.size("towns", 40);
    const std::size_t depots = args.size("depots", 12);
    const int machines = args.int_value("machines", 50);
    const std::uint64_t seed = args.size("seed", 11);
    kc::cli::reject_unknown_flags(args);

    std::printf(
        "depot placement: %zu addresses in ~%zu towns, choosing %zu depots\n\n",
        addresses, towns, depots);

    // Unbalanced town sizes: roughly half the addresses in one metro
    // area, the rest spread across the remaining towns (UNB shape).
    // Coordinates are kilometres over a 500 x 500 region; town spread
    // of 6 km models a realistic urban footprint.
    kc::Rng rng(seed);
    const kc::PointSet map = kc::data::generate_unb(
        addresses, towns, /*dim=*/2, /*side=*/500.0, /*sigma=*/6.0,
        /*unbalanced_fraction=*/0.5, rng);
    const kc::DistanceOracle oracle(map);
    const auto all = map.all_indices();

    kc::api::SolveRequest request;
    request.points = &map;
    request.k = depots;
    request.algorithm = "mrg";
    request.seed = seed;
    request.exec.machines = machines;
    kc::api::Solver solver;
    const kc::api::SolveReport plan = solver.solve(request);

    std::printf("worst-case drive to nearest depot: %s km\n",
                kc::harness::format_sig(plan.value).c_str());
    std::printf("MapReduce rounds used: %d (guaranteed factor %s)\n\n",
                plan.rounds, plan.guarantee.c_str());

    const auto stats = kc::eval::cluster_stats(oracle, all, plan.centers);
    kc::harness::Table table(
        {"depot", "x (km)", "y (km)", "addresses", "radius (km)"});
    for (std::size_t d = 0; d < plan.centers.size(); ++d) {
      const auto site = map[plan.centers[d]];
      table.add_row({std::to_string(d + 1),
                     kc::harness::format_sig(site[0]),
                     kc::harness::format_sig(site[1]),
                     kc::harness::format_count(stats.sizes[d]),
                     kc::harness::format_sig(stats.radii[d])});
    }
    std::printf("%s\n", table.to_string().c_str());

    std::printf("largest service area: %s addresses; mean radius %s km\n",
                kc::harness::format_count(stats.largest_cluster).c_str(),
                kc::harness::format_sig(stats.mean_radius).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "depot_placement: %s\n", e.what());
    return kc::cli::exit_status(e);
  }
}
