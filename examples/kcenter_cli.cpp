// kcenter_cli: cluster any numeric CSV from the command line.
//
//   kcenter_cli <file.csv> --k=25 [--algo=NAME] [--list-algos]
//               [--metric=l2|l1|linf] [--machines=50] [--phi=8]
//               [--epsilon=0.1] [--drop-last-column] [--max-rows=N]
//               [--out=centers.csv] [--assign=labels.csv] [--seed=S]
//               [--exec=seq|pool] [--threads=N] [--trace]
//               [--budget=EVALS]
//
// --algo accepts any name in the algorithm registry (--list-algos
// prints them); the whole run goes through the kc::api::Solver facade,
// so this binary contains no per-algorithm dispatch. Non-numeric
// columns are dropped automatically (so UCI files work as-is). Prints
// the solution value, a certified bound on how far it can be from
// optimal, and per-cluster statistics; optionally writes the chosen
// centers and a per-point cluster label file.
#include <cstdio>
#include <exception>
#include <fstream>

#include "cli/algos.hpp"
#include "cli/args.hpp"
#include "core/kcenter.hpp"
#include "harness/format.hpp"
#include "harness/table.hpp"

namespace {

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s <file.csv> --k=K [--algo=NAME] [--list-algos]\n"
      "          [--metric=l2|l1|linf] [--machines=50] [--phi=8] "
      "[--epsilon=0.1]\n"
      "          [--drop-last-column] [--max-rows=N] [--out=centers.csv]\n"
      "          [--assign=labels.csv] [--seed=S] [--exec=seq|pool]\n"
      "          [--threads=N] [--trace] [--budget=EVALS]\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  kc::cli::Args args(argc, argv);
  try {
    if (kc::cli::list_algos(args)) return 0;
    if (args.positional().size() != 1 || args.flag("help")) {
      usage(argv[0]);
      return args.flag("help") ? 0 : 2;
    }
    const std::string path = args.positional()[0];
    const std::size_t k = args.size("k", 0);
    if (k == 0) {
      std::fprintf(stderr, "%s: --k is required and must be positive\n",
                   argv[0]);
      return 2;
    }
    const std::string algo = kc::cli::algo_kind(args, "mrg");
    const std::string metric_name = args.str("metric").value_or("l2");
    const bool trace = args.flag("trace");

    kc::data::CsvOptions csv;
    csv.drop_last_column = args.flag("drop-last-column");
    csv.max_rows = args.size("max-rows", 0);

    kc::MetricKind metric = kc::MetricKind::L2;
    if (metric_name == "l1") metric = kc::MetricKind::L1;
    else if (metric_name == "linf") metric = kc::MetricKind::Linf;
    else if (metric_name != "l2") {
      std::fprintf(stderr, "%s: unknown metric '%s'\n", argv[0],
                   metric_name.c_str());
      return 2;
    }

    kc::api::SolveRequest request;
    request.metric = metric;
    request.k = k;
    request.algorithm = algo;
    request.seed = args.size("seed", 1);
    request.exec.kind = kc::cli::exec_backend(args);
    request.exec.threads = kc::cli::exec_threads(args);
    request.exec.machines = args.int_value("machines", 50);
    request.max_dist_evals = args.size("budget", 0);
    // --phi/--epsilon are always consumed (the usage text documents
    // them unconditionally); they only take effect for EIM.
    kc::EimOptions eim_options;
    eim_options.phi = args.real("phi", eim_options.phi);
    eim_options.epsilon = args.real("epsilon", eim_options.epsilon);
    if (algo == "eim") request.options = eim_options;
    const auto out_path = args.str("out");
    const auto assign_path = args.str("assign");
    kc::cli::reject_unknown_flags(args);

    const kc::PointSet data = kc::data::load_numeric_csv(path, csv);
    std::printf("loaded %zu points x %zu numeric columns from %s\n",
                data.size(), data.dim(), path.c_str());
    request.points = &data;

    kc::api::Solver solver;
    const kc::api::SolveReport report = solver.solve(request);

    // Bind the solve's backend to the evaluation oracle too, so the
    // lower bound and the cluster stats below (whose labels --assign
    // writes) parallelize under --exec/--threads like the solve did.
    kc::DistanceOracle oracle(data, metric);
    oracle.bind_executor(solver.backend().get());
    const auto all = data.all_indices();
    const double lb = kc::eval::gonzalez_lower_bound(oracle, all, k);
    std::printf(
        "\nalgorithm: %s   centers: %zu   metric: %s   exec: %s "
        "(kernels: %s)\n",
        report.algorithm.c_str(), report.centers.size(), metric_name.c_str(),
        report.backend.c_str(), report.kernel_isa.c_str());
    std::printf("covering radius (solution value): %s\n",
                kc::harness::format_sig(report.value).c_str());
    std::printf("worst-case guarantee: %s * OPT\n", report.guarantee.c_str());
    if (lb > 0.0) {
      std::printf("certified: value <= %s * OPT (vs lower bound %s)\n",
                  kc::harness::format_sig(report.value / lb, 3).c_str(),
                  kc::harness::format_sig(lb).c_str());
    }
    if (report.rounds > 0) {
      std::printf("MapReduce rounds: %d, simulated time %ss\n", report.rounds,
                  kc::harness::format_seconds(report.sim_seconds).c_str());
      if (trace) std::printf("%s", report.trace.to_string().c_str());
    }

    const auto stats = kc::eval::cluster_stats(oracle, all, report.centers);
    std::printf(
        "clusters: largest %s points, smallest %s, mean radius %s\n",
        kc::harness::format_count(stats.largest_cluster).c_str(),
        kc::harness::format_count(stats.smallest_cluster).c_str(),
        kc::harness::format_sig(stats.mean_radius).c_str());

    if (out_path) {
      kc::data::save_csv(data.subset(report.centers), *out_path);
      std::printf("centers written to %s\n", out_path->c_str());
    }
    if (assign_path) {
      std::ofstream out(*assign_path);
      if (!out) throw std::runtime_error("cannot open " + *assign_path);
      for (const auto label : stats.assignment) out << label << '\n';
      std::printf("cluster labels written to %s\n", assign_path->c_str());
    }
    return 0;
  } catch (const kc::api::Error& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return e.kind() == kc::api::ErrorKind::BadRequest ? 2 : 1;
  } catch (const std::invalid_argument& e) {
    // Flag-parse errors (bad --algo, malformed numbers) are usage
    // errors like BadRequest: exit 2.
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
