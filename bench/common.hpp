// Shared scaffolding for the reproduction benches.
//
// Every bench binary follows the same protocol:
//   --quick        smallest configuration (CI smoke run)
//   (default)      scaled-down workload that preserves the paper's
//                  qualitative regimes on a laptop-class host
//   --full         the paper's exact sizes and replication protocol
//                  (3 graphs x 2 runs for synthetic data, 4 runs for
//                  real data, n up to 1,000,000)
//   --csv=PATH     also emit the table as CSV
//   --machines=M   simulated cluster size (paper: 50)
//   --seed=S       root seed
//   --exec=E       execution backend: seq (default), pool
//   --threads=N    host threads for pool (0 = hardware default)
// Measured cells are printed next to the paper's published numbers
// where the paper reports that cell. The backend changes host wall
// time only; every simulated metric is backend-invariant.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/algos.hpp"
#include "cli/args.hpp"
#include "core/kcenter.hpp"
#include "geom/spatial_index.hpp"
#include "harness/experiment.hpp"
#include "harness/format.hpp"
#include "harness/gnuplot.hpp"
#include "harness/paper_ref.hpp"
#include "harness/table.hpp"

namespace kcb {

using kc::harness::AlgoConfig;
using kc::harness::AlgoKind;
using kc::harness::DatasetPool;

struct BenchOptions {
  bool full = false;
  bool quick = false;
  std::uint64_t seed = 20160412;  // default root seed (arXiv date of the paper)
  int machines = 50;              // paper §7.2
  int graphs = 1;
  int runs = 2;
  std::optional<std::string> csv;
  std::optional<std::string> plot;  ///< gnuplot basename (--plot=NAME)
  kc::exec::BackendKind exec = kc::exec::BackendKind::Sequential;
  int threads = 0;  ///< 0 = backend default
  /// Single-algorithm restriction of the standard panel, set by
  /// consume_algo_filter() (empty = the full MRG/EIM/GON panel).
  /// Not parsed by parse_common: only benches whose panel supports the
  /// filter consume --algo, so the others refuse it as an unknown flag
  /// instead of silently ignoring it.
  std::string algo;

  /// The backend --exec/--threads describe: one instance for the whole
  /// bench run, so a thread pool's workers persist across every round
  /// of every sweep cell. Constructed on first use so paths that bring
  /// their own backends (--sweep-exec) never spawn an idle pool.
  [[nodiscard]] const std::shared_ptr<kc::exec::ExecutionBackend>&
  resolve_backend() const {
    if (backend_ == nullptr) {
      backend_ = kc::exec::make_backend(exec, threads);
    }
    return backend_;
  }

  /// Picks a size: quick < scaled default < full (paper size).
  [[nodiscard]] std::size_t pick(std::size_t quick_n, std::size_t default_n,
                                 std::size_t full_n) const {
    if (quick) return quick_n;
    return full ? full_n : default_n;
  }

 private:
  mutable std::shared_ptr<kc::exec::ExecutionBackend> backend_;
};

/// Parses the shared flags. `default_graphs`/`default_runs` give the
/// scaled-down replication; --full restores the paper protocol
/// (`full_graphs` x `full_runs`), --quick collapses to 1 x 1.
inline BenchOptions parse_common(kc::cli::Args& args, int default_graphs = 1,
                                 int default_runs = 2, int full_graphs = 3,
                                 int full_runs = 2) {
  BenchOptions options;
  options.full = args.flag("full");
  options.quick = args.flag("quick");
  options.seed = args.size("seed", options.seed);
  options.machines = args.int_value("machines", 50);
  options.csv = args.str("csv");
  options.plot = args.str("plot");
  options.exec = kc::cli::exec_backend(args);
  options.threads = kc::cli::exec_threads(args);
  options.graphs = options.full ? full_graphs : default_graphs;
  options.runs = options.full ? full_runs : default_runs;
  if (options.quick) {
    options.graphs = 1;
    options.runs = 1;
  }
  options.graphs = args.int_value("graphs", options.graphs);
  options.runs = args.int_value("runs", options.runs);
  return options;
}

// Typo'd-flag rejection is shared with the examples: every bench calls
// cli::reject_unknown_flags(args) after consuming its own flags (found
// by ADL since Args lives in kc::cli).

/// Consumes --algo= (registry-validated) for benches whose panel
/// supports the single-algorithm filter — i.e. those that run
/// standard_algos(). Call between parse_common and
/// reject_unknown_flags.
inline void consume_algo_filter(kc::cli::Args& args, BenchOptions& options) {
  options.algo = kc::cli::algo_kind(args, /*fallback=*/"");
}

inline void print_banner(const std::string& experiment,
                         const std::string& description,
                         const BenchOptions& options) {
  std::printf("=== %s ===\n%s\n", experiment.c_str(), description.c_str());
  std::printf(
      "protocol: m=%d simulated machines, %d graph(s) x %d run(s), "
      "exec=%.*s prune=%s%s%s\n\n",
      options.machines, options.graphs, options.runs,
      static_cast<int>(kc::exec::to_string(options.exec).size()),
      kc::exec::to_string(options.exec).data(),
      kc::force_no_prune_requested() ? "off (KC_FORCE_NO_PRUNE)" : "auto",
      options.full ? " [--full: paper scale]" : "",
      options.quick ? " [--quick]" : "");
}

/// The three standard algorithm configurations of the experiments
/// (§7.1), in the paper's column order: MRG, EIM, GON baseline.
/// --algo=NAME restricts the panel to one of those three; other
/// registry names are rejected, because the paper benches key logic
/// (labels, EIM round columns, theory formulas) off the panel kinds.
inline std::vector<AlgoConfig> standard_algos(const BenchOptions& options) {
  std::vector<AlgoConfig> algos(3);
  algos[0].kind = AlgoKind::MRG;
  algos[1].kind = AlgoKind::EIM;
  algos[2].kind = AlgoKind::GON;
  if (!options.algo.empty()) {
    std::erase_if(algos, [&options](const AlgoConfig& a) {
      return options.algo != std::string(kc::harness::registry_name(a.kind));
    });
    if (algos.empty()) {
      throw std::invalid_argument(
          "--algo=" + options.algo +
          ": not part of this bench's panel (use gon, mrg or eim)");
    }
  }
  for (auto& a : algos) {
    a.machines = options.machines;
    a.exec = options.exec;
    a.threads = options.threads;
    a.backend = options.resolve_backend();
  }
  return algos;
}

/// The execution backends --sweep-exec compares: sequential and the
/// persistent thread pool. Each entry carries a live backend so the
/// pool persists across the sweep.
inline std::vector<std::pair<std::string,
                             std::shared_ptr<kc::exec::ExecutionBackend>>>
backend_sweep(const BenchOptions& options) {
  std::vector<std::pair<std::string,
                        std::shared_ptr<kc::exec::ExecutionBackend>>>
      sweep;
  for (const auto kind : {kc::exec::BackendKind::Sequential,
                          kc::exec::BackendKind::ThreadPool}) {
    auto backend = kc::exec::make_backend(kind, options.threads);
    sweep.emplace_back(std::string(backend->name()), std::move(backend));
  }
  return sweep;
}

inline const std::vector<std::size_t>& paper_k_sweep() {
  static const std::vector<std::size_t> ks{2, 5, 10, 25, 50, 100};
  return ks;
}

/// Runs a [k x algorithm] sweep and prints a paper-style quality table
/// with the paper's reference value beside each measured cell.
/// `paper_table` is 0 when the paper has no reference numbers.
inline void quality_table(const std::string& experiment,
                          const DatasetPool& pool,
                          const std::vector<std::size_t>& ks,
                          const std::vector<AlgoConfig>& algos,
                          const BenchOptions& options, int paper_table) {
  std::vector<std::string> headers{"k"};
  for (const auto& algo : algos) {
    headers.push_back(algo.display_label());
    if (paper_table != 0) headers.push_back("(paper)");
  }
  kc::harness::Table table(headers);

  for (const std::size_t k : ks) {
    std::vector<std::string> row{std::to_string(k)};
    for (const auto& algo : algos) {
      const auto agg = kc::harness::run_repeated(algo, pool, k, options.runs,
                                                 options.seed ^ k);
      row.push_back(kc::harness::format_sig(agg.value));
      if (paper_table != 0) {
        const auto ref =
            kc::harness::paper_value(paper_table, static_cast<int>(k),
                                     algo.display_label());
        row.push_back(ref ? kc::harness::format_sig(*ref) : "-");
      }
    }
    table.add_row(std::move(row));
  }

  std::printf("%s", table.to_string().c_str());
  if (options.csv) {
    table.write_csv(*options.csv);
    std::printf("\n(csv written to %s)\n", options.csv->c_str());
  }
  if (options.plot) {
    kc::harness::PlotSpec spec;
    spec.title = experiment;
    spec.ylabel = "Value";
    write_gnuplot(table, *options.plot + "_" + experiment, spec);
    std::printf("(gnuplot files written to %s_%s.{dat,plt})\n",
                options.plot->c_str(), experiment.c_str());
  }
  std::printf("\n");
}

/// Runs a [k x algorithm] sweep and prints the *runtime* series the
/// figure plots (simulated seconds, log-scale in the paper).
inline void runtime_series(const std::string& title, const DatasetPool& pool,
                           const std::vector<std::size_t>& ks,
                           const std::vector<AlgoConfig>& algos,
                           const BenchOptions& options) {
  std::vector<std::string> headers{"k"};
  for (const auto& algo : algos) {
    headers.push_back(algo.display_label() + " (s)");
  }
  headers.push_back("EIM rounds");
  kc::harness::Table table(headers);

  for (const std::size_t k : ks) {
    std::vector<std::string> row{std::to_string(k)};
    double eim_rounds = 0.0;
    for (const auto& algo : algos) {
      const auto agg = kc::harness::run_repeated(algo, pool, k, options.runs,
                                                 options.seed ^ k);
      row.push_back(kc::harness::format_seconds(agg.sim_seconds));
      if (algo.kind == AlgoKind::EIM) eim_rounds = agg.map_reduce_rounds;
    }
    row.push_back(kc::harness::format_sig(eim_rounds, 3));
    table.add_row(std::move(row));
  }

  std::printf("--- %s ---\n%s\n", title.c_str(), table.to_string().c_str());
  if (options.csv) {
    table.write_csv(*options.csv);
    std::printf("(csv written to %s)\n\n", options.csv->c_str());
  }
  if (options.plot) {
    // Sanitize the panel title into a file suffix.
    std::string suffix;
    for (const char c : title) {
      suffix += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
    }
    kc::harness::PlotSpec spec;
    spec.title = title;
    spec.ylabel = "Runtime (simulated s)";
    write_gnuplot(table, *options.plot + "_" + suffix, spec);
    std::printf("(gnuplot files written to %s_%s.{dat,plt})\n\n",
                options.plot->c_str(), suffix.c_str());
  }
}

/// Standard main wrapper: uniform error handling for all benches, plus
/// the shared --list-algos flag (print the algorithm registry, exit 0).
inline int bench_main(int argc, char** argv,
                      const std::function<void(kc::cli::Args&)>& body) {
  try {
    kc::cli::Args args(argc, argv);
    if (kc::cli::list_algos(args)) return 0;
    body(args);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return kc::cli::exit_status(e);
  }
}

}  // namespace kcb
