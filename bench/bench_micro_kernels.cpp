// Microbenchmarks for the hot kernels underneath every experiment.
//
// Two halves:
//
//   1. A self-timed kernel matrix (no external deps): scalar vs AVX2 vs
//      AVX-512 vs NEON across {contiguous, gather} x {single-center,
//      center-blocked} x shapes, plus the tiled pairwise engine vs the
//      per-pair path it replaced, reported as ns/pair and written to a
//      machine-readable BENCH_kernels.json so the perf trajectory is
//      tracked across PRs. This is what CI runs.
//   2. The original google-benchmark suite (pair distance, GON,
//      partitioning, covering radius), kept behind --gbench and only
//      compiled when google-benchmark is available.
//
// Flags:
//   --print-isa     print compiled/supported/active kernel levels, exit
//   --json=PATH     where to write the JSON report (default
//                   BENCH_kernels.json; empty string disables)
//   --n=N           points per scan (default 65536)
//   --reps=R        timed repetitions per cell, best-of (default 5)
//   --gbench [...]  run the google-benchmark suite with remaining args
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/kcenter.hpp"
#include "data/generators.hpp"
#include "exec/topology.hpp"
#include "geom/counters.hpp"
#include "geom/kernels.hpp"
#include "geom/spatial_index.hpp"

namespace {

using kc::simd::IsaLevel;
using kc::simd::KernelTable;

kc::PointSet make_points(std::size_t n, std::size_t dim, std::uint64_t seed) {
  kc::Rng rng(seed);
  kc::PointSet ps(n, dim);
  for (kc::index_t i = 0; i < n; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0.0, 100.0);
  }
  return ps;
}

struct Cell {
  std::string isa;
  std::string kernel;  // "update_nearest", "update_nearest_multi",
                       // "unpruned_scan", "pruned_scan_cold" or
                       // "pruned_scan_warm"
  std::string layout;  // "contig"/"gather"; for the pruned-scan matrix,
                       // the data shape: "clustered" or "uniform"
  std::string metric;
  std::size_t dim;
  std::size_t centers;
  double ns_per_pair;
  /// Pruned-scan cells only: fraction of the n*k pairs the grid bound
  /// skipped (ns_per_pair above is *effective* — wall time over all
  /// n*k pairs, evaluated or pruned). Negative = not a pruned cell.
  double prune_ratio = -1.0;
};

/// Times `body` (which performs `pairs` pair evaluations) best-of-reps.
template <typename Body>
double time_ns_per_pair(std::size_t pairs, int reps, Body&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up: page in buffers, settle the frequency governor
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    body();
    const auto t1 = clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(pairs);
    best = std::min(best, ns);
  }
  return best;
}

struct MatrixConfig {
  std::size_t n = std::size_t{1} << 16;
  int reps = 5;
  int inner = 8;  ///< kernel calls per timed region (amortizes clock reads)
};

/// One update_nearest shape for one table; rotates the center each call
/// so best[] keeps seeing occasional improvements (the steady state of
/// a GON sweep) rather than a fully-converged array.
Cell run_nearest_cell(const KernelTable& table, kc::MetricKind metric,
                      std::size_t dim, bool contig, const MatrixConfig& cfg) {
  const kc::PointSet ps = make_points(cfg.n, dim, /*seed=*/dim * 7 + 1);
  const auto m = static_cast<std::size_t>(metric);
  std::vector<kc::index_t> ids(cfg.n);
  kc::Rng rng(99);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    // Gather layout: a shuffled-ish id stream (random ids, duplicates
    // allowed) — the pattern EIM's pruned R sets produce.
    ids[i] = contig ? static_cast<kc::index_t>(i)
                    : static_cast<kc::index_t>(rng.uniform_int(cfg.n));
  }
  std::vector<double> best(cfg.n, kc::kInfDist);
  // Rotate the center so best[] keeps seeing occasional improvements,
  // clamped to the point count for small --n runs.
  const std::size_t rot = std::min<std::size_t>(cfg.n, 64);
  std::size_t center = 0;
  const auto body = [&] {
    for (int it = 0; it < cfg.inner; ++it) {
      const double* c = ps.data(static_cast<kc::index_t>(center));
      center = (center + 1) % rot;
      if (contig) {
        table.nearest_contig[m](ps.raw().data(), dim, cfg.n, c, best.data());
      } else {
        table.nearest_gather[m](ps.raw().data(), dim, ids.data(), cfg.n, c,
                                best.data());
      }
    }
  };
  const double ns = time_ns_per_pair(
      cfg.n * static_cast<std::size_t>(cfg.inner), cfg.reps, body);
  return {table.name,  "update_nearest", contig ? "contig" : "gather",
          std::string(kc::to_string(metric)), dim, 1, ns};
}

/// Center-blocked multi shape: `centers` centers folded per pass (the
/// EIM select-round batch shape). With ncenters=1 this degenerates to
/// update_nearest, so comparing cells quantifies the blocking win.
Cell run_multi_cell(const KernelTable& table, kc::MetricKind metric,
                    std::size_t dim, std::size_t ncenters, bool contig,
                    const MatrixConfig& cfg) {
  const kc::PointSet ps = make_points(cfg.n, dim, /*seed=*/dim * 11 + 3);
  const auto m = static_cast<std::size_t>(metric);
  std::vector<kc::index_t> ids(cfg.n);
  kc::Rng rng(17);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    ids[i] = contig ? static_cast<kc::index_t>(i)
                    : static_cast<kc::index_t>(rng.uniform_int(cfg.n));
  }
  std::vector<double> best(cfg.n, kc::kInfDist);
  const std::size_t rot = std::min<std::size_t>(cfg.n, 128);
  std::size_t base = 0;
  const auto body = [&] {
    for (int it = 0; it < cfg.inner; ++it) {
      const double* cptr[kc::simd::kCenterBlock];
      for (std::size_t j = 0; j < ncenters; ++j) {
        cptr[j] = ps.data(static_cast<kc::index_t>((base + j) % rot));
      }
      base = (base + ncenters) % rot;
      if (contig) {
        table.nearest_multi_contig[m](ps.raw().data(), dim, cfg.n, cptr,
                                      ncenters, best.data());
      } else {
        table.nearest_multi_gather[m](ps.raw().data(), dim, ids.data(), cfg.n,
                                      cptr, ncenters, best.data());
      }
    }
  };
  const double ns = time_ns_per_pair(
      cfg.n * ncenters * static_cast<std::size_t>(cfg.inner), cfg.reps, body);
  return {table.name, "update_nearest_multi", contig ? "contig" : "gather",
          std::string(kc::to_string(metric)), dim, ncenters, ns};
}

/// Tiled pairwise kernel vs the per-pair path it replaced. Both fill
/// the same m x n comparable tiles (bit-identical values); the old
/// vector-returning pairwise_comparable adapter made one table.pair
/// call per element into a dense buffer, so the "pairwise_pair" cell
/// is its exact cost model minus the n^2 allocation. The layout column
/// names the tile shape ("t8x256" is the engine's streaming tile);
/// the per-pair cost is shape-blind, so one baseline per (isa, metric,
/// dim) suffices.
Cell run_tile_cell(const KernelTable& table, kc::MetricKind metric,
                   std::size_t dim, std::size_t tm, std::size_t tn,
                   bool tiled, const MatrixConfig& cfg) {
  const kc::PointSet ps = make_points(cfg.n, dim, /*seed=*/dim * 13 + 5);
  const auto m = static_cast<std::size_t>(metric);
  // A fixed block of query rows against every point: the HS-candidate
  // and brute-force streaming shape. Clamped for tiny --n runs.
  const std::size_t arows = std::min<std::size_t>(cfg.n, 64);
  std::vector<double> tile(tm * tn);
  const double* rows = ps.raw().data();
  const auto body = [&] {
    for (int it = 0; it < cfg.inner; ++it) {
      for (std::size_t i0 = 0; i0 < arows; i0 += tm) {
        const std::size_t mrows = std::min(tm, arows - i0);
        for (std::size_t j0 = 0; j0 < cfg.n; j0 += tn) {
          const std::size_t ncols = std::min(tn, cfg.n - j0);
          if (tiled) {
            table.pairwise_tile[m](rows + i0 * dim, rows + j0 * dim, dim,
                                   mrows, ncols, tile.data(), tn);
          } else {
            for (std::size_t r = 0; r < mrows; ++r) {
              for (std::size_t c = 0; c < ncols; ++c) {
                tile[r * tn + c] = table.pair[m](rows + (i0 + r) * dim,
                                                 rows + (j0 + c) * dim, dim);
              }
            }
          }
        }
      }
    }
  };
  const double ns = time_ns_per_pair(
      arows * cfg.n * static_cast<std::size_t>(cfg.inner), cfg.reps, body);
  // snprintf rather than string concatenation: gcc 12's -Wrestrict
  // fires a false positive (PR105651) on chained operator+ here.
  char shape[32];
  std::snprintf(shape, sizeof shape, "t%zux%zu", tm, tn);
  return {table.name,
          tiled ? "pairwise_tile" : "pairwise_pair",
          shape,
          std::string(kc::to_string(metric)),
          dim,
          tm,
          ns};
}

/// The three shapes of the pruned-scan matrix.
enum class PruneShape {
  Unpruned,  ///< exact blocked multi-scan through the oracle (the bar)
  Cold,      ///< ordered pruned scan from best[] = inf, no cached bounds
  Warm,      ///< ordered pruned scan of k *new* centers against an
             ///< already-converged best[] with a live PruneCache — the
             ///< steady state of iterative rounds (EIM select rounds,
             ///< GON sweeps after the first few)
};

/// Effective cost of one full k-center scan through the oracle: wall
/// time divided by all n*k pairs, whether evaluated or skipped. Pruned
/// cells use the ordered-domain scans (best[] in cell order, no
/// per-cell gather/scatter); their values are bit-identical to the
/// unpruned cell's modulo the known permutation, so any gap in
/// effective ns/pair is pure pruning win. All shapes scan GON-selected
/// centers — the realistic sweep sequence, where each new center
/// approaches from an unexplored direction (the adversarial case for
/// the bounds, unlike random centers that often land in already-covered
/// blobs). Clustered inputs (tight Gaussian blobs, the paper's GAU
/// generator) are the favourable geometry; uniform data bounds the
/// bound-test overhead when geometry gives pruning nothing.
Cell run_pruned_cell(kc::MetricKind metric, std::size_t dim, std::size_t k,
                     bool clustered, PruneShape shape,
                     const MatrixConfig& cfg) {
  kc::Rng rng(clustered ? 42 : 43);
  const kc::PointSet ps =
      clustered ? kc::data::generate_gau(cfg.n, 16, dim, 100.0, 0.1, rng)
                : kc::data::generate_unif(cfg.n, dim, 100.0, rng);
  kc::DistanceOracle oracle(ps, metric);
  const std::vector<kc::index_t> ids = ps.all_indices();
  // 2k GON centers: the first k prime the warm shape, the second k are
  // what it times; cold/unpruned scan the first k.
  const auto gon = kc::gonzalez(oracle, ids, 2 * k);
  const std::span<const kc::index_t> prime_centers{gon.centers.data(), k};
  const std::span<const kc::index_t> scan_centers =
      shape == PruneShape::Warm
          ? std::span<const kc::index_t>{gon.centers.data() + k, k}
          : prime_centers;

  std::optional<kc::SpatialIndex> index;
  std::optional<kc::PruneCache> cache;
  if (shape != PruneShape::Unpruned) {
    index.emplace(ps);
    oracle.bind_index(&*index, kc::PruneMode::On);
  }
  std::vector<double> best(cfg.n, kc::kInfDist);
  if (shape == PruneShape::Warm) {
    cache.emplace(*index);
    oracle.update_nearest_multi_ordered(prime_centers, best, &*cache);
  }
  // One timed region = one whole scan. Cold/unpruned restart from inf
  // each rep (the select-round shape: within the call the cell bounds
  // tighten block by block, so late center blocks prune against early
  // ones). Warm folds its centers once in the warm-up call; timed reps
  // then measure the converged re-scan, where the cached bounds skip
  // nearly everything — the cost an iterative round actually pays.
  const auto body = [&] {
    switch (shape) {
      case PruneShape::Unpruned:
        std::fill(best.begin(), best.end(), kc::kInfDist);
        oracle.update_nearest_multi(ids, scan_centers, best);
        break;
      case PruneShape::Cold:
        std::fill(best.begin(), best.end(), kc::kInfDist);
        oracle.update_nearest_multi_ordered(scan_centers, best);
        break;
      case PruneShape::Warm:
        oracle.update_nearest_multi_ordered(scan_centers, best, &*cache);
        break;
    }
  };
  const double ns = time_ns_per_pair(cfg.n * k, cfg.reps, body);
  const kc::WorkScope scope;
  body();
  const kc::WorkCounters counted = scope.elapsed();
  Cell cell{kc::simd::active_kernels().name,
            shape == PruneShape::Unpruned ? "unpruned_scan"
            : shape == PruneShape::Cold   ? "pruned_scan_cold"
                                          : "pruned_scan_warm",
            clustered ? "clustered" : "uniform",
            std::string(kc::to_string(metric)),
            dim,
            k,
            ns};
  if (shape != PruneShape::Unpruned) {
    cell.prune_ratio =
        static_cast<double>(counted.pruned_pairs) /
        static_cast<double>(std::max<std::uint64_t>(
            std::uint64_t{1}, counted.distance_evals + counted.pruned_pairs));
  }
  return cell;
}

std::vector<Cell> run_matrix(const MatrixConfig& cfg) {
  std::vector<const KernelTable*> tables;
  for (const IsaLevel level : {IsaLevel::Scalar, IsaLevel::Avx2,
                               IsaLevel::Avx512, IsaLevel::Neon}) {
    if (kc::simd::isa_compiled(level) && kc::simd::isa_supported(level)) {
      tables.push_back(kc::simd::kernels_for(level));
    }
  }

  std::vector<Cell> cells;
  for (const KernelTable* table : tables) {
    // scalar-vs-SIMD and gather-vs-contiguous, across the paper's
    // shapes (dim 2/3 synthetic, dim 8 stands in for the generic loop).
    for (const std::size_t dim : {std::size_t{2}, std::size_t{3},
                                  std::size_t{8}}) {
      cells.push_back(
          run_nearest_cell(*table, kc::MetricKind::L2, dim, true, cfg));
      cells.push_back(
          run_nearest_cell(*table, kc::MetricKind::L2, dim, false, cfg));
    }
    cells.push_back(
        run_nearest_cell(*table, kc::MetricKind::L1, 2, true, cfg));
    cells.push_back(
        run_nearest_cell(*table, kc::MetricKind::Linf, 2, true, cfg));
    // blocked-vs-passes: 1 center (passes baseline) vs a full block.
    for (const bool contig : {true, false}) {
      cells.push_back(run_multi_cell(*table, kc::MetricKind::L2, 2, 1, contig,
                                     cfg));
      cells.push_back(run_multi_cell(*table, kc::MetricKind::L2, 2,
                                     kc::simd::kCenterBlock, contig, cfg));
    }
    // Tiled pairwise engine vs the per-pair path it replaced, at the
    // engine's streaming tile shape; extra shapes probe the row-stream
    // (m=1, threshold_cover/cluster_stats) and short-column cases.
    for (const std::size_t dim : {std::size_t{2}, std::size_t{3},
                                  std::size_t{8}}) {
      cells.push_back(
          run_tile_cell(*table, kc::MetricKind::L2, dim, 8, 256, true, cfg));
      cells.push_back(
          run_tile_cell(*table, kc::MetricKind::L2, dim, 8, 256, false, cfg));
    }
    for (const kc::MetricKind metric :
         {kc::MetricKind::L1, kc::MetricKind::Linf}) {
      cells.push_back(run_tile_cell(*table, metric, 2, 8, 256, true, cfg));
      cells.push_back(run_tile_cell(*table, metric, 2, 8, 256, false, cfg));
    }
    cells.push_back(
        run_tile_cell(*table, kc::MetricKind::L2, 2, 1, 256, true, cfg));
    cells.push_back(
        run_tile_cell(*table, kc::MetricKind::L2, 2, 8, 64, true, cfg));
  }

  // Pruned-scan matrix: the grid-pruned oracle path vs the exact full
  // scan, on clustered vs uniform inputs at two k. These go through the
  // oracle (active ISA only) because pruning lives above the kernel
  // table; the unpruned clustered cell is the baseline the pruned ones
  // must beat. Cold k=16 is the hardest shape — the unpruneable first
  // center block alone is 1/4 of the pairs — so it is reported next to
  // the shapes where the bounds actually have room to work (cold k=64,
  // warm any k).
  for (const bool clustered : {true, false}) {
    for (const std::size_t k : {std::size_t{16}, std::size_t{64}}) {
      if (cfg.n < 2 * k) continue;
      for (const PruneShape shape :
           {PruneShape::Unpruned, PruneShape::Cold, PruneShape::Warm}) {
        cells.push_back(
            run_pruned_cell(kc::MetricKind::L2, 2, k, clustered, shape, cfg));
      }
    }
  }
  return cells;
}

void print_table(const std::vector<Cell>& cells) {
  std::printf("%-8s %-22s %-9s %-5s %4s %8s %12s %8s\n", "isa", "kernel",
              "layout", "metric", "dim", "centers", "ns/pair", "pruned");
  for (const auto& c : cells) {
    std::printf("%-8s %-22s %-9s %-5s %4zu %8zu %12.3f ", c.isa.c_str(),
                c.kernel.c_str(), c.layout.c_str(), c.metric.c_str(), c.dim,
                c.centers, c.ns_per_pair);
    if (c.prune_ratio >= 0.0) {
      std::printf("%7.1f%%\n", 100.0 * c.prune_ratio);
    } else {
      std::printf("%8s\n", "-");
    }
  }
}

void write_json(const std::vector<Cell>& cells, const MatrixConfig& cfg,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const kc::exec::Topology& topo = kc::exec::topology();
  out << "{\n  \"bench\": \"kernels\",\n"
      << "  \"active_isa\": \"" << kc::simd::active_kernels().name << "\",\n"
      << "  \"n\": " << cfg.n << ",\n"
      << "  \"topology\": {\"nodes\": " << topo.nodes
      << ", \"cores\": " << topo.cores
      << ", \"hw_threads\": " << topo.hw_threads
      << ", \"restricted\": " << (topo.restricted ? "true" : "false")
      << "},\n  \"entries\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    out << "    {\"isa\": \"" << c.isa << "\", \"kernel\": \"" << c.kernel
        << "\", \"layout\": \"" << c.layout << "\", \"metric\": \"" << c.metric
        << "\", \"dim\": " << c.dim << ", \"centers\": " << c.centers
        << ", \"ns_per_pair\": " << c.ns_per_pair;
    if (c.prune_ratio >= 0.0) out << ", \"prune_ratio\": " << c.prune_ratio;
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

void print_isa() {
  const auto levels = {IsaLevel::Scalar, IsaLevel::Avx2, IsaLevel::Avx512,
                       IsaLevel::Neon};
  for (const IsaLevel level : levels) {
    std::printf("%-7s compiled=%d supported=%d\n",
                std::string(kc::simd::to_string(level)).c_str(),
                kc::simd::isa_compiled(level), kc::simd::isa_supported(level));
  }
  std::printf("active=%s\n", kc::simd::active_kernels().name);
}

}  // namespace

#ifdef KC_HAVE_GBENCH
int run_gbench(int argc, char** argv);  // defined below
#endif

int main(int argc, char** argv) {
  MatrixConfig cfg;
  std::string json_path = "BENCH_kernels.json";
  // Flag errors exit 2, the bench-wide convention (bench/common.hpp).
  const auto positive_number = [](const std::string& arg,
                                  const std::string& value) -> std::size_t {
    try {
      const std::size_t parsed = std::stoull(value);
      if (parsed > 0) return parsed;
    } catch (const std::exception&) {
    }
    std::fprintf(stderr, "bad value in %s (need a positive integer)\n",
                 arg.c_str());
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-isa") {
      print_isa();
      return 0;
    }
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--n=", 0) == 0) {
      cfg.n = positive_number(arg, arg.substr(4));
    } else if (arg.rfind("--reps=", 0) == 0) {
      cfg.reps = static_cast<int>(positive_number(arg, arg.substr(7)));
    } else if (arg == "--gbench") {
#ifdef KC_HAVE_GBENCH
      // Hand the remaining args to google-benchmark (shift ours out).
      argv[i] = argv[0];
      return run_gbench(argc - i, argv + i);
#else
      std::fprintf(stderr,
                   "built without google-benchmark; --gbench unavailable\n");
      return 1;
#endif
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const auto cells = run_matrix(cfg);
  print_table(cells);
  if (!json_path.empty()) write_json(cells, cfg, json_path);
  return 0;
}

// ---------------------------------------------------------------------------
// The original google-benchmark suite (end-to-end shapes: oracle-level
// pair calls, GON, partitioning, covering radius).
#ifdef KC_HAVE_GBENCH

#include <benchmark/benchmark.h>

namespace {

void BM_PairDistance(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const kc::PointSet ps = make_points(1024, dim, 1);
  const kc::DistanceOracle oracle(ps);
  kc::index_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.comparable(i & 1023, (i * 7 + 1) & 1023));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairDistance)->Arg(2)->Arg(3)->Arg(10)->Arg(38);

void BM_PairDistanceMetric(benchmark::State& state) {
  const auto metric = static_cast<kc::MetricKind>(state.range(0));
  const kc::PointSet ps = make_points(1024, 10, 2);
  const kc::DistanceOracle oracle(ps, metric);
  kc::index_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.comparable(i & 1023, (i * 7 + 1) & 1023));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PairDistanceMetric)
    ->Arg(static_cast<int>(kc::MetricKind::L2))
    ->Arg(static_cast<int>(kc::MetricKind::L1))
    ->Arg(static_cast<int>(kc::MetricKind::Linf));

void BM_UpdateNearest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const kc::PointSet ps = make_points(n, 2, 3);
  const kc::DistanceOracle oracle(ps);
  const auto ids = ps.all_indices();
  std::vector<double> best(n, kc::kInfDist);
  kc::index_t center = 0;
  for (auto _ : state) {
    oracle.update_nearest(ids, center, best);
    center = (center + 1) % static_cast<kc::index_t>(n);
    benchmark::DoNotOptimize(best.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UpdateNearest)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_Gonzalez(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const kc::PointSet ps = make_points(n, 2, 4);
  const kc::DistanceOracle oracle(ps);
  const auto ids = ps.all_indices();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kc::gonzalez(oracle, ids, k));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * k));
}
BENCHMARK(BM_Gonzalez)
    ->Args({10'000, 10})
    ->Args({10'000, 100})
    ->Args({100'000, 10});

void BM_Partition(benchmark::State& state) {
  const auto strategy = static_cast<kc::mr::PartitionStrategy>(state.range(0));
  const kc::PointSet ps = make_points(100'000, 2, 5);
  const auto ids = ps.all_indices();
  kc::Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::mr::partition_items(ids, 50, strategy, &rng));
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
}
BENCHMARK(BM_Partition)
    ->Arg(static_cast<int>(kc::mr::PartitionStrategy::Block))
    ->Arg(static_cast<int>(kc::mr::PartitionStrategy::RoundRobin))
    ->Arg(static_cast<int>(kc::mr::PartitionStrategy::Shuffled));

void BM_CoveringRadius(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const kc::PointSet ps = make_points(n, 2, 7);
  const kc::DistanceOracle oracle(ps);
  const auto ids = ps.all_indices();
  const auto gon = kc::gonzalez(oracle, ids, 25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kc::eval::covering_radius(oracle, ids, gon.centers));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_CoveringRadius)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

int run_gbench(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#endif  // KC_HAVE_GBENCH
