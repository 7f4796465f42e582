#include "api/registry.hpp"

// GCC 12 miscompiles the -Wrestrict bounds of short string-literal
// assignments inlined through libstdc++'s char_traits (GCC PR105329):
// `report.guarantee = "2"` reports a possible overlap of ~2^63 bytes.
// False positive, suppressed for this TU only; Clang and later GCCs
// are unaffected.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "algo/brute_force.hpp"
#include "algo/gonzalez.hpp"
#include "algo/hochbaum_shmoys.hpp"
#include "core/ccm.hpp"
#include "core/disjoint_union.hpp"
#include "core/eim.hpp"
#include "core/mrg.hpp"

namespace kc::api {

void Registry::add(AlgorithmInfo info) {
  if (info.name.empty()) {
    throw std::invalid_argument("registry: algorithm name must be non-empty");
  }
  if (!info.run) {
    throw std::invalid_argument("registry: algorithm '" + info.name +
                                "' has no runner");
  }
  for (const auto& existing : algos_) {
    auto clashes = [&existing](const std::string& key) {
      if (key == existing.name) return true;
      return std::find(existing.aliases.begin(), existing.aliases.end(),
                       key) != existing.aliases.end();
    };
    if (clashes(info.name)) {
      throw std::invalid_argument("registry: duplicate algorithm name '" +
                                  info.name + "'");
    }
    for (const auto& alias : info.aliases) {
      if (clashes(alias)) {
        throw std::invalid_argument("registry: duplicate algorithm alias '" +
                                    alias + "'");
      }
    }
  }
  algos_.push_back(std::move(info));
}

const AlgorithmInfo* Registry::find(
    std::string_view name_or_alias) const noexcept {
  for (const auto& algo : algos_) {
    if (algo.name == name_or_alias) return &algo;
    for (const auto& alias : algo.aliases) {
      if (alias == name_or_alias) return &algo;
    }
  }
  return nullptr;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(algos_.size());
  for (const auto& algo : algos_) out.push_back(algo.name);
  return out;
}

namespace {

/// The request's options alternative, or `fallback` when the variant
/// holds monostate (the Solver has already rejected mismatches).
template <typename T>
[[nodiscard]] T options_or(const SolveRequest& request, T fallback = {}) {
  if (const T* options = std::get_if<T>(&request.options)) return *options;
  return fallback;
}

/// GON defaults under the facade: random first center seeded by the
/// request, matching the experiment protocol (§7.1) and the legacy
/// harness/CLI paths. Pass explicit GonzalezOptions for FirstPoint.
[[nodiscard]] GonzalezOptions default_gonzalez() {
  GonzalezOptions options;
  options.first = GonzalezOptions::FirstCenter::Random;
  return options;
}

void run_gon(const SolveContext& ctx, SolveReport& report) {
  GonzalezOptions options = options_or(*ctx.request, default_gonzalez());
  options.seed = ctx.request->seed;
  GonzalezResult r = gonzalez(*ctx.oracle, ctx.points, ctx.request->k, options);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.guarantee = "2";
}

void run_hs(const SolveContext& ctx, SolveReport& report) {
  const HochbaumShmoysOptions options =
      options_or<HochbaumShmoysOptions>(*ctx.request);
  KCenterResult r =
      hochbaum_shmoys(*ctx.oracle, ctx.points, ctx.request->k, options);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.guarantee = "2";
}

void run_brute(const SolveContext& ctx, SolveReport& report) {
  const BruteForceOptions options = options_or<BruteForceOptions>(*ctx.request);
  KCenterResult r = brute_force_opt(*ctx.oracle, ctx.points, ctx.request->k,
                                    options.max_subsets);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.guarantee = "1 (exact)";
}

/// Installs the Solver-prepared hooks into a loop algorithm's options.
/// A request-level callback replaces a variant-embedded one; a request
/// without one leaves any variant-embedded callback in place.
template <typename Options>
void install_hooks(const SolveContext& ctx, Options& options) {
  if (ctx.progress) options.progress = ctx.progress;
  if (ctx.cancel.armed()) options.cancel = ctx.cancel;
}

void fill_from_trace(SolveReport& report, mr::JobTrace trace) {
  report.rounds = trace.num_rounds();
  report.dist_evals = trace.total_dist_evals();
  report.pairs_pruned = trace.total_pairs_pruned();
  report.sim_seconds = trace.simulated_seconds();
  report.trace = std::move(trace);
}

void run_mrg(const SolveContext& ctx, SolveReport& report) {
  MrgOptions options = options_or<MrgOptions>(*ctx.request);
  options.seed = ctx.request->seed;
  install_hooks(ctx, options);
  MrgResult r =
      mrg(*ctx.oracle, ctx.points, ctx.request->k, *ctx.cluster, options);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.iterations = r.reduce_rounds;
  report.guarantee = std::to_string(r.guaranteed_factor());
  fill_from_trace(report, std::move(r.trace));
}

void run_eim(const SolveContext& ctx, SolveReport& report) {
  EimOptions options = options_or<EimOptions>(*ctx.request);
  options.seed = ctx.request->seed;
  install_hooks(ctx, options);
  EimResult r =
      eim(*ctx.oracle, ctx.points, ctx.request->k, *ctx.cluster, options);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.iterations = r.iterations;
  report.sampled = r.sampled;
  report.final_sample_size = r.final_sample_size;
  report.guarantee = r.sampled ? "10 (w.s.p.)" : "2";
  fill_from_trace(report, std::move(r.trace));
}

void run_mrg_du(const SolveContext& ctx, SolveReport& report) {
  DisjointUnionOptions options = options_or<DisjointUnionOptions>(*ctx.request);
  options.mrg.seed = ctx.request->seed;
  install_hooks(ctx, options.mrg);
  DisjointUnionResult r = mrg_disjoint_union(*ctx.oracle, ctx.points,
                                             ctx.request->k, *ctx.cluster,
                                             options);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.guarantee = std::to_string(r.guaranteed_factor);
  mr::JobTrace merged;
  for (const auto& chunk : r.chunk_results) {
    merged.append(chunk.trace);
    report.iterations = std::max(report.iterations, chunk.reduce_rounds);
  }
  merged.append(r.union_trace);
  fill_from_trace(report, std::move(merged));
}

void run_ccm(const SolveContext& ctx, SolveReport& report) {
  CcmOptions options = options_or<CcmOptions>(*ctx.request);
  options.seed = ctx.request->seed;
  install_hooks(ctx, options);
  CcmResult r =
      ccm(*ctx.oracle, ctx.points, ctx.request->k, *ctx.cluster, options);
  report.centers = std::move(r.centers);
  report.radius_comparable = r.radius_comparable;
  report.final_sample_size = r.coreset_size;
  report.guarantee = "2+eps (grid coreset)";
  fill_from_trace(report, std::move(r.trace));
}

/// GON sweeps the whole set once per center. HS and brute scan pairs,
/// and mrg-du and CCM scan machine partitions, so they declare none.
std::size_t gon_sweeps(const SolveRequest& request) { return request.k; }

/// MRG's machines scan partitions, but when the whole set fits one
/// machine's capacity its final round is GON on all of it.
std::size_t mrg_sweeps(const SolveRequest& request) {
  const MrgOptions options = options_or<MrgOptions>(request);
  const std::size_t n = request.points->size();
  const auto machines = static_cast<std::size_t>(request.exec.machines);
  return options.final_algo == SeqAlgo::Gonzalez &&
                 n <= mrg_capacity(n, request.k, machines, options)
             ? request.k
             : 0;
}

/// EIM is GON on the whole set where it degenerates with GON as its
/// final algorithm; its sampling rounds scan subsets through the sample
/// boxes, which need no index.
std::size_t eim_sweeps(const SolveRequest& request) {
  const EimOptions options = options_or<EimOptions>(request);
  return options.final_algo == SeqAlgo::Gonzalez &&
                 eim_degenerates(request.points->size(), request.k, options)
             ? request.k
             : 0;
}

void register_builtins(Registry& registry) {
  registry.add({"gon",
                {"gonzalez"},
                "Gonzalez greedy farthest-point traversal "
                "(sequential 2-approximation, O(kN))",
                /*uses_cluster=*/false,
                options_index_of<GonzalezOptions>(),
                run_gon,
                gon_sweeps});
  registry.add({"hs",
                {"hochbaum-shmoys"},
                "Hochbaum-Shmoys threshold search "
                "(sequential 2-approximation, O(N^2 log N))",
                /*uses_cluster=*/false,
                options_index_of<HochbaumShmoysOptions>(),
                run_hs,
                /*whole_set_sweeps=*/nullptr});
  registry.add({"brute",
                {"brute-force", "opt"},
                "exact optimum by exhaustive center enumeration "
                "(tiny instances only)",
                /*uses_cluster=*/false,
                options_index_of<BruteForceOptions>(),
                run_brute,
                /*whole_set_sweeps=*/nullptr});
  registry.add({"mrg",
                {},
                "multi-round MapReduce Gonzalez "
                "(Algorithm 1; 4-approximation in two rounds)",
                /*uses_cluster=*/true,
                options_index_of<MrgOptions>(),
                run_mrg,
                mrg_sweeps});
  registry.add({"eim",
                {},
                "iterative-sampling MapReduce, parameterized Ene-Im-Moseley "
                "(Algorithms 2+3; 10-approximation w.s.p.)",
                /*uses_cluster=*/true,
                options_index_of<EimOptions>(),
                run_eim,
                eim_sweeps});
  registry.add({"mrg-du",
                {"disjoint-union"},
                "external-memory MRG: disjoint-chunk instances + union pass "
                "(2(i+2)-approximation, SS3.2)",
                /*uses_cluster=*/true,
                options_index_of<DisjointUnionOptions>(),
                run_mrg_du,
                /*whole_set_sweeps=*/nullptr});
  // Registered through the same string-keyed seam as the paper's
  // algorithms: the harness, CLI, benches and the svc/ batch service
  // all pick it up with zero front-end changes.
  registry.add({"ccm",
                {"coy-czumaj-mishra", "grid-coreset"},
                "grid-coreset parallel k-center, Coy-Czumaj-Mishra style "
                "(3 rounds; 2+eps via per-machine grid snapping)",
                /*uses_cluster=*/true,
                options_index_of<CcmOptions>(),
                run_ccm,
                /*whole_set_sweeps=*/nullptr});
}

}  // namespace

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry;
    register_builtins(*r);
    return r;
  }();
  return *instance;
}

std::string known_algorithms() {
  std::string out;
  for (const auto& name : registry().names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

}  // namespace kc::api
