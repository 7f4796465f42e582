#include "core/disjoint_union.hpp"

#include <stdexcept>

#include "core/driver.hpp"
#include "exec/scheduler.hpp"
#include "rng/rng.hpp"

namespace kc {

DisjointUnionResult mrg_disjoint_union(const DistanceOracle& oracle,
                                       std::span<const index_t> pts,
                                       std::size_t k,
                                       const mr::SimCluster& cluster,
                                       const DisjointUnionOptions& options) {
  if (pts.empty()) {
    throw std::invalid_argument("mrg_disjoint_union: empty point subset");
  }
  if (k == 0) {
    throw std::invalid_argument("mrg_disjoint_union: k must be at least 1");
  }
  if (options.instances == 0) {
    throw std::invalid_argument(
        "mrg_disjoint_union: instances must be at least 1");
  }

  const std::size_t instances = std::min(options.instances, pts.size());
  DisjointUnionResult result;
  result.chunk_results.reserve(instances);

  // Contiguous chunks model the external-memory stream: each chunk is
  // paged in, clustered, and only its k centers are retained.
  std::vector<index_t> union_centers;
  union_centers.reserve(instances * k);
  int max_chunk_rounds = 0;
  std::uint64_t evals_before_chunk = 0;  // completed chunks' total evals
  for (std::size_t chunk = 0; chunk < instances; ++chunk) {
    const auto [lo, hi] = exec::chunk_bounds(pts.size(), instances, chunk);
    MrgOptions chunk_options = options.mrg;
    chunk_options.seed = options.mrg.seed + chunk * 7919;
    if (options.mrg.progress) {
      // Progress events must report job-wide work, not chunk-local:
      // budget enforcement hangs off dist_evals, so a per-chunk count
      // would let a whole run slip under a global cap one chunk at a
      // time. Rounds stay chunk-local (each instance restarts its
      // while loop); the label says which job this really is.
      chunk_options.progress = [&options,
                               evals_before_chunk](const ProgressEvent& event) {
        ProgressEvent global = event;
        global.algorithm = "mrg-du";
        global.dist_evals = evals_before_chunk + event.dist_evals;
        options.mrg.progress(global);
      };
    }
    // Each chunk's MRG starts a fresh trace, so its round ordinals
    // repeat chunk to chunk; its cluster's fault scope mixes in the
    // chunk, so the chunks draw their own machine losses.
    mr::SimCluster chunk_cluster = cluster;
    chunk_cluster.set_fault_scope(Rng(cluster.fault_scope()).split(chunk)());
    MrgResult chunk_result = mrg(oracle, pts.subspan(lo, hi - lo), k,
                                 chunk_cluster, chunk_options);
    evals_before_chunk += chunk_result.trace.total_dist_evals();
    max_chunk_rounds =
        std::max(max_chunk_rounds, chunk_result.reduce_rounds);
    union_centers.insert(union_centers.end(), chunk_result.centers.begin(),
                         chunk_result.centers.end());
    result.chunk_results.push_back(std::move(chunk_result));
  }

  // Final sequential pass over the union of chunk solutions.
  KCenterResult final_result;
  auto& union_round = cluster.run_round(
      "union-final", 1,
      [&](int) {
        final_result = run_sequential(options.mrg.final_algo, oracle,
                                      union_centers, k,
                                      options.mrg.seed ^ 0x5bd1e995u);
      },
      result.union_trace);
  union_round.items_in = union_centers.size();
  union_round.items_out = final_result.centers.size();
  union_round.shuffle_items = union_centers.size();

  result.centers = std::move(final_result.centers);
  result.radius_comparable = final_result.radius_comparable;
  result.guaranteed_factor = 2 * (max_chunk_rounds + 2);
  return result;
}

}  // namespace kc
