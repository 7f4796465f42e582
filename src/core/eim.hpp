// EIM: the parameterized iterative-sampling MapReduce algorithm
// (Algorithm 2 "EIM-MapReduce-Sample" + Algorithm 3 "Select" of the
// paper; a generalization of Ene, Im & Moseley, KDD 2011).
//
// Each iteration of the main loop is three MapReduce rounds:
//   1. sample: every point of R joins S with prob 9k n^eps log(n)/|R|
//      and H with prob 4 n^eps log(n)/|R|;
//   2. select: one machine computes d(x, S) for x in H, sorts H by that
//      distance (farthest first) and takes the pivot v at position
//      phi*log(n) (the paper's new knob; Ene et al. fix phi = 8);
//   3. prune: every x in R with d(x, S) <= d(v, S) leaves R.
// d(x, S) is kept per point and folded with each iteration's new
// sample members only. Unless the oracle's prune mode is Off (or
// KC_FORCE_NO_PRUNE is set), the select machine also splits each new
// sample into axis-aligned boxes (geom/spatial_index.hpp); H in round 2
// and R in round 3 fold through them, skipping groups whose box is no
// nearer than a point's best, and each prune machine's shuffle counts
// the boxes (two rows per group). The skips are provably no-ops:
// centers, value, rounds, sample sizes and every RNG draw are the same
// bit for bit, and the skipped pairs are reported as pruned pairs.
// The loop runs while |R| > (4/eps) k n^eps log n, after which one final
// round runs a sequential algorithm on C = S [union] R.
//
// Termination fixes from §4.1 are implemented: the pruning comparison
// is `<=` (the original `<` can stall on ties), and sampled points are
// always removed from R. With phi in its provable range the combined
// procedure is a 10-approximation "with sufficient probability" (§6);
// smaller phi trades the guarantee for fewer iterations.
//
// When n is already below the loop threshold (k too large relative to
// n), no sampling happens and the whole input goes to one machine —
// exactly the collapse onto GON the paper observes in Figures 3b/4b.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "algo/result.hpp"
#include "core/driver.hpp"
#include "core/hooks.hpp"
#include "geom/distance.hpp"
#include "mapreduce/cluster.hpp"

namespace kc {

/// Base of the log(n) appearing in EIM's threshold, sample rates and
/// pivot rank. The paper (like Ene et al.) writes an unbased "log";
/// the choice rescales constants only. Ten reproduces the paper's
/// observed sampling/no-sampling switchovers best.
enum class LogBase { E, Two, Ten };

[[nodiscard]] std::string_view to_string(LogBase base) noexcept;
[[nodiscard]] double log_with_base(double x, LogBase base) noexcept;

struct EimOptions {
  double epsilon = 0.1;  ///< the paper confirms Ene et al.'s 0.1 (§7.2)
  double phi = 8.0;      ///< pivot rank multiplier; 8 = original scheme
  LogBase log_base = LogBase::Ten;

  /// Sequential subroutine for the final clean-up round (GON in §7.1).
  SeqAlgo final_algo = SeqAlgo::Gonzalez;

  /// §4.1 termination fixes. Both default on (the paper's version);
  /// turning them off reproduces Ene et al.'s original scheme, which
  /// can stall on distance ties (prune keeps every point whose
  /// distance *equals* the pivot's) and on sampled points re-entering
  /// R. Only disable for the regression demonstration — runs may then
  /// exhaust max_iterations and throw.
  bool tie_breaking_removal = true;  ///< prune with <= (fix 1) vs <
  bool remove_sampled = true;        ///< sampled points always leave R (fix 2)

  std::uint64_t seed = 1;
  int max_iterations = 100;  ///< safety valve; theory: O(1/eps) w.h.p.

  /// Cooperative hooks (core/hooks.hpp). `progress` fires after every
  /// main-loop iteration (three MapReduce rounds); a cancelled `cancel`
  /// token stops the run at the next iteration boundary (before the
  /// final clean-up round included) by throwing CancelledError. Both
  /// default inert. (Solves driven through api::Solver additionally
  /// observe the token *inside* the bulk distance scans —
  /// chunk-granular, via the oracle's ChunkContext.)
  ProgressFn progress;
  CancellationToken cancel;
};

struct EimResult : KCenterResult {
  int iterations = 0;   ///< main-loop iterations (3 MapReduce rounds each)
  bool sampled = false; ///< false => degenerated to sequential on all of V
  std::size_t final_sample_size = 0;  ///< |C| = |S| + |R| at loop exit
  mr::JobTrace trace;
};

/// The loop threshold (4/eps) * k * n^eps * log n. Exposed so tests and
/// benches can predict the sampling/no-sampling regime.
[[nodiscard]] double eim_loop_threshold(std::size_t n, std::size_t k,
                                        const EimOptions& options);

/// True when EIM on n points never samples: n is at most the loop
/// threshold, or the threshold is not positive (n = 1 makes log n = 0).
/// The whole input then goes to one machine, which runs
/// options.final_algo on it.
[[nodiscard]] bool eim_degenerates(std::size_t n, std::size_t k,
                                   const EimOptions& options);

/// Runs EIM on `pts` with the given simulated cluster.
///
/// Preconditions: k >= 1, pts non-empty, 0 < epsilon < 1, phi > 0.
///
/// radius_comparable is the covering radius over the final sample C;
/// use eval::covering_radius for the paper's whole-input solution value.
[[nodiscard]] EimResult eim(const DistanceOracle& oracle,
                            std::span<const index_t> pts, std::size_t k,
                            const mr::SimCluster& cluster,
                            const EimOptions& options = {});

}  // namespace kc
