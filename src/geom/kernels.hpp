// Vectorized distance-kernel engine with runtime ISA dispatch.
//
// Every algorithm in the reproduction bottoms out in the per-metric
// pair loops, so those loops are implemented once per ISA — scalar,
// AVX2, AVX-512 on x86, NEON on aarch64 — as separate translation
// units compiled with per-file ISA flags (the binary stays portable;
// wide x86 code is only *executed* after `__builtin_cpu_supports` says
// the host has the instructions, and the NEON table is part of the
// aarch64 baseline).
//
// The determinism contract, inherited from the execution-backend layer:
// vectorized kernels are **bit-identical** to the scalar loops. They
// vectorize *across points* — one point per lane, accumulating over the
// coordinates sequentially — so each lane performs exactly the scalar
// operation sequence, and the SIMD translation units are compiled with
// `-ffp-contract=off` so no FMA contraction or reassociation can creep
// in. A result computed on an AVX-512 host equals one computed on a
// scalar host bit for bit, which keeps the cross-backend determinism
// tests meaningful on heterogeneous fleets.
//
// Selection happens once per process: the best compiled-in level the
// CPU supports, unless the environment sets KC_FORCE_SCALAR (any value
// other than "0"), the escape hatch for debugging and for A/B runs.
// Tests and benches can also grab a specific table via `kernels_for`.
//
// One nearest-center kernel per id layout: every scan that folds
// centers into best[] (one per Gonzalez sweep, a block per EIM select
// round) calls `nearest_multi_contig` or `nearest_multi_gather` with
// 1..kCenterBlock centers, which switch once per call into a body
// compiled for that count. Two structural fast paths ride on top:
//   - the contiguous layout: when the caller's id span is an iota run —
//     what `PointSet::all_indices` produces and most call sites pass —
//     the kernel streams PointSet rows directly instead of gathering
//     through the index array;
//   - center blocking: up to kCenterBlock centers are folded per
//     streaming pass over the points, cutting best[]/ids[] traffic ~4x
//     for EIM's select-round batches.
#pragma once

#include <cstddef>
#include <string_view>

#include "geom/point_set.hpp"

namespace kc::simd {

/// Most centers one nearest-center kernel call folds per streaming pass
/// over the points; each count 1..kCenterBlock has its own compiled
/// kernel body.
inline constexpr std::size_t kCenterBlock = 4;

/// Number of metrics (mirrors MetricKind; kernel tables are indexed by
/// static_cast<size_t>(MetricKind)).
inline constexpr std::size_t kMetricCount = 3;

/// One ISA's worth of kernels. Function pointers are indexed by metric
/// (the MetricKind enumerator value) so the per-call metric switch is a
/// single table load, hoisted out of every pair loop.
struct KernelTable {
  /// "scalar", "avx2", "avx512", "neon".
  const char* name;

  /// Comparable distance of one pair (the scalar unit; shared by every
  /// table — single pairs do not vectorize across points).
  double (*pair[kMetricCount])(const double* a, const double* b,
                               std::size_t dim);

  /// Nearest-center folds: best[i] = min(best[i], metric(p_i, c)) for
  /// each of centers[0..ncenters), folded in that order during one pass
  /// over the points, so the result is bit-identical to ncenters
  /// one-center passes. ncenters must be in [1, kCenterBlock]; callers
  /// tile larger batches. The gather layout reads point i at
  /// coords + ids[i]*dim; the contiguous layout reads n consecutive rows
  /// starting at `rows`.
  void (*nearest_multi_gather[kMetricCount])(
      const double* coords, std::size_t dim, const index_t* ids, std::size_t n,
      const double* const* centers, std::size_t ncenters, double* best);
  void (*nearest_multi_contig[kMetricCount])(
      const double* rows, std::size_t dim, std::size_t n,
      const double* const* centers, std::size_t ncenters, double* best);

  /// Position of the maximum element, first on ties; n must be positive
  /// and values must be NaN-free (distance arrays always are).
  std::size_t (*argmax)(const double* values, std::size_t n);

  /// Dense m x n pairwise tile: out[i * ldo + j] = metric(a_i, b_j) for
  /// the m contiguous rows at `arows` against the n contiguous rows at
  /// `brows` (ldo is out's leading dimension, >= n). The building block
  /// of the tile-streaming pairwise engine: callers cut the full
  /// pairwise problem into cache-sized tiles and consume each tile
  /// before the next is computed, so no n^2 buffer ever exists. SIMD
  /// variants vectorize across the b rows (one b point per lane) with
  /// the scalar coordinate fold per lane — bit-identical to the scalar
  /// per-pair loop.
  void (*pairwise_tile[kMetricCount])(const double* arows, const double* brows,
                                      std::size_t dim, std::size_t m,
                                      std::size_t n, double* out,
                                      std::size_t ldo);

  /// One point against a run of centers stored coordinate-major:
  /// coordinate d of center j is soa[d * ld + j], for j < n (ld >= n).
  /// Returns the minimum of `best` and the n comparable distances. The
  /// sample-box scans keep each group of centers in this layout, padded
  /// with +inf coordinates (distance +inf, so a padding lane never wins
  /// the min). SIMD variants vectorize across the centers (one center
  /// per lane) with the scalar coordinate fold per lane; the min over
  /// non-negative, NaN-free distances does not depend on the order the
  /// lanes are reduced in, so the result is bit-identical to the scalar
  /// loop.
  double (*nearest_soa[kMetricCount])(const double* point, const double* soa,
                                      std::size_t dim, std::size_t n,
                                      std::size_t ld, double best);
};

enum class IsaLevel {
  Scalar,
  Avx2,
  Avx512,
  Neon,
};

[[nodiscard]] std::string_view to_string(IsaLevel level) noexcept;

/// True when this binary contains the level's translation unit (the
/// compiler supported the per-file ISA flag at build time).
[[nodiscard]] bool isa_compiled(IsaLevel level) noexcept;

/// True when the host CPU can execute the level's instructions.
[[nodiscard]] bool isa_supported(IsaLevel level) noexcept;

/// The level's kernel table, or nullptr when not compiled in. Intended
/// for the equivalence tests and the kernel microbenchmarks; algorithm
/// code goes through active_kernels().
[[nodiscard]] const KernelTable* kernels_for(IsaLevel level) noexcept;

/// True when the KC_FORCE_SCALAR environment variable requests the
/// scalar kernels (set and not "0"). Read once per process.
[[nodiscard]] bool force_scalar_requested() noexcept;

/// The process-wide selection: the best compiled-in level the CPU
/// supports, or Scalar under KC_FORCE_SCALAR. Decided once, on first
/// call.
[[nodiscard]] IsaLevel active_level() noexcept;
[[nodiscard]] const KernelTable& active_kernels() noexcept;

/// True when `ids` is a contiguous ascending run (ids[i] == ids[0] + i),
/// i.e. the gather indirection can be bypassed. O(n), but trivially
/// cheap next to the O(n * dim) scan it unlocks; empty spans count as
/// contiguous.
[[nodiscard]] bool is_contiguous_run(const index_t* ids,
                                     std::size_t n) noexcept;

}  // namespace kc::simd
