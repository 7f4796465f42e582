// Scalar reference kernels, shared across the kernel translation units.
//
// These loops are the semantic ground truth for the whole kernel
// engine: the scalar table is built from them directly, and the SIMD
// translation units reuse them for ragged tails so every element of a
// vectorized scan still executes exactly this operation sequence. Keep
// them free of anything a compiler could legally reassociate — each
// accumulation is a strict left-to-right fold.
//
// Everything here lives in an anonymous namespace ON PURPOSE, even
// though this is a header: each including translation unit must get its
// *own* internal copy, compiled with that TU's ISA flags. With ordinary
// inline (vague) linkage the linker comdat-merges the copies and may
// keep the one compiled under -mavx2/-mavx512f — and then the scalar
// fallback table would execute AVX instructions on a host that has
// none. Internal linkage makes that impossible: the scalar TU's copy is
// baseline code, and the SIMD TUs' copies (used only for tails) only
// run after runtime dispatch has confirmed their ISA. Include this
// header only from the kernel TUs.
#pragma once

#include <cmath>
#include <cstddef>
#include <type_traits>

#include "geom/kernels.hpp"
#include "geom/point_set.hpp"

namespace kc::simd::scalar {
namespace {

// Per-metric pair kernels. The dim-2/3 specializations matter: the
// paper's synthetic data is 2-3 dimensional and the generic loop costs
// roughly 2x on those shapes. (0 + d*d == d*d bitwise for the
// non-negative squares, so the specializations are bit-identical to the
// generic fold.)

[[nodiscard]] inline double l2sq(const double* a, const double* b,
                                 std::size_t dim) noexcept {
  if (dim == 2) {
    const double d0 = a[0] - b[0];
    const double d1 = a[1] - b[1];
    return d0 * d0 + d1 * d1;
  }
  if (dim == 3) {
    const double d0 = a[0] - b[0];
    const double d1 = a[1] - b[1];
    const double d2 = a[2] - b[2];
    return d0 * d0 + d1 * d1 + d2 * d2;
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

[[nodiscard]] inline double l1(const double* a, const double* b,
                               std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

[[nodiscard]] inline double linf(const double* a, const double* b,
                                 std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double d = std::abs(a[i] - b[i]);
    if (d > acc) acc = d;
  }
  return acc;
}

// Blocked nearest-center folds: per point, centers fold in order
// 0..NC-1, exactly the result of NC one-center passes. NC and the pair
// kernel are compile-time constants (see with_center_count), and dims 2
// and 3 get loops of their own, so the pair kernel inlines with its
// dimension branches folded away. `row(i, d)` points at point i.
template <std::size_t NC, auto pair, typename Row>
inline void nearest_multi(std::size_t dim, std::size_t n, Row&& row,
                          const double* const* centers, double* best) noexcept {
  const auto fold = [&](std::size_t d) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* p = row(i, d);
      double b = best[i];
      for (std::size_t c = 0; c < NC; ++c) {
        const double v = pair(p, centers[c], d);
        if (v < b) b = v;
      }
      best[i] = b;
    }
  };
  if (dim == 2) {
    fold(2);
  } else if (dim == 3) {
    fold(3);
  } else {
    fold(dim);
  }
}

template <std::size_t NC, auto pair>
inline void nearest_multi_gather(const double* coords, std::size_t dim,
                                 const index_t* ids, std::size_t n,
                                 const double* const* centers,
                                 double* best) noexcept {
  nearest_multi<NC, pair>(
      dim, n,
      [&](std::size_t i, std::size_t d) {
        return coords + static_cast<std::size_t>(ids[i]) * d;
      },
      centers, best);
}

template <std::size_t NC, auto pair>
inline void nearest_multi_contig(const double* rows, std::size_t dim,
                                 std::size_t n, const double* const* centers,
                                 double* best) noexcept {
  nearest_multi<NC, pair>(
      dim, n, [&](std::size_t i, std::size_t d) { return rows + i * d; },
      centers, best);
}

/// Dense m x n distance tile: out[i * ldo + j] = pair(arows_i, brows_j).
/// Row-major over the a rows, columns in ascending b order — the exact
/// per-pair operation sequence the old per-pair matrix loop performed,
/// so the tiled engine's scalar reference is bit-identical to it.
template <typename Pair>
inline void pairwise_tile(const double* arows, const double* brows,
                          std::size_t dim, std::size_t m, std::size_t n,
                          double* out, std::size_t ldo, Pair&& pair) noexcept {
  for (std::size_t i = 0; i < m; ++i) {
    const double* a = arows + i * dim;
    double* row = out + i * ldo;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = pair(a, brows + j * dim, dim);
    }
  }
}

// Per-coordinate steps of the three pair kernels: from acc = 0, l2sq,
// l1 and linf are strict coordinate-order folds of exactly these (the
// dim-2/3 shortcuts of l2sq only drop the exact leading 0 +).

[[nodiscard]] inline double l2sq_step(double acc, double diff) noexcept {
  return acc + diff * diff;
}

[[nodiscard]] inline double l1_step(double acc, double diff) noexcept {
  return acc + std::abs(diff);
}

[[nodiscard]] inline double linf_step(double acc, double diff) noexcept {
  const double d = std::abs(diff);
  return d > acc ? d : acc;
}

/// Coordinate-major fold: min(best, distance from `point` to each of the
/// n centers whose coordinate d is soa[d * ld + j]). Each center folds
/// point[d] - center[d] in coordinate order, the pair kernels' operand
/// order and sequence, and updates best with the same strict <.
template <typename Step>
inline double nearest_soa(const double* point, const double* soa,
                          std::size_t dim, std::size_t n, std::size_t ld,
                          double best, Step&& step) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      acc = step(acc, point[d] - soa[d * ld + j]);
    }
    if (acc < best) best = acc;
  }
  return best;
}

[[nodiscard]] inline std::size_t argmax(const double* values,
                                        std::size_t n) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

}  // namespace
}  // namespace kc::simd::scalar

namespace kc::simd {
namespace {

/// Calls body(std::integral_constant<std::size_t, NC>{}) with NC equal
/// to ncenters: every table's nearest entries switch once per call into
/// a body compiled for that center count. An ncenters outside
/// [1, kCenterBlock] is a precondition violation and runs nothing.
template <typename Body>
inline void with_center_count(std::size_t ncenters, Body&& body) {
  static_assert(kCenterBlock == 4, "one case per center count");
  switch (ncenters) {
    case 1: body(std::integral_constant<std::size_t, 1>{}); break;
    case 2: body(std::integral_constant<std::size_t, 2>{}); break;
    case 3: body(std::integral_constant<std::size_t, 3>{}); break;
    case 4: body(std::integral_constant<std::size_t, 4>{}); break;
    default: break;
  }
}

}  // namespace
}  // namespace kc::simd
