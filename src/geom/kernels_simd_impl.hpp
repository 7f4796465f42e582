// Shared SIMD kernel bodies, templated over a per-ISA vector
// abstraction. Included only by the per-ISA translation units
// (kernels_avx2.cpp, kernels_avx512.cpp); each supplies a Vec type:
//
//   static constexpr std::size_t kWidth;      // lanes per register
//   using reg;                                // the register type
//   reg zero(); reg set1(double);
//   reg loadu(const double*); void storeu(double*, reg);
//   reg add(reg, reg); reg sub(reg, reg); reg mul(reg, reg);
//   reg vmin(reg a, reg b);   // lane: a < b ? a : b (b on ties/NaN)
//   reg vmax(reg a, reg b);   // lane: a > b ? a : b (b on ties/NaN)
//   reg vabs(reg);            // clears the sign bit, like std::fabs
//   reg load_strided(const double* p, std::size_t stride);  // p[j*stride]
//   reg load_rows(const double* const* rows, std::size_t d); // rows[j][d]
//   void deinterleave2(const double* p, reg& x, reg& y);    // dim-2 rows
//   unsigned cmpeq_mask(reg, reg);  // lane-equality bitmask (lane 0 = bit 0)
//
// Bit-identity with the scalar loops is by construction: lanes are
// points, and each lane folds its coordinates in exactly the scalar
// order (a strict left-to-right accumulation; the leading 0 + x of the
// generic scalar fold is exact for the non-negative per-coordinate
// terms). vmin/vmax operand order reproduces the scalar strict-<
// comparisons' tie behavior. Ragged tails run the scalar reference
// loops — unless the Vec type provides masked-tail support (AVX-512's
// lane masks):
//
//   using Mask;                                   // e.g. __mmask8
//   Mask tail_mask(std::size_t r);                // low r lanes active
//   reg maskz_loadu(Mask, const double*);         // inactive lanes 0.0,
//                                                 //   no faulting reads
//   void mask_storeu(double*, Mask, reg);         // inactive lanes untouched
//   reg maskz_load_strided(const double* p, std::size_t stride,
//                          std::size_t r);        // p[j*stride], j < r
//   reg maskz_load_rows(const double* const* rows, std::size_t d,
//                       std::size_t r);           // rows[j][d],  j < r
//   void maskz_deinterleave2(const double* p, std::size_t r,
//                            reg& x, reg& y);     // first r dim-2 rows
//
// then the nearest-center folds' tails run vectorized under a mask: active
// lanes perform exactly the main loop's (scalar-identical) operation
// sequence, inactive lanes compute on zeros and are never stored, so
// bit-identity holds and no out-of-bounds element is ever read. The
// including translation units are compiled with -ffp-contract=off so
// none of this can be fused into FMA.
#pragma once

#include <bit>
#include <cstddef>

#include "geom/distance.hpp"
#include "geom/kernels.hpp"
#include "geom/kernels_scalar_impl.hpp"

namespace kc::simd {

/// True when the Vec type provides the complete masked-tail hook set
/// (see the header comment); detected, not declared, so the AVX2 table
/// keeps its scalar tails untouched. All six hooks are probed: a type
/// providing only some of them must fall back to the scalar tails
/// instead of failing to compile inside the tail bodies.
template <typename V>
concept HasMaskedTail = requires(const double* p, double* q,
                                 const double* const* rows,
                                 typename V::reg& r) {
  { V::tail_mask(std::size_t{1}) };
  { V::maskz_loadu(V::tail_mask(std::size_t{1}), p) };
  { V::mask_storeu(q, V::tail_mask(std::size_t{1}), typename V::reg{}) };
  { V::maskz_load_strided(p, std::size_t{1}, std::size_t{1}) };
  { V::maskz_load_rows(rows, std::size_t{0}, std::size_t{1}) };
  { V::maskz_deinterleave2(p, std::size_t{1}, r, r) };
};

template <typename V, MetricKind M>
struct SimdKernels {
  using reg = typename V::reg;
  static constexpr std::size_t W = V::kWidth;

  /// The scalar pair kernel for this metric (tails, odd lanes).
  static constexpr auto kPair = M == MetricKind::L2   ? scalar::l2sq
                                : M == MetricKind::L1 ? scalar::l1
                                                      : scalar::linf;
  /// Its per-coordinate step (coordinate-major tails).
  static constexpr auto kStep = M == MetricKind::L2   ? scalar::l2sq_step
                                : M == MetricKind::L1 ? scalar::l1_step
                                                      : scalar::linf_step;

  /// One coordinate's contribution, in the scalar fold's exact order.
  static reg accum(reg acc, reg diff) {
    if constexpr (M == MetricKind::L2) {
      return V::add(acc, V::mul(diff, diff));
    } else if constexpr (M == MetricKind::L1) {
      return V::add(acc, V::vabs(diff));
    } else {
      return V::vmax(V::vabs(diff), acc);
    }
  }

  // Blocked nearest-center folds, NC (compiled in) centers per pass:
  // per point, centers fold in index order, bit-identical to NC
  // one-center passes, with the accumulators in registers, so NC = 1 is
  // a plain one-center sweep. Dim 2 (both layouts) and dim 3
  // (contiguous) get their own loops: the paper's data is 2-3-D.

  /// Masked tail of both layouts: rows[j] points at the j-th of the
  /// last r (< W) points, folded in the low r lanes with the main
  /// loops' per-center accumulate / min sequence. Inactive lanes compute
  /// on zeros and are neither loaded nor stored.
  template <std::size_t NC>
  static void tail_multi(const double* const* rows, std::size_t dim,
                         std::size_t r, const double* const* centers,
                         double* best)
    requires HasMaskedTail<V>
  {
    const auto m = V::tail_mask(r);
    reg acc[NC];
    for (std::size_t c = 0; c < NC; ++c) acc[c] = V::zero();
    for (std::size_t d = 0; d < dim; ++d) {
      const reg x = V::maskz_load_rows(rows, d, r);
      for (std::size_t c = 0; c < NC; ++c) {
        acc[c] = accum(acc[c], V::sub(x, V::set1(centers[c][d])));
      }
    }
    reg b = V::maskz_loadu(m, best);
    for (std::size_t c = 0; c < NC; ++c) b = V::vmin(acc[c], b);
    V::mask_storeu(best, m, b);
  }

  template <std::size_t NC>
  static void multi_contig(const double* rows, std::size_t dim, std::size_t n,
                           const double* const* centers, double* best) {
    std::size_t i = 0;
    if (dim == 2) {
      reg c0[NC], c1[NC];
      for (std::size_t c = 0; c < NC; ++c) {
        c0[c] = V::set1(centers[c][0]);
        c1[c] = V::set1(centers[c][1]);
      }
      for (; i + W <= n; i += W) {
        reg x, y;
        V::deinterleave2(rows + 2 * i, x, y);
        reg b = V::loadu(best + i);
        for (std::size_t c = 0; c < NC; ++c) {
          const reg acc =
              accum(accum(V::zero(), V::sub(x, c0[c])), V::sub(y, c1[c]));
          b = V::vmin(acc, b);
        }
        V::storeu(best + i, b);
      }
    } else if (dim == 3) {
      reg c0[NC], c1[NC], c2[NC];
      for (std::size_t c = 0; c < NC; ++c) {
        c0[c] = V::set1(centers[c][0]);
        c1[c] = V::set1(centers[c][1]);
        c2[c] = V::set1(centers[c][2]);
      }
      for (; i + W <= n; i += W) {
        const double* p = rows + 3 * i;
        const reg x = V::load_strided(p + 0, 3);
        const reg y = V::load_strided(p + 1, 3);
        const reg z = V::load_strided(p + 2, 3);
        reg b = V::loadu(best + i);
        for (std::size_t c = 0; c < NC; ++c) {
          reg acc = accum(V::zero(), V::sub(x, c0[c]));
          acc = accum(acc, V::sub(y, c1[c]));
          acc = accum(acc, V::sub(z, c2[c]));
          b = V::vmin(acc, b);
        }
        V::storeu(best + i, b);
      }
    } else {
      for (; i + W <= n; i += W) {
        const double* p = rows + dim * i;
        reg acc[NC];
        for (std::size_t c = 0; c < NC; ++c) acc[c] = V::zero();
        for (std::size_t d = 0; d < dim; ++d) {
          const reg x = V::load_strided(p + d, dim);
          for (std::size_t c = 0; c < NC; ++c) {
            acc[c] = accum(acc[c], V::sub(x, V::set1(centers[c][d])));
          }
        }
        reg b = V::loadu(best + i);
        for (std::size_t c = 0; c < NC; ++c) b = V::vmin(acc[c], b);
        V::storeu(best + i, b);
      }
    }
    if (i < n) {
      if constexpr (HasMaskedTail<V>) {
        const double* tail[W];
        for (std::size_t j = i; j < n; ++j) tail[j - i] = rows + dim * j;
        tail_multi<NC>(tail, dim, n - i, centers, best + i);
      } else {
        scalar::nearest_multi_contig<NC, kPair>(rows + dim * i, dim, n - i,
                                                centers, best + i);
      }
    }
  }

  template <std::size_t NC>
  static void multi_gather(const double* coords, std::size_t dim,
                           const index_t* ids, std::size_t n,
                           const double* const* centers, double* best) {
    std::size_t i = 0;
    const double* rows[W];
    if (dim == 2) {
      reg c0[NC], c1[NC];
      for (std::size_t c = 0; c < NC; ++c) {
        c0[c] = V::set1(centers[c][0]);
        c1[c] = V::set1(centers[c][1]);
      }
      for (; i + W <= n; i += W) {
        for (std::size_t j = 0; j < W; ++j) {
          rows[j] = coords + static_cast<std::size_t>(ids[i + j]) * 2;
        }
        const reg x = V::load_rows(rows, 0);
        const reg y = V::load_rows(rows, 1);
        reg b = V::loadu(best + i);
        for (std::size_t c = 0; c < NC; ++c) {
          const reg acc =
              accum(accum(V::zero(), V::sub(x, c0[c])), V::sub(y, c1[c]));
          b = V::vmin(acc, b);
        }
        V::storeu(best + i, b);
      }
    } else {
      for (; i + W <= n; i += W) {
        for (std::size_t j = 0; j < W; ++j) {
          rows[j] = coords + static_cast<std::size_t>(ids[i + j]) * dim;
        }
        reg acc[NC];
        for (std::size_t c = 0; c < NC; ++c) acc[c] = V::zero();
        for (std::size_t d = 0; d < dim; ++d) {
          const reg x = V::load_rows(rows, d);
          for (std::size_t c = 0; c < NC; ++c) {
            acc[c] = accum(acc[c], V::sub(x, V::set1(centers[c][d])));
          }
        }
        reg b = V::loadu(best + i);
        for (std::size_t c = 0; c < NC; ++c) b = V::vmin(acc[c], b);
        V::storeu(best + i, b);
      }
    }
    if (i < n) {
      if constexpr (HasMaskedTail<V>) {
        const double* tail[W];
        for (std::size_t j = i; j < n; ++j) {
          tail[j - i] = coords + static_cast<std::size_t>(ids[j]) * dim;
        }
        tail_multi<NC>(tail, dim, n - i, centers, best + i);
      } else {
        scalar::nearest_multi_gather<NC, kPair>(coords, dim, ids + i, n - i,
                                                centers, best + i);
      }
    }
  }

  /// The table entries: one switch per call into the compiled count.
  static void nearest_multi_contig(const double* rows, std::size_t dim,
                                   std::size_t n, const double* const* centers,
                                   std::size_t ncenters, double* best) {
    with_center_count(ncenters, [&](auto nc) {
      multi_contig<decltype(nc)::value>(rows, dim, n, centers, best);
    });
  }

  static void nearest_multi_gather(const double* coords, std::size_t dim,
                                   const index_t* ids, std::size_t n,
                                   const double* const* centers,
                                   std::size_t ncenters, double* best) {
    with_center_count(ncenters, [&](auto nc) {
      multi_gather<decltype(nc)::value>(coords, dim, ids, n, centers, best);
    });
  }

  /// Dense m x n tile, vectorized across the b rows: lane j of a
  /// register holds b point j's running accumulator, and per coordinate
  /// the broadcast a value is subtracted in the scalar operand order
  /// (a - b). Each lane therefore performs exactly the scalar pair
  /// fold, and a tile is bit-identical to m*n scalar pair calls. The
  /// ragged column tail runs masked (AVX-512) or through the scalar
  /// pair kernel.
  static void pairwise_tile(const double* arows, const double* brows,
                            std::size_t dim, std::size_t m, std::size_t n,
                            double* out, std::size_t ldo) {
    for (std::size_t i = 0; i < m; ++i) {
      const double* a = arows + i * dim;
      double* row = out + i * ldo;
      std::size_t j = 0;
      if (dim == 2) {
        const reg a0 = V::set1(a[0]);
        const reg a1 = V::set1(a[1]);
        for (; j + W <= n; j += W) {
          reg x, y;
          V::deinterleave2(brows + 2 * j, x, y);
          V::storeu(row + j,
                    accum(accum(V::zero(), V::sub(a0, x)), V::sub(a1, y)));
        }
      } else {
        for (; j + W <= n; j += W) {
          const double* b = brows + dim * j;
          reg acc = V::zero();
          for (std::size_t d = 0; d < dim; ++d) {
            acc = accum(acc, V::sub(V::set1(a[d]), V::load_strided(b + d, dim)));
          }
          V::storeu(row + j, acc);
        }
      }
      if (j < n) {
        if constexpr (HasMaskedTail<V>) {
          const std::size_t r = n - j;
          const auto mask = V::tail_mask(r);
          reg acc;
          if (dim == 2) {
            reg x, y;
            V::maskz_deinterleave2(brows + 2 * j, r, x, y);
            acc = accum(accum(V::zero(), V::sub(V::set1(a[0]), x)),
                        V::sub(V::set1(a[1]), y));
          } else {
            acc = V::zero();
            for (std::size_t d = 0; d < dim; ++d) {
              acc = accum(acc,
                          V::sub(V::set1(a[d]),
                                 V::maskz_load_strided(brows + dim * j + d,
                                                       dim, r)));
            }
          }
          V::mask_storeu(row + j, mask, acc);
        } else {
          for (; j < n; ++j) row[j] = kPair(a, brows + dim * j, dim);
        }
      }
    }
  }

  /// Coordinate-major fold, vectorized across the centers: lane j
  /// accumulates center j's coordinates in the scalar order (point -
  /// center, then the metric's step) and keeps a running minimum; one
  /// horizontal min at the end. The min of non-negative, NaN-free values
  /// is the same whatever order the lanes fold in. Two lane groups per
  /// pass keep two independent accumulate chains in flight. The ragged
  /// tail (callers pad to a multiple of every width, so normally none)
  /// runs the scalar reference.
  static double nearest_soa(const double* point, const double* soa,
                            std::size_t dim, std::size_t n, std::size_t ld,
                            double best) {
    reg b = V::set1(best);
    std::size_t j = 0;
    for (; j + 2 * W <= n; j += 2 * W) {
      reg acc0 = V::zero();
      reg acc1 = V::zero();
      const double* s = soa + j;
      for (std::size_t d = 0; d < dim; ++d, s += ld) {
        const reg x = V::set1(point[d]);
        acc0 = accum(acc0, V::sub(x, V::loadu(s)));
        acc1 = accum(acc1, V::sub(x, V::loadu(s + W)));
      }
      b = V::vmin(acc0, b);
      b = V::vmin(acc1, b);
    }
    for (; j + W <= n; j += W) {
      reg acc = V::zero();
      const double* s = soa + j;
      for (std::size_t d = 0; d < dim; ++d, s += ld) {
        acc = accum(acc, V::sub(V::set1(point[d]), V::loadu(s)));
      }
      b = V::vmin(acc, b);
    }
    double lanes[W];
    V::storeu(lanes, b);
    for (std::size_t l = 0; l < W; ++l) {
      if (lanes[l] < best) best = lanes[l];
    }
    if (j < n) {
      best = scalar::nearest_soa(point, soa + j, dim, n - j, ld, best, kStep);
    }
    return best;
  }
};

/// Vectorized first-of-ties argmax: one max-fold pass (the maximum of a
/// NaN-free set is order-independent), then an equality scan for its
/// first position.
template <typename V>
std::size_t simd_argmax(const double* values, std::size_t n) {
  constexpr std::size_t W = V::kWidth;
  if (n < 2 * W) return scalar::argmax(values, n);

  typename V::reg m = V::loadu(values);
  std::size_t i = W;
  for (; i + W <= n; i += W) m = V::vmax(V::loadu(values + i), m);
  double lanes[W];
  V::storeu(lanes, m);
  double mx = lanes[0];
  for (std::size_t j = 1; j < W; ++j) {
    if (lanes[j] > mx) mx = lanes[j];
  }
  for (; i < n; ++i) {
    if (values[i] > mx) mx = values[i];
  }

  const typename V::reg mv = V::set1(mx);
  for (i = 0; i + W <= n; i += W) {
    const unsigned mask = V::cmpeq_mask(V::loadu(values + i), mv);
    if (mask != 0) return i + static_cast<std::size_t>(std::countr_zero(mask));
  }
  for (; i < n; ++i) {
    if (values[i] == mx) return i;
  }
  return scalar::argmax(values, n);  // unreachable for NaN-free input
}

/// Builds one ISA's table from the templated bodies. Single pairs do
/// not vectorize across points, so every table shares the scalar pair
/// kernels.
template <typename V>
constexpr KernelTable make_kernel_table(const char* name) {
  using L2 = SimdKernels<V, MetricKind::L2>;
  using L1 = SimdKernels<V, MetricKind::L1>;
  using Li = SimdKernels<V, MetricKind::Linf>;
  return KernelTable{
      name,
      {scalar::l2sq, scalar::l1, scalar::linf},
      {&L2::nearest_multi_gather, &L1::nearest_multi_gather,
       &Li::nearest_multi_gather},
      {&L2::nearest_multi_contig, &L1::nearest_multi_contig,
       &Li::nearest_multi_contig},
      &simd_argmax<V>,
      {&L2::pairwise_tile, &L1::pairwise_tile, &Li::pairwise_tile},
      {&L2::nearest_soa, &L1::nearest_soa, &Li::nearest_soa},
  };
}

}  // namespace kc::simd
