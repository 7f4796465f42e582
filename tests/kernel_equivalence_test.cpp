// Kernel-equivalence suite: every vectorized kernel table must produce
// **bit-identical** results to the scalar reference — not merely close.
// The execution-backend determinism contract (backend_determinism_test)
// only stays meaningful if the per-core kernels underneath it cannot
// introduce drift, so equality here is checked on the raw bit patterns.
//
// Coverage: all three metrics, dims 1-16, ragged lengths around both
// vector widths (4 and 8 lanes), gather vs contiguous id spans, every
// compiled center count of the nearest-center kernels against a
// per-pair reference fold, tiled batches vs repeated one-center passes,
// the coordinate-major sample-box fold, and the vectorized argmax
// (including ties).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "geom/distance.hpp"
#include "geom/kernels.hpp"
#include "rng/rng.hpp"

namespace kc {
namespace {

using simd::IsaLevel;
using simd::KernelTable;

std::vector<IsaLevel> simd_levels_available() {
  std::vector<IsaLevel> out;
  for (const IsaLevel level :
       {IsaLevel::Avx2, IsaLevel::Avx512, IsaLevel::Neon}) {
    if (simd::isa_compiled(level) && simd::isa_supported(level)) {
      out.push_back(level);
    }
  }
  return out;
}

/// The scalar table first, then every SIMD table this host can run.
std::vector<const KernelTable*> tables_to_test() {
  std::vector<const KernelTable*> out{simd::kernels_for(IsaLevel::Scalar)};
  for (const IsaLevel level : simd_levels_available()) {
    out.push_back(simd::kernels_for(level));
  }
  return out;
}

/// Bitwise comparison: EXPECT_EQ on doubles would conflate +0/-0 and
/// miss payload differences; the contract is stronger than value
/// equality.
void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "element " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::vector<double> random_coords(std::size_t count, Rng& rng) {
  std::vector<double> coords(count);
  for (auto& c : coords) c = rng.uniform(-50.0, 50.0);
  return coords;
}

/// best[] prefilled with a mix of kInfDist and small values, so both
/// the "improves" and the "keeps" sides of the min-fold are exercised.
std::vector<double> random_best(std::size_t n, Rng& rng) {
  std::vector<double> best(n);
  for (auto& b : best) {
    b = rng.bernoulli(0.3) ? rng.uniform(0.0, 5.0) : kInfDist;
  }
  return best;
}

/// Reference for the nearest-center kernels: one pass per center, in
/// order, folding the scalar pair kernel into best with the strict <.
/// It calls the pair kernel only, never a nearest-center kernel.
std::vector<double> fold_per_pair(std::size_t m,
                                  const std::vector<double>& coords,
                                  std::size_t dim,
                                  const std::vector<index_t>& ids,
                                  const std::vector<const double*>& centers,
                                  std::vector<double> best) {
  const auto pair = simd::kernels_for(IsaLevel::Scalar)->pair[m];
  for (const double* center : centers) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const double d = pair(
          coords.data() + static_cast<std::size_t>(ids[i]) * dim, center, dim);
      if (d < best[i]) best[i] = d;
    }
  }
  return best;
}

// Lengths straddling both vector widths (4 and 8) plus larger ragged
// sizes; 1 exercises the pure-tail path.
constexpr std::size_t kLengths[] = {1, 3, 4, 5, 7, 8, 9, 13, 19, 257, 1000};

struct IdLayout {
  const char* name;
  bool contiguous;
  std::vector<index_t> (*make)(std::size_t n, std::size_t n_points, Rng& rng);
};

const IdLayout kLayouts[] = {
    {"iota", true,
     [](std::size_t n, std::size_t, Rng&) {
       std::vector<index_t> ids(n);
       for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<index_t>(i);
       return ids;
     }},
    {"iota-offset", true,
     [](std::size_t n, std::size_t n_points, Rng&) {
       const std::size_t off = n_points - n;  // points allocated with slack
       std::vector<index_t> ids(n);
       for (std::size_t i = 0; i < n; ++i) {
         ids[i] = static_cast<index_t>(off + i);
       }
       return ids;
     }},
    {"gather", false,
     [](std::size_t n, std::size_t n_points, Rng& rng) {
       // Random ids with duplicates: the gather path must not assume
       // distinct rows.
       std::vector<index_t> ids(n);
       for (auto& id : ids) {
         id = static_cast<index_t>(rng.uniform_int(n_points));
       }
       return ids;
     }},
};

class KernelEquivalence : public ::testing::TestWithParam<MetricKind> {};

// Both nearest-center entries of every table, at every center count
// 1..kCenterBlock (each count runs its own compiled body), on every
// dim, length and id layout.
TEST_P(KernelEquivalence, UpdateNearestBitIdenticalAcrossIsas) {
  const auto m = static_cast<std::size_t>(GetParam());

  Rng rng(42);
  for (std::size_t dim = 1; dim <= 16; ++dim) {
    const std::size_t n_points = 1024;
    const auto coords = random_coords(n_points * dim, rng);
    std::vector<std::vector<double>> centers(simd::kCenterBlock);
    for (auto& center : centers) center = random_coords(dim, rng);
    for (const std::size_t n : kLengths) {
      for (const auto& layout : kLayouts) {
        const auto ids = layout.make(n, n_points, rng);
        const auto init = random_best(n, rng);
        for (std::size_t nc = 1; nc <= simd::kCenterBlock; ++nc) {
          std::vector<const double*> cptr;
          for (std::size_t c = 0; c < nc; ++c) {
            cptr.push_back(centers[c].data());
          }
          const auto want = fold_per_pair(m, coords, dim, ids, cptr, init);
          for (const KernelTable* table : tables_to_test()) {
            SCOPED_TRACE(std::string(table->name) + " dim=" +
                         std::to_string(dim) + " n=" + std::to_string(n) +
                         " nc=" + std::to_string(nc) + " " + layout.name);
            std::vector<double> got = init;
            table->nearest_multi_gather[m](coords.data(), dim, ids.data(), n,
                                           cptr.data(), nc, got.data());
            expect_bit_identical(got, want);

            if (layout.contiguous) {
              const double* rows =
                  coords.data() + static_cast<std::size_t>(ids[0]) * dim;
              got = init;
              table->nearest_multi_contig[m](rows, dim, n, cptr.data(), nc,
                                             got.data());
              expect_bit_identical(got, want);
            }
          }
        }
      }
    }
  }
}

// Masked-tail contract (AVX-512 replaces the scalar tail loop with
// lane-masked kernels): every ragged remainder 1..W-1 must stay
// bit-identical to the reference when the scan ends exactly at the end
// of its allocations, and the masked store must leave best[] beyond n
// untouched. The buffers here have zero slack after the last element,
// so a tail that over-reads or over-writes by even one double corrupts
// the guard values or faults under a sanitizer. Every center count
// 1..kCenterBlock runs, on both layouts.
TEST_P(KernelEquivalence, RaggedTailsMultiExactBufferEndAndNoOverstore) {
  const auto m = static_cast<std::size_t>(GetParam());
  constexpr double kGuard = -1234.5;

  Rng rng(181);
  for (std::size_t dim = 1; dim <= 9; ++dim) {
    for (std::size_t nc = 1; nc <= simd::kCenterBlock; ++nc) {
      std::vector<std::vector<double>> centers(nc);
      std::vector<const double*> cptr(nc);
      for (std::size_t c = 0; c < nc; ++c) {
        centers[c] = random_coords(dim, rng);
        cptr[c] = centers[c].data();
      }
      for (std::size_t n = 1; n <= 17; ++n) {
        // Coordinates sized exactly n rows — no slack for an over-read.
        const auto coords = random_coords(n * dim, rng);
        std::vector<index_t> ids(n);
        for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<index_t>(i);
        const auto init = random_best(n, rng);

        const auto want = fold_per_pair(m, coords, dim, ids, cptr, init);
        for (const KernelTable* table : tables_to_test()) {
          SCOPED_TRACE(std::string(table->name) + " dim=" +
                       std::to_string(dim) + " nc=" + std::to_string(nc) +
                       " n=" + std::to_string(n));
          std::vector<double> got(init);
          got.resize(n + 8, kGuard);
          table->nearest_multi_contig[m](coords.data(), dim, n, cptr.data(),
                                         nc, got.data());
          for (std::size_t i = n; i < got.size(); ++i) {
            EXPECT_EQ(got[i], kGuard) << "overstore at " << i;
          }
          got.resize(n);
          expect_bit_identical(got, want);

          got = init;
          got.resize(n + 8, kGuard);
          table->nearest_multi_gather[m](coords.data(), dim, ids.data(), n,
                                         cptr.data(), nc, got.data());
          for (std::size_t i = n; i < got.size(); ++i) {
            EXPECT_EQ(got[i], kGuard) << "overstore at " << i;
          }
          got.resize(n);
          expect_bit_identical(got, want);
        }
      }
    }
  }
}

TEST_P(KernelEquivalence, BlockedMultiMatchesRepeatedSingleCenterPasses) {
  const auto m = static_cast<std::size_t>(GetParam());

  Rng rng(77);
  for (const std::size_t dim : {1u, 2u, 3u, 5u, 11u}) {
    const std::size_t n_points = 512;
    const auto coords = random_coords(n_points * dim, rng);
    // 1..kCenterBlock+1 centers: exercises partial blocks and tiling.
    for (std::size_t nc = 1; nc <= simd::kCenterBlock + 1; ++nc) {
      std::vector<std::vector<double>> centers(nc);
      std::vector<const double*> cptr(nc);
      for (std::size_t c = 0; c < nc; ++c) {
        centers[c] = random_coords(dim, rng);
        cptr[c] = centers[c].data();
      }
      for (const std::size_t n : {1u, 7u, 8u, 9u, 33u, 400u}) {
        const auto ids = kLayouts[2].make(n, n_points, rng);
        const auto init = random_best(n, rng);

        const auto want = fold_per_pair(m, coords, dim, ids, cptr, init);
        const auto iota = kLayouts[0].make(n, n_points, rng);
        const auto want_c = fold_per_pair(m, coords, dim, iota, cptr, init);
        for (const KernelTable* table : tables_to_test()) {
          SCOPED_TRACE(std::string(table->name) + " dim=" +
                       std::to_string(dim) + " nc=" + std::to_string(nc) +
                       " n=" + std::to_string(n));
          // Tile like DistanceOracle::update_nearest_multi does.
          std::vector<double> got = init;
          for (std::size_t cb = 0; cb < nc; cb += simd::kCenterBlock) {
            const std::size_t block = std::min(simd::kCenterBlock, nc - cb);
            table->nearest_multi_gather[m](coords.data(), dim, ids.data(), n,
                                           cptr.data() + cb, block,
                                           got.data());
          }
          expect_bit_identical(got, want);

          // Contiguous blocked variant over an iota span.
          got = init;
          for (std::size_t cb = 0; cb < nc; cb += simd::kCenterBlock) {
            const std::size_t block = std::min(simd::kCenterBlock, nc - cb);
            table->nearest_multi_contig[m](coords.data(), dim, n,
                                           cptr.data() + cb, block,
                                           got.data());
          }
          expect_bit_identical(got, want_c);
        }
      }
    }
  }
}

// Tiled pairwise kernel: the raw m x n tile must match the scalar
// reference bit for bit on every ISA, for ragged shapes on both sides,
// and a padded output stride (ldo > n) must leave the padding
// untouched — the engine reuses one tile buffer, so a stray lane store
// would smear stale distances into later tiles.
TEST_P(KernelEquivalence, TiledPairwiseBitIdenticalAcrossIsas) {
  const auto levels = simd_levels_available();
  if (levels.empty()) GTEST_SKIP() << "no SIMD kernels on this host";
  const KernelTable* scalar = simd::kernels_for(IsaLevel::Scalar);
  const auto m = static_cast<std::size_t>(GetParam());
  constexpr double kGuard = -1234.5;

  Rng rng(133);
  for (std::size_t dim = 1; dim <= 16; ++dim) {
    for (const std::size_t rows : {1u, 2u, 3u, 7u, 8u}) {
      for (const std::size_t cols : {1u, 3u, 4u, 5u, 8u, 9u, 13u, 31u}) {
        const auto arows = random_coords(rows * dim, rng);
        const auto brows = random_coords(cols * dim, rng);
        std::vector<double> want(rows * cols);
        scalar->pairwise_tile[m](arows.data(), brows.data(), dim, rows, cols,
                                 want.data(), cols);
        for (const IsaLevel level : levels) {
          const KernelTable* table = simd::kernels_for(level);
          SCOPED_TRACE(std::string(table->name) + " dim=" +
                       std::to_string(dim) + " m=" + std::to_string(rows) +
                       " n=" + std::to_string(cols));
          // Tight stride, with guards after the last element.
          std::vector<double> got(rows * cols + 8, kGuard);
          table->pairwise_tile[m](arows.data(), brows.data(), dim, rows, cols,
                                  got.data(), cols);
          for (std::size_t i = rows * cols; i < got.size(); ++i) {
            EXPECT_EQ(got[i], kGuard) << "overstore at " << i;
          }
          got.resize(rows * cols);
          expect_bit_identical(got, want);

          // Padded stride: row r lives at r * (cols + 3); the 3-slot
          // gaps must keep their guard values.
          const std::size_t ldo = cols + 3;
          std::vector<double> padded(rows * ldo, kGuard);
          table->pairwise_tile[m](arows.data(), brows.data(), dim, rows, cols,
                                  padded.data(), ldo);
          std::vector<double> unpadded;
          unpadded.reserve(rows * cols);
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t c = 0; c < cols; ++c) {
              unpadded.push_back(padded[r * ldo + c]);
            }
            for (std::size_t c = cols; c < ldo; ++c) {
              EXPECT_EQ(padded[r * ldo + c], kGuard)
                  << "padding overwrite at row " << r << " col " << c;
            }
          }
          expect_bit_identical(unpadded, want);
        }
      }
    }
  }
}

// Oracle-level tile streams: pairwise_tiles / pairwise_upper_tiles on
// every ISA table must reassemble into exactly the per-pair scalar
// comparable() values, over both contiguous and gathered id spans —
// this is the contract that lets HS, brute force and the evaluation
// scans stream tiles without changing a single output byte.
TEST_P(KernelEquivalence, TiledOracleStreamsMatchPerPairScalar) {
  const auto kind = GetParam();
  Rng rng(201);
  constexpr std::size_t kPoints = 300;  // >= the largest id span below
  constexpr std::size_t kDim = 5;
  PointSet ps(kPoints, kDim);
  for (index_t i = 0; i < kPoints; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(-50.0, 50.0);
  }

  const auto tables = tables_to_test();

  DistanceOracle reference(ps, kind);
  reference.force_kernels(simd::kernels_for(IsaLevel::Scalar));

  for (const auto& layout : kLayouts) {
    const auto a_ids = layout.make(17, kPoints, rng);
    const auto b_ids = layout.make(260, kPoints, rng);  // > one tile column
    // Per-pair scalar reference for the rectangle.
    std::vector<double> want;
    want.reserve(a_ids.size() * b_ids.size());
    for (const index_t a : a_ids) {
      for (const index_t b : b_ids) {
        want.push_back(reference.comparable(a, b));
      }
    }
    for (const KernelTable* table : tables) {
      SCOPED_TRACE(std::string(table->name) + " layout=" + layout.name);
      DistanceOracle oracle(ps, kind);
      oracle.force_kernels(table);
      std::vector<double> got(a_ids.size() * b_ids.size(), 0.0);
      oracle.pairwise_tiles(
          a_ids, b_ids,
          [&](std::size_t i0, std::size_t j0, std::size_t tm, std::size_t tn,
              const double* tile, std::size_t ldt) {
            for (std::size_t r = 0; r < tm; ++r) {
              for (std::size_t c = 0; c < tn; ++c) {
                got[(i0 + r) * b_ids.size() + (j0 + c)] = tile[r * ldt + c];
              }
            }
          });
      expect_bit_identical(got, want);

      // Upper-triangle stream vs the scalar dense matrix adapter.
      const auto ids = layout.make(61, kPoints, rng);
      const std::vector<double> dense = reference.pairwise_comparable(ids);
      std::vector<double> upper(ids.size() * ids.size(), 0.0);
      oracle.pairwise_upper_tiles(
          ids, [&](std::size_t i0, std::size_t j0, std::size_t tm,
                   std::size_t tn, const double* tile, std::size_t ldt) {
            for (std::size_t r = 0; r < tm; ++r) {
              for (std::size_t c = 0; c < tn; ++c) {
                const double v = tile[r * ldt + c];
                upper[(i0 + r) * ids.size() + (j0 + c)] = v;
                upper[(j0 + c) * ids.size() + (i0 + r)] = v;
              }
            }
          });
      expect_bit_identical(upper, dense);
    }
  }
}

// The coordinate-major fold behind the sample-box scans: every table
// returns the scalar reference's bits at every lane count, reads no
// lane past n, and +inf padding lanes (how SampleBoxes pads a group to
// a multiple of the widest vector) never change the result.
TEST_P(KernelEquivalence, SoaFoldMatchesScalarAndPaddingIsInert) {
  const KernelTable* scalar = simd::kernels_for(IsaLevel::Scalar);
  const auto tables = tables_to_test();
  const auto m = static_cast<std::size_t>(GetParam());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr double kGuard = -1.0e9;  // would win the min if ever read

  Rng rng(161);
  for (std::size_t dim = 1; dim <= 16; ++dim) {
    for (std::size_t n = 1; n <= 17; ++n) {
      const std::size_t ld = (n + 7) / 8 * 8;
      std::vector<double> padded(dim * ld, kInfDist);
      for (std::size_t d = 0; d < dim; ++d) {
        for (std::size_t j = 0; j < n; ++j) {
          padded[d * ld + j] = rng.uniform(-50.0, 50.0);
        }
      }
      std::vector<double> guarded = padded;
      for (std::size_t d = 0; d < dim; ++d) {
        for (std::size_t j = n; j < ld; ++j) guarded[d * ld + j] = kGuard;
      }
      const auto point = random_coords(dim, rng);

      // The pair kernel over each center's gathered row is the ground
      // truth, dim-2/3 shortcuts included.
      double exact = kInfDist;
      std::vector<double> row(dim);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t d = 0; d < dim; ++d) row[d] = padded[d * ld + j];
        const double v = scalar->pair[m](point.data(), row.data(), dim);
        if (v < exact) exact = v;
      }
      for (const double start : {kInfDist, exact, 0.5 * exact, 2.0 * exact}) {
        const double want = start < exact ? start : exact;
        for (const KernelTable* table : tables) {
          SCOPED_TRACE(std::string(table->name) + " dim=" +
                       std::to_string(dim) + " n=" + std::to_string(n));
          const auto fold = table->nearest_soa[m];
          EXPECT_EQ(bits(fold(point.data(), padded.data(), dim, n, ld, start)),
                    bits(want));
          EXPECT_EQ(bits(fold(point.data(), guarded.data(), dim, n, ld, start)),
                    bits(want))
              << "read a lane past n";
          EXPECT_EQ(bits(fold(point.data(), padded.data(), dim, ld, ld, start)),
                    bits(want))
              << "a +inf padding lane changed the result";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, KernelEquivalence,
                         ::testing::Values(MetricKind::L2, MetricKind::L1,
                                           MetricKind::Linf),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

TEST(KernelEquivalenceArgmax, MatchesScalarIncludingTies) {
  const auto levels = simd_levels_available();
  if (levels.empty()) GTEST_SKIP() << "no SIMD kernels on this host";
  const KernelTable* scalar = simd::kernels_for(IsaLevel::Scalar);

  Rng rng(99);
  std::vector<std::vector<double>> cases;
  cases.push_back({3.0});
  cases.push_back({1.0, 5.0, 5.0, 2.0});              // tie: first wins
  cases.push_back(std::vector<double>(64, 7.25));     // all equal
  cases.push_back({kInfDist, 1.0, kInfDist});         // infinities
  for (const std::size_t n : {5u, 8u, 9u, 16u, 17u, 100u, 1000u}) {
    std::vector<double> v(n);
    for (auto& x : v) x = rng.uniform(0.0, 10.0);
    // Plant a duplicated maximum somewhere in the middle and end.
    const double mx = 11.0;
    v[n / 3] = mx;
    v[n - 1] = mx;
    cases.push_back(std::move(v));
  }

  for (const auto& values : cases) {
    const std::size_t want = scalar->argmax(values.data(), values.size());
    for (const IsaLevel level : levels) {
      const KernelTable* table = simd::kernels_for(level);
      SCOPED_TRACE(std::string(table->name) + " n=" +
                   std::to_string(values.size()));
      EXPECT_EQ(table->argmax(values.data(), values.size()), want);
    }
  }
}

TEST(KernelEquivalenceOracle, ForcedScalarOracleMatchesActiveBitForBit) {
  // Oracle-level A/B: the same scans through force_kernels(scalar) and
  // through the process-default table must agree bitwise. (When the
  // process default *is* scalar — KC_FORCE_SCALAR or a scalar-only
  // host — this degenerates to a self-check, which is fine.)
  Rng rng(7);
  PointSet ps(777, 3);
  for (index_t i = 0; i < 777; ++i) {
    for (auto& c : ps.mutable_point(i)) c = rng.uniform(0.0, 100.0);
  }
  const auto ids = ps.all_indices();
  const std::vector<index_t> centers{5, 99, 311, 640, 12};

  for (const auto kind : {MetricKind::L2, MetricKind::L1, MetricKind::Linf}) {
    DistanceOracle active(ps, kind);
    DistanceOracle forced(ps, kind);
    forced.force_kernels(simd::kernels_for(IsaLevel::Scalar));

    std::vector<double> a(ids.size(), kInfDist);
    std::vector<double> b(ids.size(), kInfDist);
    active.update_nearest(ids, 3, a);
    forced.update_nearest(ids, 3, b);
    active.update_nearest_multi(ids, centers, a);
    forced.update_nearest_multi(ids, centers, b);
    expect_bit_identical(a, b);

    EXPECT_EQ(active.pairwise_comparable(centers),
              forced.pairwise_comparable(centers));
  }
}

TEST(KernelDispatch, ActiveLevelIsCompiledAndSupported) {
  const IsaLevel level = simd::active_level();
  EXPECT_TRUE(simd::isa_compiled(level));
  EXPECT_TRUE(simd::isa_supported(level));
  EXPECT_EQ(simd::active_kernels().name, to_string(level));
  if (simd::force_scalar_requested()) {
    EXPECT_EQ(level, IsaLevel::Scalar);
  }
}

TEST(KernelDispatch, ContiguousRunDetection) {
  const std::vector<index_t> iota{4, 5, 6, 7};
  const std::vector<index_t> hole{4, 5, 7, 8};
  const std::vector<index_t> rev{7, 6, 5, 4};
  EXPECT_TRUE(simd::is_contiguous_run(iota.data(), iota.size()));
  EXPECT_TRUE(simd::is_contiguous_run(iota.data(), 1));
  EXPECT_TRUE(simd::is_contiguous_run(nullptr, 0));
  EXPECT_FALSE(simd::is_contiguous_run(hole.data(), hole.size()));
  EXPECT_FALSE(simd::is_contiguous_run(rev.data(), rev.size()));
}

}  // namespace
}  // namespace kc
