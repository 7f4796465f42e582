// Scalar kernel table: the reference implementation every vectorized
// table must match bit for bit, and the fallback on hosts (or builds)
// without AVX2. Compiled with the project's portable baseline flags.
#include "geom/kernels.hpp"
#include "geom/kernels_scalar_impl.hpp"

namespace kc::simd {

namespace {

template <double (*Pair)(const double*, const double*, std::size_t)>
void nearest_multi_gather_fn(const double* coords, std::size_t dim,
                             const index_t* ids, std::size_t n,
                             const double* const* centers, std::size_t ncenters,
                             double* best) {
  with_center_count(ncenters, [&](auto nc) {
    scalar::nearest_multi_gather<decltype(nc)::value, Pair>(coords, dim, ids,
                                                            n, centers, best);
  });
}

template <double (*Pair)(const double*, const double*, std::size_t)>
void nearest_multi_contig_fn(const double* rows, std::size_t dim,
                             std::size_t n, const double* const* centers,
                             std::size_t ncenters, double* best) {
  with_center_count(ncenters, [&](auto nc) {
    scalar::nearest_multi_contig<decltype(nc)::value, Pair>(rows, dim, n,
                                                            centers, best);
  });
}

template <double (*Pair)(const double*, const double*, std::size_t)>
void pairwise_tile_fn(const double* arows, const double* brows,
                      std::size_t dim, std::size_t m, std::size_t n,
                      double* out, std::size_t ldo) {
  scalar::pairwise_tile(arows, brows, dim, m, n, out, ldo, Pair);
}

template <double (*Step)(double, double)>
double nearest_soa_fn(const double* point, const double* soa, std::size_t dim,
                      std::size_t n, std::size_t ld, double best) {
  return scalar::nearest_soa(point, soa, dim, n, ld, best, Step);
}

constexpr KernelTable kScalarTable = {
    "scalar",
    {scalar::l2sq, scalar::l1, scalar::linf},
    {nearest_multi_gather_fn<scalar::l2sq>, nearest_multi_gather_fn<scalar::l1>,
     nearest_multi_gather_fn<scalar::linf>},
    {nearest_multi_contig_fn<scalar::l2sq>, nearest_multi_contig_fn<scalar::l1>,
     nearest_multi_contig_fn<scalar::linf>},
    scalar::argmax,
    {pairwise_tile_fn<scalar::l2sq>, pairwise_tile_fn<scalar::l1>,
     pairwise_tile_fn<scalar::linf>},
    {nearest_soa_fn<scalar::l2sq_step>, nearest_soa_fn<scalar::l1_step>,
     nearest_soa_fn<scalar::linf_step>},
};

}  // namespace

// Internal hook for kernels.cpp's dispatch (declared there, not in the
// public header, so the table stays an implementation detail).
const KernelTable& scalar_kernel_table() noexcept { return kScalarTable; }

}  // namespace kc::simd
