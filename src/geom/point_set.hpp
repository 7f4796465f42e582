// Dense point-set storage.
//
// The paper's experiments compute Euclidean distances "as required from
// the locations of the points" (§7.2) rather than materializing the
// complete distance matrix, which would be Theta(n^2). PointSet stores
// points row-major (point-major) so a single pair evaluation touches
// `dim` contiguous doubles, and the storage is 64-byte aligned so the
// SIMD kernels' contiguous-range fast path (geom/kernels.hpp) streams
// rows from cache-line boundaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <string>
#include <vector>

namespace kc {

/// Index of a point within a PointSet. 32 bits covers the paper's
/// largest instance (KDD CUP 1999: 4.9e5 points; full set 4e6) with
/// room to spare, and halves the memory traffic of index arrays.
using index_t = std::uint32_t;

/// Minimal over-aligned allocator: coordinate storage starts on a cache
/// line so the SIMD kernels' contiguous row streams begin aligned.
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(T) &&
                (Alignment & (Alignment - 1)) == 0);
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{Alignment});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// 64-byte-aligned coordinate storage (one x86 cache line / one AVX-512
/// register).
using CoordStorage = std::vector<double, AlignedAllocator<double, 64>>;

class PointSet {
 public:
  PointSet() = default;

  /// Creates an uninitialized set of `n` points in `dim` dimensions.
  PointSet(std::size_t n, std::size_t dim);

  /// Creates a set from explicit row-major coordinates (one copy, into
  /// the aligned storage). `coords.size()` must be a multiple of `dim`.
  PointSet(std::size_t dim, std::span<const double> coords);

  /// Takes over a row-major coordinate buffer without copying it, spare
  /// capacity included. The same checks as the span constructor.
  PointSet(std::size_t dim, CoordStorage&& coords);

  /// Convenience constructor for tests: each inner list is one point.
  PointSet(std::initializer_list<std::initializer_list<double>> points);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Coordinates of point i (span of length dim()).
  [[nodiscard]] std::span<const double> operator[](index_t i) const noexcept {
    return {coords_.data() + static_cast<std::size_t>(i) * dim_, dim_};
  }
  [[nodiscard]] std::span<double> mutable_point(index_t i) noexcept {
    return {coords_.data() + static_cast<std::size_t>(i) * dim_, dim_};
  }

  /// Raw pointer to point i's first coordinate (hot-loop accessor).
  [[nodiscard]] const double* data(index_t i) const noexcept {
    return coords_.data() + static_cast<std::size_t>(i) * dim_;
  }

  [[nodiscard]] std::span<const double> raw() const noexcept { return coords_; }

  /// Appends one point; `p.size()` must equal dim() (or set dim if empty).
  void push_back(std::span<const double> p);

  /// Gathers a subset into a new PointSet (used by tests and examples;
  /// the algorithms themselves work on index spans without copying).
  [[nodiscard]] PointSet subset(std::span<const index_t> ids) const;

  /// All indices [0, n): the identity subset the top-level algorithms run on.
  [[nodiscard]] std::vector<index_t> all_indices() const;

  /// Approximate memory footprint in bytes.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return coords_.size() * sizeof(double);
  }

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  CoordStorage coords_;
};

}  // namespace kc
