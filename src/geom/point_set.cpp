#include "geom/point_set.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace kc {

PointSet::PointSet(std::size_t n, std::size_t dim)
    : n_(n), dim_(dim), coords_(n * dim, 0.0) {
  if (dim == 0) throw std::invalid_argument("PointSet: dim must be positive");
}

PointSet::PointSet(std::size_t dim, std::span<const double> coords)
    : PointSet(dim, CoordStorage(coords.begin(), coords.end())) {}

PointSet::PointSet(std::size_t dim, CoordStorage&& coords)
    : dim_(dim), coords_(std::move(coords)) {
  if (dim == 0) throw std::invalid_argument("PointSet: dim must be positive");
  if (coords_.size() % dim != 0) {
    throw std::invalid_argument(
        "PointSet: coordinate count is not a multiple of dim");
  }
  n_ = coords_.size() / dim;
}

PointSet::PointSet(std::initializer_list<std::initializer_list<double>> points) {
  for (const auto& p : points) {
    push_back(std::span<const double>(p.begin(), p.size()));
  }
}

void PointSet::push_back(std::span<const double> p) {
  if (n_ == 0 && dim_ == 0) {
    if (p.empty()) {
      throw std::invalid_argument("PointSet: cannot infer dim from empty point");
    }
    dim_ = p.size();
  }
  if (p.size() != dim_) {
    throw std::invalid_argument("PointSet: point dimension mismatch");
  }
  coords_.insert(coords_.end(), p.begin(), p.end());
  ++n_;
}

PointSet PointSet::subset(std::span<const index_t> ids) const {
  PointSet out(ids.size(), dim_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const index_t id = ids[i];
    if (id >= n_) throw std::out_of_range("PointSet::subset: index out of range");
    auto dst = out.mutable_point(static_cast<index_t>(i));
    auto src = (*this)[id];
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

std::vector<index_t> PointSet::all_indices() const {
  std::vector<index_t> ids(n_);
  std::iota(ids.begin(), ids.end(), index_t{0});
  return ids;
}

}  // namespace kc
