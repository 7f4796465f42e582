// Fixture: deliberate violations of the line-grade lint rules. Each
// `expect:` marker stands for exactly one finding that kc_lint
// --self-test asserts for this file; no other finding may appear. The
// self-test lints it as if it lived in src/harness/: a report-emitting
// directory outside src/geom/.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <unordered_map>  // expect: unordered-iter

#include "compat/thread_safety.hpp"
#include "geom/kernels.hpp"
#include "geom/spatial_index.hpp"

namespace fixture {

// expect: entropy
inline unsigned ambient_seed() { return std::random_device{}(); }

// expect: wallclock
inline auto wall_now() { return std::chrono::system_clock::now(); }

// Iterating a hash container in a report TU leaks hash order into the
// report bytes.
// expect: unordered-iter
inline std::unordered_map<int, int> scratch_index;

// Weak orders without a rationale, in both spellings. Each marker sits
// below its load: a comment in the three lines above would count as the
// rationale.
inline int bare_relaxed(const std::atomic<int>& v) {
  int pad = 0;
  pad += 1;
  (void)pad;
  return v.load(std::memory_order_relaxed);
}
// expect: memory-order

inline int bare_acquire(const std::atomic<int>& v) {
  int pad = 0;
  pad += 1;
  (void)pad;
  return v.load(std::memory_order::acquire);
}
// expect: memory-order

// An analysis opt-out with no written reason; its marker sits below it
// for the same reason.
struct OptedOut {
  int value = 0;
  int pad = 0;
  void reset() KC_NO_THREAD_SAFETY_ANALYSIS { value = 0; }
};
// expect: tsa-optout

// Kernel tables reached from outside src/geom/: both accessors and a
// KernelTable use. A scan made this way skips DistanceOracle's budget,
// cancellation and pruning gates.
inline double sneak_distance(const double* a, const double* b,
                             std::size_t dim) {
  // expect: raw-kernel
  const auto& table = kc::simd::active_kernels();
  return table.pair[0](a, b, dim);
}

// expect: raw-kernel
inline const kc::simd::KernelTable* sneak_table() {
  // expect: raw-kernel
  return kc::simd::kernels_for(kc::simd::IsaLevel::Scalar);
}

// Grid internals reached from outside src/geom/: the bound index's
// cell runs, and the snapping helpers. Code here cannot know which scans
// the grid serves or how it orders them.
inline std::size_t sneak_first_cell(const kc::DistanceOracle& oracle) {
  // expect: grid-internals
  return oracle.spatial_index()->cell_size(0);
}

inline void sneak_snap(std::span<const double> p, std::span<std::int64_t> key) {
  // expect: grid-internals
  kc::grid_cell_key(p, 0.5, key);
}

// A waiver with no reason is itself a finding, and suppresses nothing.
// expect: waiver
// expect: entropy
inline auto bare_waiver() {
  return std::rand();  // kc-lint: allow(entropy)
}

// An expiring waiver past its deadline: the wallclock finding stays
// suppressed (one finding per line of debt, not two) but the expiry
// itself fires. PR3 is in this repo's past by construction.
// expect: waiver-expired
inline auto stale_waiver() {
  return std::chrono::system_clock::now();  // kc-lint: allow(wallclock, until=PR3) bring-up shim
}

// An unknown keyword term is a malformed waiver, which suppresses
// nothing either.
// expect: waiver
// expect: entropy
inline auto typoed_waiver() {
  return std::rand();  // kc-lint: allow(entropy, till=PR99) reads seed file
}

}  // namespace fixture
