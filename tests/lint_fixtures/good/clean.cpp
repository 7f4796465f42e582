// Fixture: a TU that exercises every lint rule's *allowed* form.
// Linted as if it lived in a report-emitting directory (the strictest
// placement); kc_lint --self-test must report zero findings here.
#include <atomic>
#include <chrono>
#include <map>
#include <vector>

#include "compat/thread_safety.hpp"
#include "geom/distance.hpp"
#include "geom/spatial_index.hpp"

namespace fixture {

// steady_clock is the sanctioned time source.
inline double elapsed(std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Ordered container in a report TU: fine, iteration order is defined
// (a std::unordered_map named in a comment is no use of one).
inline int sum(const std::map<int, int>& m) {
  int total = 0;
  for (const auto& [k, v] : m) total += v;
  return total;
}

// A weak-order access with its rationale comment in range.
inline int load_counter(const std::atomic<int>& counter) {
  // Relaxed: monitoring counter; no data is published through it.
  return counter.load(std::memory_order_relaxed);
}

// A maybe-nonempty hint in its sanctioned form: the relaxed flag is an
// optimization hint whose ground truth lives under a mutex, and the
// rationale says so in range.
inline void post_nonempty_hint(std::atomic<bool>& hint) {
  // Relaxed: advisory fast-path flag; the queue mutex publishes the
  // actual items, a stale read only delays one poll.
  hint.store(true, std::memory_order_relaxed);
}

// The C++20 spelling with its rationale, and seq_cst, which needs none.
inline void publish(std::atomic<int>& ready, int value) {
  // Release: pairs with the reader's acquire load of the same flag.
  ready.store(value, std::memory_order::release);
  ready.fetch_add(1, std::memory_order_seq_cst);
}

// An analysis opt-out with its reason in range.
struct ReasonedOptOut {
  int value = 0;
  // Teardown runs after every worker joined; nothing else can hold a
  // reference.
  void reset() KC_NO_THREAD_SAFETY_ANALYSIS { value = 0; }
};

// Distance work routed through the oracle, which applies the budget,
// cancellation and pruning gates. Naming the KernelTable in a comment,
// or kernels_for() in a string, reaches no kernel.
inline double oracle_distance(const kc::DistanceOracle& oracle,
                              kc::index_t a, kc::index_t b) {
  return oracle.distance(a, b);
}
inline const char* kernel_note() { return "scans never call kernels_for()"; }

// A whole-set scan through NearestSweep, which decides whether the grid
// serves it, and a coreset snapped through first_point_per_cell. Naming
// grid_cell_key in a comment, or spatial_index() in a string, reaches
// no cell.
inline double farthest_value(const kc::DistanceOracle& oracle,
                             std::span<const kc::index_t> pts,
                             kc::index_t center) {
  kc::NearestSweep sweep(oracle, pts);
  sweep.fold(center);
  return sweep.farthest().comparable;
}
inline std::vector<kc::index_t> coreset(const kc::PointSet& points,
                                        std::span<const kc::index_t> part) {
  return kc::first_point_per_cell(points, part, 0.5, 64);
}
inline const char* grid_note() { return "never call spatial_index() here"; }

// A waived wall-clock use, with a written reason.
inline long log_stamp() {
  return std::chrono::system_clock::now()  // kc-lint: allow(wallclock) operator-facing log stamp, never in report bytes
      .time_since_epoch()
      .count();
}

// An expiring waiver whose deadline is still ahead: suppresses the
// finding and stays silent itself until the repo reaches PR9999.
inline long deferred_cleanup_stamp() {
  return std::chrono::system_clock::now()  // kc-lint: allow(wallclock, until=PR9999) scaffold for the ops log rework
      .time_since_epoch()
      .count();
}

}  // namespace fixture
