// Checks the benchmark's own arithmetic (metrics.hpp) on hand-built
// inputs. Exits non-zero on the first failed check.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void near(double actual, double expected, const char* what) {
  const double tolerance = 1e-12 * std::max(1.0, std::fabs(expected));
  check(std::fabs(actual - expected) <= tolerance, what);
}

using perfbench::Span;

void percentile_rule() {
  using perfbench::percentile_supported;
  using perfbench::samples_beyond;
  check(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  check(percentile_supported(100, 0.9), "p90 is supported by 100 samples");
  check(samples_beyond(99, 0.9) == 9, "99 samples leave 9 beyond p90");
  check(!percentile_supported(99, 0.9), "p90 is not supported by 99 samples");
  check(samples_beyond(20, 0.5) == 10, "20 samples leave 10 beyond p50");
  check(!percentile_supported(19, 0.5), "p50 is not supported by 19 samples");
  check(samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(!percentile_supported(8, 0.5), "8 samples support no percentile");

  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);  // unsorted on purpose
  near(perfbench::median(ten), 5.5, "median of 1..10");
  near(perfbench::quantile(ten, 0.9), 9.1, "p90 of 1..10 interpolates");
  near(perfbench::quantile(ten, 0.0), 1.0, "p0 is the minimum");
  near(perfbench::quantile(ten, 1.0), 10.0, "p100 is the maximum");
  near(perfbench::median({7.0}), 7.0, "median of one sample");
  near(perfbench::mean({1.0, 2.0, 6.0}), 3.0, "mean");
}

void span_self_time() {
  // op [0, 10] with children [1, 3] and [2, 5] (overlapping) and
  // [8, 12] (running past the parent); grandchild [1, 2] under the
  // first child must not count against op.
  std::vector<Span> spans = {
      {"op", 0, -1, 0.0, 10.0, false},
      {"a", 0, 0, 1.0, 3.0, false},
      {"b", 0, 0, 2.0, 5.0, false},
      {"c", 0, 0, 8.0, 12.0, false},
      {"a.child", 0, 1, 1.0, 2.0, true},
  };
  // covered: [1, 5] + [8, 10] = 6
  near(perfbench::self_time(spans, 0), 4.0,
       "op self time, overlap counted once");
  near(perfbench::self_time(spans, 1), 1.0, "child self time minus grandchild");
  near(perfbench::self_time(spans, 2), 3.0, "leaf self time is its duration");

  // Nested children fully inside each other and identical children.
  std::vector<Span> nested = {
      {"op", 1, -1, 0.0, 4.0, false},
      {"x", 1, 0, 0.5, 3.5, false},
      {"y", 1, 0, 1.0, 2.0, false},
      {"z", 1, 0, 1.0, 2.0, false},
  };
  near(perfbench::self_time(nested, 0), 1.0, "contained children");

  std::vector<Span> leaf = {{"op", 2, -1, 3.0, 3.25, false}};
  near(perfbench::self_time(leaf, 0), 0.25, "span without children");

  near(perfbench::covered_length({{0.0, 1.0}, {2.0, 3.0}}, 0.0, 3.0), 2.0,
       "disjoint intervals");
  near(perfbench::covered_length({{-1.0, 0.5}, {0.25, 2.0}}, 0.0, 1.0), 1.0,
       "clipped, overlapping intervals");
  near(perfbench::covered_length({{2.0, 1.0}}, 0.0, 3.0), 0.0,
       "an inverted interval covers nothing");
}

void derived_values() {
  near(perfbench::residual(2.0, 0.25, 0.5), 1.25, "api.residual_s");
  near(perfbench::queue_wait(0.010, 0.004, 0.001), 0.005, "svc.queue_wait_s");
  near(perfbench::busy_share(6.0, 2.0, 4), 0.75, "exec.busy_share");
  near(perfbench::busy_share(1.0, 0.0, 4), 0.0, "busy_share of no wall time");
  near(perfbench::share(1.0, 4.0), 0.25, "share");
  near(perfbench::share(1.0, 0.0), 0.0, "share of nothing");
  near(perfbench::overhead_share({1.1, 1.2, 1.0}, {1.0, 0.9, 1.1}), 0.1,
       "trace.overhead_share");
  near(perfbench::overhead_share({1.0}, {}), 0.0,
       "overhead without untraced ops");
}

}  // namespace

int main() {
  percentile_rule();
  span_self_time();
  derived_values();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return EXIT_SUCCESS;
}
