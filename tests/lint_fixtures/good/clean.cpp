// Fixture: a TU that exercises every lint rule's *allowed* form.
// Linted as if it lived in a report-emitting directory (the strictest
// placement); kc_lint --self-test must report zero findings here.
#include <atomic>
#include <chrono>
#include <map>
#include <vector>

namespace fixture {

// steady_clock is the sanctioned time source.
inline double elapsed(std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Ordered container in a report TU: fine, iteration order is defined.
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
