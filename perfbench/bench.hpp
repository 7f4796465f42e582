// Shared plumbing of the benchmark runner: options, clocks, memory-backed
// input files, the result record and the workload entry points.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "api/report.hpp"
#include "mapreduce/trace.hpp"
#include "metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans
};

/// Set-ups per run; setup_s is their median, so one slow set-up (a cold
/// page cache, a late allocator) does not move it.
inline constexpr int kSetups = 3;
/// Repeats of each standalone layer timing in a traced run (median).
inline constexpr int kStandaloneRepeats = 3;

[[nodiscard]] double now_s() noexcept;          ///< steady clock
[[nodiscard]] double process_cpu_s() noexcept;  ///< user + sys, all threads
[[nodiscard]] double peak_rss_mb();             ///< VmHWM

/// An anonymous memory-backed file (memfd): generated inputs live in
/// memory and never touch a file system. The library opens it by path
/// through /proc/self/fd.
class MemFile {
 public:
  explicit MemFile(const char* name);
  ~MemFile();
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t size() const;
  /// Appends at the end of the file.
  void append(std::string_view bytes);
  /// Reads `length` bytes at `offset` into `out`.
  void read_at(std::uint64_t offset, std::size_t length,
               std::string& out) const;

 private:
  int fd_ = -1;
  std::string path_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Span> spans;  ///< traced runs only
};

/// Runs `setup` kSetups times and returns the median wall time. Only the
/// last runs in this process, and its state is the one the run keeps;
/// call before starting any thread.
[[nodiscard]] double timed_setups(const std::function<void()>& setup);

/// Bitwise equality of two solutions (centers and value): the byte
/// identity contract, so no tolerance.
[[nodiscard]] bool same_solution(const kc::api::SolveReport& a,
                                 const kc::api::SolveReport& b);

/// Per-op facts every workload collects.
struct OpSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  bool traced = false;
};

/// Wall times of the ops, in op order.
[[nodiscard]] std::vector<double> walls(const std::vector<OpSample>& ops);

/// Appends the end-to-end metrics, which every workload reports, from
/// the wall time of each op; `ratio` is the mean certified approximation
/// ratio over the run's distinct solves (every op repeats one of them).
void add_end_to_end(Result& result, const std::vector<double>& op_walls,
                    double timed_wall_s, double timed_cpu_s, double setup_s,
                    double ratio, double peak_mb);

/// Appends one metric. A traced run prints every per-layer metric of
/// BENCHMARK.json; run.py fills in those a workload does not add with 0.
void add(Result& result, std::string name, double value, std::string unit);

/// Sums over the rounds of one job.
struct RoundTotals {
  int rounds = 0;
  double wall_s = 0.0;
  double max_machine_s = 0.0;   ///< the slowest machine of each round
  double mean_machine_s = 0.0;  ///< the mean machine of each round
  std::uint64_t shuffle_items = 0;

  RoundTotals& operator+=(const RoundTotals& other) {
    rounds += other.rounds;
    wall_s += other.wall_s;
    max_machine_s += other.max_machine_s;
    mean_machine_s += other.mean_machine_s;
    shuffle_items += other.shuffle_items;
    return *this;
  }
};
[[nodiscard]] RoundTotals round_totals(const kc::mr::JobTrace& trace);

/// Adds the report-derived children of the api.solve span spans[solve],
/// laid out in the order the facade runs them: the algorithm (with its
/// MapReduce rounds), then the value evaluation, which ends the solve
/// and takes `radius_s` as timed standalone. What remains at the start
/// of the solve is the facade's own time: validation, index build and
/// oracle set-up.
void lay_out_solve(std::vector<Span>& spans, std::size_t solve,
                   const kc::api::SolveReport& report, double radius_s);

/// Share of the root "op" spans' time that no child span covers.
[[nodiscard]] double unattributed_share(const std::vector<Span>& spans);

[[nodiscard]] Result run_csv(const Options& options);
[[nodiscard]] Result run_panel(const Options& options);
[[nodiscard]] Result run_svc(const Options& options);

}  // namespace perfbench
