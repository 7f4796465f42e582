// svc-closed-4k: the batch solve service under closed-loop callers.
// svc::ServiceLoop runs on a ThreadPool of width 2 (one worker plus the
// consumer thread in run()); one generator thread plays four callers,
// each submitting its next request line only after its previous report
// arrived, as kcenter_serve clients that wait for their reply do. An op
// runs from the start of submit() to its report. Request parsing runs
// serially inside submit() and dominates; every request also builds a
// small spatial index (4096 points = the Auto threshold) and arms and
// retires a deadline. Three busy threads on four cores leave one core for
// the rest of the host, so the serial submit path and the deadline thread
// are not preempted by it.
#include <array>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/solver.hpp"
#include "bench.hpp"
#include "bench/replay.hpp"
#include "eval/evaluate.hpp"
#include "eval/lower_bound.hpp"
#include "geom/spatial_index.hpp"
#include "rng/rng.hpp"
#include "svc/codec.hpp"
#include "svc/json.hpp"
#include "svc/service.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPoints = 4096;
constexpr std::size_t kCenters = 16;
constexpr int kMachines = 8;
/// Distinct request lines; callers cycle through them in order.
constexpr std::size_t kLines = 512;
constexpr int kPoolWidth = 2;    ///< one worker plus the consumer thread
constexpr int kCallers = 4;      ///< closed-loop callers on one generator
constexpr int kBusyThreads = 3;  ///< the pool plus the generator thread
/// Never fires; it only makes every request arm and retire a deadline.
constexpr int kDeadlineMs = 600'000;
/// Lines whose inner layers a traced run times standalone.
constexpr std::size_t kTraceSample = 128;
constexpr const char* kAlgorithms[] = {"gon", "mrg", "eim", "ccm"};
constexpr const char* kTenants[] = {"alpha", "beta"};

/// Appends the shortest text that reads back as exactly `value`.
void append_number(std::string& out, double value) {
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, end);
}

/// Writes request line i, newline-terminated, over `line`. Reusing one
/// buffer keeps set-up free of per-line reallocation, whose page faults
/// made set-up times scatter.
void request_line(std::size_t i, kc::Rng& rng, std::string& line) {
  line = "{\"id\": " + std::to_string(i + 1) + ", \"tenant\": \"" +
         kTenants[i % 2] + "\", \"algorithm\": \"" + kAlgorithms[i % 4] +
         "\", \"k\": " + std::to_string(kCenters) + ", \"machines\": " +
         std::to_string(kMachines) + ", \"seed\": " + std::to_string(i + 1) +
         ", \"deadline_ms\": " + std::to_string(kDeadlineMs) +
         ", \"points\": [";
  for (std::size_t p = 0; p < kPoints; ++p) {
    line += p == 0 ? "[" : ", [";
    append_number(line, rng.uniform(0.0, 100.0));
    line += ", ";
    append_number(line, rng.uniform(0.0, 100.0));
    line += "]";
  }
  line += "]}\n";
}

kc::svc::ServiceConfig service_config(kc::exec::BackendKind backend) {
  kc::svc::ServiceConfig config;
  config.backend = backend;
  config.threads = kPoolWidth;
  // Stable reports carry no timings, so they byte-compare against a
  // Sequential replay of the same lines.
  config.style.stable = true;
  return config;
}

/// The request lines, kept in a memory-backed JSONL file and read back
/// one at a time.
struct Lines {
  MemFile file{"perfbench-requests.jsonl"};
  std::vector<std::uint64_t> offsets;
  std::vector<std::size_t> sizes;

  void read(std::size_t i, std::string& out) const {
    file.read_at(offsets[i], sizes[i], out);
  }
};

struct OpRecord {
  std::size_t line = 0;
  double submit_start = 0.0;
  double submit_end = 0.0;
  double reported = 0.0;
  std::string report;
};

[[nodiscard]] bool is_ok(const std::string& report) {
  return report.find("\"status\": \"ok\"") != std::string::npos;
}

/// The generator's side of the closed loop. It outlives both threads:
/// reports arrive on the consumer thread.
struct ClosedLoop {
  std::mutex mutex;
  std::condition_variable ready_cv;
  std::deque<int> ready;  ///< callers whose last report arrived
  /// One record per op; a deque, so the consumer's pointers to earlier
  /// records stay valid while the generator appends.
  std::deque<OpRecord> records;

  void arrived(OpRecord& record, int caller, const std::string& report) {
    const double t = now_s();
    const std::lock_guard<std::mutex> lock(mutex);
    record.reported = t;
    record.report = report;
    ready.push_back(caller);
    ready_cv.notify_one();
  }
};

/// Plays kCallers closed-loop callers until `seconds` have passed, then
/// waits for every outstanding report and closes the service.
void generate(kc::svc::ServiceLoop& service, const Lines& lines,
              double seconds, ClosedLoop& loop) {
  for (int c = 0; c < kCallers; ++c) loop.ready.push_back(c);
  std::string line;
  int retired = 0;
  const double end = now_s() + seconds;
  while (retired < kCallers) {
    int caller = 0;
    {
      std::unique_lock<std::mutex> lock(loop.mutex);
      loop.ready_cv.wait(lock, [&] { return !loop.ready.empty(); });
      caller = loop.ready.front();
      loop.ready.pop_front();
    }
    if (now_s() >= end) {
      ++retired;
      continue;
    }
    OpRecord& record = loop.records.emplace_back();
    record.line = (loop.records.size() - 1) % kLines;
    lines.read(record.line, line);
    OpRecord* r = &record;
    record.submit_start = now_s();
    const std::optional<std::string> rejection = service.submit(
        line, [&loop, r, caller](const std::string& report) {
          loop.arrived(*r, caller, report);
        });
    record.submit_end = now_s();
    if (rejection) loop.arrived(record, caller, *rejection);
  }
  service.close();
}

}  // namespace

Result run_svc(const Options& options) {
  std::optional<Lines> lines;
  std::shared_ptr<kc::exec::ThreadPoolBackend> pool;
  std::optional<kc::svc::ServiceLoop> service;
  const double setup_s = timed_setups([&] {
    lines.emplace();
    kc::Rng rng(options.seed);
    std::uint64_t offset = 0;
    std::string line;
    line.reserve(kPoints * 48);  // a point takes about 40 characters
    for (std::size_t i = 0; i < kLines; ++i) {
      request_line(i, rng, line);
      lines->file.append(line);
      lines->offsets.push_back(offset);
      lines->sizes.push_back(line.size() - 1);  // without the newline
      offset += line.size();
    }
    pool = std::make_shared<kc::exec::ThreadPoolBackend>(kPoolWidth);
    service.emplace(service_config(kc::exec::BackendKind::ThreadPool), pool);
  });

  // This thread is the service's consumer; the generator runs beside it.
  ClosedLoop loop;
  const std::deque<OpRecord>& records = loop.records;
  std::exception_ptr generator_error;
  const kc::exec::Scheduler::Stats sched0 = pool->scheduler().stats();
  const double timed_start = now_s();
  const double cpu_start = process_cpu_s();
  std::thread generator([&] {
    try {
      generate(*service, *lines, options.seconds, loop);
    } catch (...) {
      generator_error = std::current_exception();
      service->close();
    }
  });
  service->run();
  generator.join();
  const double timed_wall = now_s() - timed_start;
  const double timed_cpu = process_cpu_s() - cpu_start;
  const kc::exec::Scheduler::Stats sched = pool->scheduler().stats();
  const double peak_mb = peak_rss_mb();
  if (generator_error) std::rethrow_exception(generator_error);
  const kc::svc::ServiceLoop::Stats stats = service->stats();

  Result result;
  std::vector<double> op_walls;
  for (const OpRecord& r : records) {
    ++result.attempted;
    if (!is_ok(r.report)) ++result.failed;
    op_walls.push_back(r.reported - r.submit_start);
  }

  // Output check: every report, whatever its status, byte for byte
  // against a Sequential-substrate replay of the same lines, which
  // emits its reports in line order.
  std::ifstream log(lines->file.path());
  std::vector<std::string> reference =
      kcb::replay_log(log, service_config(kc::exec::BackendKind::Sequential))
          .reports;
  if (reference.size() != kLines) {
    throw std::runtime_error("the Sequential replay emitted " +
                             std::to_string(reference.size()) +
                             " reports for " + std::to_string(kLines) +
                             " lines");
  }
  result.correct = true;
  for (const OpRecord& r : records) {
    result.correct = result.correct && r.report == reference[r.line];
  }

  // Certified ratio per line: the replayed value over the line's
  // Gonzalez lower bound. Ops repeat lines, so the mean over the lines a
  // run used does not depend on how many ops it completed.
  const std::size_t used = std::min(records.size(), kLines);
  std::vector<double> line_ratio(used);
  std::string line;
  for (std::size_t i = 0; i < used; ++i) {
    lines->read(i, line);
    const kc::svc::WireRequest wire = kc::svc::parse_request(line);
    const std::vector<kc::index_t> all = wire.points.all_indices();
    const double lower_bound = kc::eval::gonzalez_lower_bound(
        kc::DistanceOracle(wire.points), all, kCenters);
    const kc::svc::Json* value =
        kc::svc::Json::parse(reference[i]).find("value");
    line_ratio[i] = value != nullptr ? value->number / lower_bound : 0.0;
  }
  const double ratio = mean(line_ratio);

  if (!options.trace) {
    add_end_to_end(result, op_walls, timed_wall, timed_cpu, setup_s, ratio,
                   peak_mb);
    return result;
  }

  // Spans of every op, laid out from the timestamps every run takes, so
  // tracing adds nothing to an op.
  std::vector<double> submit_s;
  std::vector<double> residence_s;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const OpRecord& r = records[i];
    const auto op = static_cast<std::int64_t>(i);
    const int root = static_cast<int>(result.spans.size());
    result.spans.push_back({"op", op, -1, r.submit_start, r.reported, false});
    result.spans.push_back(
        {"svc.submit", op, root, r.submit_start, r.submit_end, false});
    result.spans.push_back(
        {"svc.residence", op, root, r.submit_end, r.reported, false});
    submit_s.push_back(r.submit_end - r.submit_start);
    residence_s.push_back(r.reported - r.submit_end);
  }

  // Layers that run only inside the service, timed standalone on the
  // same lines after the timed ops: parse, solve on the service's
  // backend, encode, and the solve's index build and evaluation.
  std::vector<double> parse_s;
  std::vector<double> solve_s;
  std::vector<double> encode_s;
  std::vector<double> index_s;
  std::vector<double> cells;
  std::vector<double> radius_s;
  std::vector<double> evals;
  std::vector<double> pruned;
  std::vector<double> bytes;
  RoundTotals rounds;
  std::array<std::vector<double>, 3> wall_s;  // gon, mrg, eim
  std::array<std::vector<double>, 3> sim_s;
  std::array<std::vector<double>, 3> algo_ratio;
  std::vector<double> eim_iterations;
  std::vector<double> eim_sample;
  kc::api::Solver solver(pool);
  const std::size_t sample = std::min(used, kTraceSample);
  for (std::size_t i = 0; i < sample; ++i) {
    lines->read(i, line);
    bytes.push_back(static_cast<double>(line.size()));
    const double t0 = now_s();
    kc::svc::WireRequest wire = kc::svc::parse_request(line);
    const double t1 = now_s();
    // As the service admits it: budgeted evaluation under an armed token.
    wire.request.budgeted_eval = true;
    wire.request.cancel = kc::CancellationToken::make();
    const kc::api::SolveReport report = solver.solve(wire.request);
    const double t2 = now_s();
    const std::string encoded = kc::svc::write_report(
        wire.id, wire.tenant, report, kc::svc::ReportStyle{true});
    const double t3 = now_s();
    result.correct = result.correct && encoded == reference[i];
    parse_s.push_back(t1 - t0);
    solve_s.push_back(t2 - t1);
    encode_s.push_back(t3 - t2);

    const double t4 = now_s();
    const kc::SpatialIndex index(wire.points);
    index_s.push_back(now_s() - t4);
    cells.push_back(static_cast<double>(index.cell_count()));
    kc::DistanceOracle oracle(wire.points);
    oracle.bind_executor(pool.get());
    oracle.bind_index(&index, kc::PruneMode::Auto);
    const double t5 = now_s();
    const double value = kc::eval::covering_radius(
                             oracle, wire.points.all_indices(), report.centers)
                             .radius;
    radius_s.push_back(now_s() - t5);
    result.correct = result.correct && value == report.value;

    evals.push_back(static_cast<double>(report.dist_evals));
    pruned.push_back(static_cast<double>(report.pairs_pruned));
    rounds += round_totals(report.trace);
    const std::size_t a = i % 4;
    if (a < 3) {
      wall_s[a].push_back(report.wall_seconds);
      sim_s[a].push_back(report.sim_seconds);
      algo_ratio[a].push_back(line_ratio[i]);
    }
    if (a == 2) {
      eim_iterations.push_back(report.iterations);
      eim_sample.push_back(static_cast<double>(report.final_sample_size));
    }
  }

  const auto n = static_cast<double>(records.size());
  const auto per_request = static_cast<double>(sample);
  const double solve = median(solve_s);
  const double encode = median(encode_s);
  const double mean_evals = mean(evals);
  const double mean_pruned = mean(pruned);
  add(result, "geom.index_build_s", median(index_s), "s");
  add(result, "geom.index_cells", median(cells), "count");
  add(result, "geom.dist_evals", mean_evals, "count");
  add(result, "geom.pairs_pruned", mean_pruned, "count");
  add(result, "geom.prune_share", share(mean_pruned, mean_evals + mean_pruned),
      "ratio");
  add(result, "geom.cpu_ns_per_eval", timed_cpu / n * 1e9 / mean_evals, "ns");
  // kAlgorithms order: gon, mrg, eim.
  add(result, "algo.gon.wall_s", median(wall_s[0]), "s");
  add(result, "core.mrg.wall_s", median(wall_s[1]), "s");
  add(result, "core.eim.wall_s", median(wall_s[2]), "s");
  add(result, "algo.gon.ratio", mean(algo_ratio[0]), "ratio");
  add(result, "core.mrg.ratio", mean(algo_ratio[1]), "ratio");
  add(result, "core.eim.ratio", mean(algo_ratio[2]), "ratio");
  add(result, "core.eim.iterations", median(eim_iterations), "count");
  add(result, "core.eim.sample_size", median(eim_sample), "count");
  add(result, "mapreduce.rounds", rounds.rounds / per_request, "count");
  add(result, "mapreduce.shuffle_items",
      static_cast<double>(rounds.shuffle_items) / per_request, "count");
  add(result, "mapreduce.round_wall_s", rounds.wall_s / per_request, "s");
  add(result, "mapreduce.round_skew",
      share(rounds.max_machine_s, rounds.mean_machine_s), "ratio");
  add(result, "mapreduce.gon.sim_s", median(sim_s[0]), "s");
  add(result, "mapreduce.mrg.sim_s", median(sim_s[1]), "s");
  add(result, "mapreduce.eim.sim_s", median(sim_s[2]), "s");
  const double executed = static_cast<double>(sched.executed - sched0.executed);
  const double stolen = static_cast<double>(sched.stolen - sched0.stolen);
  add(result, "exec.tasks_executed", executed / n, "count");
  add(result, "exec.tasks_stolen", stolen / n, "count");
  add(result, "exec.tasks_injected",
      static_cast<double>(sched.injected - sched0.injected) / n, "count");
  add(result, "exec.steal_share", share(stolen, executed), "ratio");
  add(result, "exec.busy_share",
      busy_share(timed_cpu, timed_wall, kBusyThreads), "ratio");
  add(result, "eval.radius_s", median(radius_s), "s");
  const double residence = median(residence_s);
  const bool tail = percentile_supported(op_walls.size(), 0.9);
  add(result, "svc.op_p90_s", tail ? quantile(op_walls, 0.9) : 0.0, "s");
  add(result, "svc.submit_s", median(submit_s), "s");
  add(result, "svc.residence_s", residence, "s");
  add(result, "svc.parse_s", median(parse_s), "s");
  add(result, "svc.solve_s", solve, "s");
  add(result, "svc.encode_s", encode, "s");
  add(result, "svc.queue_wait_s", queue_wait(residence, solve, encode), "s");
  add(result, "svc.request_bytes", mean(bytes), "B");
  add(result, "svc.completed", static_cast<double>(stats.completed), "count");
  add(result, "svc.failed", static_cast<double>(stats.failed), "count");
  add(result, "svc.rejected", static_cast<double>(stats.rejected), "count");
  add(result, "trace.overhead_share", 0.0, "ratio");
  add(result, "trace.unattributed_share", unattributed_share(result.spans),
      "ratio");
  return result;
}

}  // namespace perfbench
