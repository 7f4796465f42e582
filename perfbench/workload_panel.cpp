// panel-d10-200k: the paper's panel (MRG, then EIM, then GON at k = 25)
// on 200,000 resident 10-D points, through one Solver on one persistent
// ThreadPool backend of width 4. Kernels, scheduler fan-out and the
// MapReduce rounds do nearly all the work; no index is built (dim 10 is
// above the Auto limit) and nothing is parsed per op, so this is the
// control for ingest and index changes.
//
// EIM samples at random, and its iteration count (4 to 6 here) moves the
// op by a third. Ops therefore cycle through kTrials request seeds, as
// the paper's repeated trials do, so a run's median spans the sampling
// outcomes instead of resting on one draw.
#include <array>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <thread>

#include "api/solver.hpp"
#include "bench.hpp"
#include "data/generators.hpp"
#include "data/loader.hpp"
#include "eval/evaluate.hpp"
#include "eval/lower_bound.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kPoints = 200'000;
constexpr std::size_t kDim = 10;
constexpr std::size_t kClusters = 25;
constexpr std::size_t kCenters = 25;
constexpr int kMachines = 50;
/// Three workers plus the calling thread.
constexpr std::size_t kPoolWidth = 4;
constexpr std::size_t kTrials = 8;  ///< request seeds 1..kTrials
constexpr std::size_t kAlgorithms = 3;
/// The paper's column order, with the metric-name prefix of each.
constexpr const char* kPanel[kAlgorithms] = {"mrg", "eim", "gon"};
constexpr const char* kPrefix[kAlgorithms] = {"core.mrg", "core.eim",
                                              "algo.gon"};

using Panel = std::array<kc::api::SolveReport, kAlgorithms>;

kc::api::SolveRequest request_for(const kc::PointSet& points,
                                  std::size_t algorithm, std::size_t trial) {
  kc::api::SolveRequest request;
  request.points = &points;
  request.k = kCenters;
  request.algorithm = kPanel[algorithm];
  request.exec.machines = kMachines;
  request.seed = trial + 1;
  return request;
}

kc::exec::Scheduler::Stats operator-(const kc::exec::Scheduler::Stats& a,
                                     const kc::exec::Scheduler::Stats& b) {
  return {a.executed - b.executed, a.stolen - b.stolen,
          a.injected - b.injected};
}

/// The byte-identity reference of each trial: Sequential backend,
/// pruning off. Trials are independent, so kPoolWidth threads share them.
std::vector<Panel> reference_panels(const kc::PointSet& points,
                                    std::size_t trials) {
  std::vector<Panel> panels(trials);
  std::vector<std::exception_ptr> errors(kPoolWidth);
  const auto solve_trials = [&](std::size_t first) {
    try {
      kc::api::Solver solver(std::make_shared<kc::exec::SequentialBackend>());
      for (std::size_t trial = first; trial < trials; trial += kPoolWidth) {
        for (std::size_t a = 0; a < kAlgorithms; ++a) {
          kc::api::SolveRequest request = request_for(points, a, trial);
          request.prune = kc::PruneMode::Off;
          panels[trial][a] = solver.solve(request);
        }
      }
    } catch (...) {
      errors[first] = std::current_exception();
    }
  };
  std::vector<std::jthread> threads;  // joined on every path out
  for (std::size_t t = 0; t < kPoolWidth; ++t) {
    threads.emplace_back(solve_trials, t);
  }
  threads.clear();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return panels;
}

}  // namespace

Result run_panel(const Options& options) {
  std::optional<kc::PointSet> points;
  std::shared_ptr<kc::exec::ThreadPoolBackend> pool;
  std::optional<kc::api::Solver> solver;
  std::vector<double> setup_load_s;
  double file_mb = 0.0;
  const double setup_s = timed_setups([&] {
    kc::Rng rng(options.seed);
    MemFile csv("perfbench-gau-d10.csv");
    kc::data::save_csv(
        kc::data::generate_gau(kPoints, kClusters, kDim, 100.0, 0.1, rng),
        csv.path());
    const double t0 = now_s();
    points.emplace(kc::data::load_numeric_csv(csv.path()));
    setup_load_s.push_back(now_s() - t0);
    file_mb = static_cast<double>(csv.size()) / 1e6;
    pool = std::make_shared<kc::exec::ThreadPoolBackend>(
        static_cast<int>(kPoolWidth));
    solver.emplace(pool);
  });

  Result result;
  std::vector<OpSample> ops;
  std::vector<Panel> reports;  // empty centers = failed op
  std::vector<kc::exec::Scheduler::Stats> sched;
  std::vector<std::array<std::size_t, kAlgorithms>> solve_spans;
  const double timed_start = now_s();
  const double cpu_start = process_cpu_s();
  while (ops.empty() || now_s() - timed_start < options.seconds) {
    // A traced run alternates blocks of kTrials traced and untraced ops,
    // so both sides see every request seed and the run can price its
    // own spans.
    bool traced = options.trace && ops.size() / kTrials % 2 == 0;
    const std::size_t op = ops.size();
    const kc::exec::Scheduler::Stats sched0 = pool->scheduler().stats();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    ++result.attempted;
    Panel& panel = reports.emplace_back();
    std::array<double, kAlgorithms + 1> marks{t0};
    try {
      for (std::size_t a = 0; a < kAlgorithms; ++a) {
        panel[a] = solver->solve(request_for(*points, a, op % kTrials));
        marks[a + 1] = now_s();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: op %zu failed: %s\n", op, e.what());
      ++result.failed;
      panel = {};
      traced = false;
    }
    const double t1 = now_s();
    if (traced) {
      const auto id = static_cast<std::int64_t>(op);
      const int root = static_cast<int>(result.spans.size());
      result.spans.push_back({"op", id, -1, t0, t1, false});
      std::array<std::size_t, kAlgorithms>& spans = solve_spans.emplace_back();
      for (std::size_t a = 0; a < kAlgorithms; ++a) {
        spans[a] = result.spans.size();
        result.spans.push_back(
            {"api.solve", id, root, marks[a], marks[a + 1], false});
      }
    }
    // The op's wall time includes recording its spans: that is the cost
    // trace.overhead_share prices.
    ops.push_back({now_s() - t0, process_cpu_s() - cpu0, traced});
    sched.push_back(pool->scheduler().stats() - sched0);
  }
  const double timed_wall = now_s() - timed_start;
  const double timed_cpu = process_cpu_s() - cpu_start;
  const double peak_mb = peak_rss_mb();

  // Output check against the byte-identity reference of each op's trial.
  const std::size_t trials = std::min(ops.size(), kTrials);
  const std::vector<Panel> reference = reference_panels(*points, trials);
  // A failed op has no centers, so it fails the check too.
  result.correct = true;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      const Panel& expected = reference[i % kTrials];
      result.correct =
          result.correct && same_solution(reports[i][a], expected[a]);
    }
  }
  const std::vector<kc::index_t> all = points->all_indices();
  const double lower_bound = kc::eval::gonzalez_lower_bound(
      kc::DistanceOracle(*points), all, kCenters);
  // Per algorithm and per trial; each op repeats one trial, so the mean
  // over trials does not depend on how many ops a run completes.
  std::array<std::vector<double>, kAlgorithms> ratio;
  std::vector<double> worst_ratio;
  for (const Panel& panel : reference) {
    double worst = 0.0;
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      ratio[a].push_back(panel[a].value / lower_bound);
      worst = std::max(worst, ratio[a].back());
    }
    worst_ratio.push_back(worst);
  }

  if (!options.trace) {
    add_end_to_end(result, walls(ops), timed_wall, timed_cpu, setup_s,
                   mean(worst_ratio), peak_mb);
    return result;
  }

  // The value evaluation runs only inside the solve: time it standalone
  // on the same input with the workload's backend bound, as the facade
  // binds it. Its cost does not depend on which centers it checks.
  std::array<double, kAlgorithms> radius{};
  for (std::size_t a = 0; a < kAlgorithms; ++a) {
    kc::DistanceOracle oracle(*points);
    oracle.bind_executor(pool.get());
    std::vector<double> times;
    for (int i = 0; i < kStandaloneRepeats; ++i) {
      const double t0 = now_s();
      const double value =
          kc::eval::covering_radius(oracle, all, reference[0][a].centers)
              .radius;
      times.push_back(now_s() - t0);
      result.correct = result.correct && value == reference[0][a].value;
    }
    radius[a] = median(times);
  }

  std::vector<double> solve_s;
  std::vector<double> residual_s;
  for (const auto& spans : solve_spans) {
    const auto op = static_cast<std::size_t>(result.spans[spans[0]].op);
    const Panel& panel = reports[op];
    double solve_sum = 0.0;
    double residual_sum = 0.0;
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      const double d = result.spans[spans[a]].duration();
      solve_sum += d;
      residual_sum += residual(d, panel[a].wall_seconds, radius[a]);
      lay_out_solve(result.spans, spans[a], panel[a], radius[a]);
    }
    solve_s.push_back(solve_sum);
    residual_s.push_back(residual_sum);
  }

  std::vector<double> algorithm_s;
  std::vector<double> evals;
  std::vector<double> pruned;
  std::vector<double> rounds;
  std::vector<double> shuffle;
  std::vector<double> round_wall_s;
  std::vector<double> round_skew;
  std::vector<double> cpu_ns_per_eval;
  std::vector<double> busy;
  std::vector<double> executed;
  std::vector<double> stolen;
  std::vector<double> injected;
  std::array<std::vector<double>, kAlgorithms> wall_s;
  std::array<std::vector<double>, kAlgorithms> sim_s;
  std::vector<double> traced_walls;
  std::vector<double> untraced_walls;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (ops[i].traced ? traced_walls : untraced_walls).push_back(ops[i].wall_s);
    if (reports[i][0].centers.empty()) continue;
    double algorithm = 0.0;
    double op_evals = 0.0;
    double op_pruned = 0.0;
    RoundTotals op_rounds;
    for (std::size_t a = 0; a < kAlgorithms; ++a) {
      const kc::api::SolveReport& r = reports[i][a];
      algorithm += r.wall_seconds;
      op_evals += static_cast<double>(r.dist_evals);
      op_pruned += static_cast<double>(r.pairs_pruned);
      op_rounds += round_totals(r.trace);
      wall_s[a].push_back(r.wall_seconds);
      sim_s[a].push_back(r.sim_seconds);
    }
    algorithm_s.push_back(algorithm);
    evals.push_back(op_evals);
    pruned.push_back(op_pruned);
    rounds.push_back(op_rounds.rounds);
    shuffle.push_back(static_cast<double>(op_rounds.shuffle_items));
    round_wall_s.push_back(op_rounds.wall_s);
    round_skew.push_back(
        share(op_rounds.max_machine_s, op_rounds.mean_machine_s));
    cpu_ns_per_eval.push_back(ops[i].cpu_s * 1e9 / op_evals);
    busy.push_back(busy_share(ops[i].cpu_s, ops[i].wall_s,
                              static_cast<int>(kPoolWidth)));
    executed.push_back(static_cast<double>(sched[i].executed));
    stolen.push_back(static_cast<double>(sched[i].stolen));
    injected.push_back(static_cast<double>(sched[i].injected));
  }
  std::vector<double> eim_iterations;
  std::vector<double> eim_sample;
  for (const Panel& panel : reference) {
    eim_iterations.push_back(panel[1].iterations);
    eim_sample.push_back(static_cast<double>(panel[1].final_sample_size));
  }

  const double load = median(setup_load_s);
  add(result, "data.load_s", load, "s");
  add(result, "data.load_mb_per_s", file_mb / load, "MB/s");
  add(result, "api.solve_s", median(solve_s), "s");
  add(result, "api.algorithm_s", median(algorithm_s), "s");
  add(result, "api.residual_s", median(residual_s), "s");
  add(result, "geom.dist_evals", median(evals), "count");
  add(result, "geom.pairs_pruned", median(pruned), "count");
  add(result, "geom.prune_share",
      share(median(pruned), median(evals) + median(pruned)), "ratio");
  add(result, "geom.cpu_ns_per_eval", median(cpu_ns_per_eval), "ns");
  for (std::size_t a = 0; a < kAlgorithms; ++a) {
    add(result, std::string(kPrefix[a]) + ".wall_s", median(wall_s[a]), "s");
    add(result, std::string(kPrefix[a]) + ".ratio", mean(ratio[a]), "ratio");
    add(result, std::string("mapreduce.") + kPanel[a] + ".sim_s",
        median(sim_s[a]), "s");
  }
  add(result, "core.eim.iterations", median(eim_iterations), "count");
  add(result, "core.eim.sample_size", median(eim_sample), "count");
  add(result, "mapreduce.rounds", median(rounds), "count");
  add(result, "mapreduce.shuffle_items", median(shuffle), "count");
  add(result, "mapreduce.round_wall_s", median(round_wall_s), "s");
  add(result, "mapreduce.round_skew", median(round_skew), "ratio");
  add(result, "exec.tasks_executed", median(executed), "count");
  add(result, "exec.tasks_stolen", median(stolen), "count");
  add(result, "exec.tasks_injected", median(injected), "count");
  add(result, "exec.steal_share", share(median(stolen), median(executed)),
      "ratio");
  add(result, "exec.busy_share", median(busy), "ratio");
  add(result, "eval.radius_s", radius[0] + radius[1] + radius[2], "s");
  add(result, "trace.overhead_share",
      overhead_share(traced_walls, untraced_walls), "ratio");
  add(result, "trace.unattributed_share", unattributed_share(result.spans),
      "ratio");
  return result;
}

}  // namespace perfbench
