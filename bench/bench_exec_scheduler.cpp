// Scheduler microbenchmarks: what did the work-stealing refactor buy,
// and what does it cost per chunk?
//
// Three measurements, written to BENCH_exec.json:
//
//   1. dispatch overhead — ns per chunk and us per round for a
//      trivial-body run_chunks, on the work-stealing scheduler vs an
//      in-bench replica of the previous design (persistent workers,
//      one job at a time, chunks claimed off a single global atomic
//      ticket, submitters serialized on a mutex);
//   2. steal rate — steals per executed task under a skewed round
//      (one straggler chunk pins a worker, the rest must migrate);
//   3. overlap — wall-time speedup of running two identical MRG
//      solves concurrently from two threads on one shared pool versus
//      one after the other. Multi-round jobs have serial driver
//      sections between rounds; with per-group scheduling the other
//      job's tasks fill those bubbles, which the old single-job queue
//      could not.
//
// Flags:
//   --json=PATH    output path (default BENCH_exec.json; empty = off)
//   --threads=N    pool size (default 4)
//   --reps=R       repetitions per measurement, best-of (default 5)
//   --quick        smaller rounds/instances (CI smoke)
//   --analysis-status=PATH  configure stamp for the report's tooling
//                  note (default kc_analysis_status.txt in the cwd)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/kcenter.hpp"
#include "exec/topology.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Replica of the pre-refactor pool: persistent workers, a single job
// at a time whose chunks are claimed off one global atomic ticket,
// concurrent submitters serialized. Kept here (not in src/) purely as
// the measurement baseline.
class TicketPool {
 public:
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  explicit TicketPool(int threads) {
    for (int i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  ~TicketPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  void run_chunks(std::size_t n, std::size_t chunks, const RangeBody& body) {
    chunks = std::clamp<std::size_t>(chunks, 1, n);
    if (chunks == 1 || workers_.empty()) {
      body(0, n);
      return;
    }
    const std::lock_guard<std::mutex> submit_lock(submit_mutex_);
    // Per-job heap object shared with the workers (as the original
    // pool did): job fields are immutable once published, so a
    // straggler finishing the previous job never races the next one.
    auto job = std::make_shared<Job>();
    job->n = n;
    job->chunks = chunks;
    job->body = &body;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
    }
    wake_.notify_all();
    execute_chunks(*job);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      done_.wait(lock, [&] { return job->completed.load() == job->chunks; });
      job_.reset();
    }
  }

 private:
  struct Job {
    std::size_t n = 0, chunks = 0;
    const RangeBody* body = nullptr;
    std::atomic<std::size_t> next{0}, completed{0};
  };

  void execute_chunks(Job& job) {
    for (;;) {
      const std::size_t c = job.next.fetch_add(1);
      if (c >= job.chunks) return;
      const auto [lo, hi] = kc::exec::chunk_bounds(job.n, job.chunks, c);
      (*job.body)(lo, hi);
      if (job.completed.fetch_add(1) + 1 == job.chunks) {
        const std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_all();
      }
    }
  }
  void worker_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] {
          return stop_ || (job_ != nullptr && job_->next.load() < job_->chunks);
        });
        if (stop_) return;
        job = job_;
      }
      execute_chunks(*job);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_, submit_mutex_;
  std::condition_variable wake_, done_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
};

// ---------------------------------------------------------------------------

struct Entry {
  std::string name;
  double value;
  std::string unit;
};

struct Config {
  int threads = 4;
  int reps = 5;
  bool quick = false;
  std::string json_path = "BENCH_exec.json";
  // Configure-time stamp written by tools/analysis/CMakeLists.txt;
  // relative paths resolve against the cwd, which for ctest/CI runs is
  // the build directory where the stamp lives.
  std::string analysis_status_path = "kc_analysis_status.txt";
};

/// What tools/analysis/kc_analysis_status.txt said at configure time:
/// did the AST plugin build (vs. the Python extractor fallback), and
/// which checks gate the tree. Folded into the report so a benchmark
/// number can always be traced to the analysis regime it ran under.
struct AnalysisStatus {
  bool stamp_found = false;
  bool plugin_available = false;
  std::string llvm_version;
  int check_count = 0;
};

AnalysisStatus read_analysis_status(const std::string& path) {
  AnalysisStatus status;
  std::ifstream in(path);
  if (!in) return status;
  status.stamp_found = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("available=", 0) == 0) {
      status.plugin_available = line.substr(10) == "TRUE";
    } else if (line.rfind("llvm_version=", 0) == 0) {
      status.llvm_version = line.substr(13);
    } else if (line.rfind("checks=", 0) == 0) {
      const std::string checks = line.substr(7);
      if (!checks.empty()) {
        status.check_count = 1 + static_cast<int>(std::count(
                                     checks.begin(), checks.end(), ';'));
      }
    }
  }
  return status;
}

template <typename Body>
double best_of(int reps, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  body();  // warm-up
  for (int r = 0; r < reps; ++r) best = std::min(best, body());
  return best;
}

/// 1. Trivial-body dispatch cost, scheduler vs ticket loop.
template <typename Pool>
double rounds_seconds(Pool& pool, int rounds, std::size_t chunks) {
  std::atomic<std::size_t> sink{0};
  const auto body = [&](std::size_t lo, std::size_t hi) {
    sink.fetch_add(hi - lo, std::memory_order_relaxed);
  };
  const auto start = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    pool.run_chunks(chunks * 64, chunks, body);
  }
  return seconds_since(start);
}

void bench_dispatch(const Config& cfg, std::vector<Entry>& entries) {
  const int rounds = cfg.quick ? 200 : 2000;
  const auto chunk_counts = {static_cast<std::size_t>(cfg.threads),
                             std::size_t{64}, std::size_t{512}};
  for (const std::size_t chunks : chunk_counts) {
    kc::exec::Scheduler scheduler(cfg.threads);
    const double ws = best_of(cfg.reps, [&] {
      return rounds_seconds(scheduler, rounds, chunks);
    });
    TicketPool ticket(cfg.threads);
    const double tk = best_of(cfg.reps, [&] {
      return rounds_seconds(ticket, rounds, chunks);
    });
    const double denom = static_cast<double>(rounds) *
                         static_cast<double>(chunks);
    entries.push_back({"dispatch_ns_per_chunk_scheduler_c" +
                           std::to_string(chunks),
                       ws * 1e9 / denom, "ns/chunk"});
    entries.push_back({"dispatch_ns_per_chunk_ticket_c" +
                           std::to_string(chunks),
                       tk * 1e9 / denom, "ns/chunk"});
    std::printf("dispatch %4zu chunks: scheduler %8.1f ns/chunk   "
                "ticket %8.1f ns/chunk\n",
                chunks, ws * 1e9 / denom, tk * 1e9 / denom);
  }
}

/// 2. Steal rate under a skewed round.
void bench_steals(const Config& cfg, std::vector<Entry>& entries) {
  kc::exec::Scheduler scheduler(cfg.threads);
  const int rounds = cfg.quick ? 20 : 100;
  const auto before = scheduler.stats();
  for (int r = 0; r < rounds; ++r) {
    scheduler.run_chunks(64, 64, [](std::size_t lo, std::size_t) {
      if (lo == 0) {  // straggler pins one thread
        const auto until = Clock::now() + std::chrono::microseconds(200);
        while (Clock::now() < until) {
        }
      }
    });
  }
  const auto after = scheduler.stats();
  const double executed =
      static_cast<double>(after.executed - before.executed);
  const double stolen = static_cast<double>(after.stolen - before.stolen);
  entries.push_back({"steals_per_task_skewed", stolen / executed, "ratio"});
  std::printf("skewed rounds: %.0f tasks, %.0f stolen (%.2f steals/task)\n",
              executed, stolen, stolen / executed);
}

/// 3. Overlap: two identical MRG jobs, serial vs concurrent, one
/// shared pool backend. Each job is a stream of solves whose rounds
/// have two reducer tasks and sub-shard-threshold scans, so a single
/// job occupies only part of the pool — exactly the case where the
/// old one-job-at-a-time queue serialized and TaskGroups interleave.
void bench_overlap(const Config& cfg, std::vector<Entry>& entries) {
  kc::Rng rng(7);
  const std::size_t n = 12'000;  // scans stay below kShardMinItems (no fan-out)
  const int solves_per_job = cfg.quick ? 6 : 24;
  const kc::PointSet data =
      kc::data::generate_gau(n, 16, 2, 100.0, 0.5, rng);
  const auto backend =
      kc::exec::make_backend(kc::exec::BackendKind::ThreadPool, cfg.threads);

  const auto job = [&] {
    kc::api::Solver solver;
    for (int s = 0; s < solves_per_job; ++s) {
      kc::api::SolveRequest request;
      request.points = &data;
      request.k = 48;
      request.algorithm = "mrg";
      request.exec.backend = backend;
      request.exec.machines = 2;
      (void)solver.solve(request);
    }
  };

  const double serial = best_of(cfg.reps, [&] {
    const auto start = Clock::now();
    job();
    job();
    return seconds_since(start);
  });
  const double concurrent = best_of(cfg.reps, [&] {
    const auto start = Clock::now();
    std::thread other(job);
    job();
    other.join();
    return seconds_since(start);
  });
  entries.push_back({"overlap_serial_seconds", serial, "s"});
  entries.push_back({"overlap_concurrent_seconds", concurrent, "s"});
  entries.push_back({"overlap_speedup", serial / concurrent, "x"});
  std::printf("two MRG jobs: serial %.3fs  concurrent %.3fs  (%.2fx)\n",
              serial, concurrent, serial / concurrent);
}

void write_json(const Config& cfg, const std::vector<Entry>& entries) {
  std::ofstream out(cfg.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
    return;
  }
  // hw_concurrency keys the interpretation: overlap speedup of two
  // concurrent jobs cannot exceed 1.0 on a single hardware thread, no
  // matter how well the scheduler interleaves them. Below two hardware
  // threads every parallel measurement in this file degenerates to a
  // context-switch benchmark, so the report brands itself untrusted —
  // downstream tooling must not regress-gate on those numbers.
  const unsigned hw = std::thread::hardware_concurrency();
  const kc::exec::Topology& topo = kc::exec::topology();
  out << "{\n  \"bench\": \"exec\",\n  \"threads\": " << cfg.threads
      << ",\n  \"hw_concurrency\": " << hw
      << ",\n  \"topology\": {\"nodes\": " << topo.nodes
      << ", \"cores\": " << topo.cores
      << ", \"hw_threads\": " << topo.hw_threads
      << ", \"restricted\": " << (topo.restricted ? "true" : "false")
      << "}";
  if (hw < 2) out << ",\n  \"untrusted\": true";
  // Tooling provenance: which static-analysis frontend gated the tree
  // this build ("plugin" = kc-* clang-tidy module, "extractor" = the
  // Python lock-order fallback, "unknown" = no configure stamp found,
  // e.g. the binary ran outside its build directory).
  const AnalysisStatus analysis =
      read_analysis_status(cfg.analysis_status_path);
  out << ",\n  \"tooling\": {\"analysis\": \""
      << (!analysis.stamp_found
              ? "unknown"
              : analysis.plugin_available ? "plugin" : "extractor");
  out << "\"";
  if (analysis.stamp_found) {
    out << ", \"llvm_version\": \"" << analysis.llvm_version
        << "\", \"check_count\": " << analysis.check_count;
  }
  out << "}";
  out << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "    {\"name\": \"" << entries[i].name
        << "\", \"value\": " << entries[i].value << ", \"unit\": \""
        << entries[i].unit << "\"}" << (i + 1 < entries.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", cfg.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      cfg.json_path = arg.substr(7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      cfg.threads = std::max(1, std::atoi(arg.substr(10).c_str()));
    } else if (arg.rfind("--reps=", 0) == 0) {
      cfg.reps = std::max(1, std::atoi(arg.substr(7).c_str()));
    } else if (arg.rfind("--analysis-status=", 0) == 0) {
      cfg.analysis_status_path = arg.substr(18);
    } else if (arg == "--quick") {
      cfg.quick = true;
      cfg.reps = std::min(cfg.reps, 2);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const kc::exec::Topology& topo = kc::exec::topology();
  std::printf("hardware threads: %u   pool threads: %d   nodes: %d%s\n",
              hw, cfg.threads, topo.nodes,
              hw < 2 ? "   [UNTRUSTED: parallel timings are meaningless "
                       "below 2 hardware threads]"
                     : "");

  std::vector<Entry> entries;
  bench_dispatch(cfg, entries);
  bench_steals(cfg, entries);
  bench_overlap(cfg, entries);
  if (!cfg.json_path.empty()) write_json(cfg, entries);
  return 0;
}
