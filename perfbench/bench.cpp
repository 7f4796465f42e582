#include "bench.hpp"

#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

MemFile::MemFile(const char* name) : fd_(memfd_create(name, MFD_CLOEXEC)) {
  if (fd_ < 0) throw std::runtime_error("memfd_create failed");
  path_ = "/proc/self/fd/" + std::to_string(fd_);
}

MemFile::~MemFile() { close(fd_); }

std::uint64_t MemFile::size() const {
  struct stat st {};
  if (fstat(fd_, &st) != 0) throw std::runtime_error("fstat on memfd failed");
  return static_cast<std::uint64_t>(st.st_size);
}

void MemFile::append(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = write(fd_, bytes.data(), bytes.size());
    if (n <= 0) throw std::runtime_error("write to memfd failed");
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void MemFile::read_at(std::uint64_t offset, std::size_t length,
                      std::string& out) const {
  out.resize(length);
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = pread(fd_, out.data() + done, length - done,
                            static_cast<off_t>(offset + done));
    if (n <= 0) throw std::runtime_error("read from memfd failed");
    done += static_cast<std::size_t>(n);
  }
}

double timed_setups(const std::function<void()>& setup) {
  // All but the last set-up run in a forked child, so each starts from a
  // fresh process as the kept one does and none of them leaves freed
  // memory behind to raise this process's VmHWM. The process has no
  // threads yet, so forking is safe.
  std::vector<double> times;
  for (int i = 0; i + 1 < kSetups; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    const pid_t child = fork();
    if (child < 0) throw std::runtime_error("fork failed");
    if (child == 0) {
      close(fds[0]);
      int code = 1;
      try {
        const double start = now_s();
        setup();
        const double elapsed = now_s() - start;
        const bool sent =
            write(fds[1], &elapsed, sizeof elapsed) == sizeof elapsed;
        code = sent ? 0 : 1;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      }
      _exit(code);  // the kernel reclaims the child's threads and memory
    }
    close(fds[1]);
    double elapsed = 0.0;
    const bool got = read(fds[0], &elapsed, sizeof elapsed) == sizeof elapsed;
    close(fds[0]);
    int status = 0;
    waitpid(child, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up in a child process failed");
    }
    times.push_back(elapsed);
  }
  const double start = now_s();
  setup();
  times.push_back(now_s() - start);
  return median(times);
}

bool same_solution(const kc::api::SolveReport& a,
                   const kc::api::SolveReport& b) {
  return !a.centers.empty() && a.centers == b.centers &&
         std::memcmp(&a.value, &b.value, sizeof a.value) == 0;
}

void add(Result& result, std::string name, double value, std::string unit) {
  result.metrics.push_back({std::move(name), value, std::move(unit)});
}

std::vector<double> walls(const std::vector<OpSample>& ops) {
  std::vector<double> out;
  for (const OpSample& op : ops) out.push_back(op.wall_s);
  return out;
}

void add_end_to_end(Result& result, const std::vector<double>& op_walls,
                    double timed_wall_s, double timed_cpu_s, double setup_s,
                    double ratio, double peak_mb) {
  const auto n = static_cast<double>(op_walls.size());
  add(result, "op_p50_s", median(op_walls), "s");
  add(result, "ops_per_s", n / timed_wall_s, "1/s");
  add(result, "cpu_per_op_s", timed_cpu_s / n, "s");
  add(result, "approx_ratio", ratio, "ratio");
  add(result, "peak_rss_mb", peak_mb, "MB");
  add(result, "setup_s", setup_s, "s");
  std::fprintf(stderr, "perfbench: %zu ops, %llu failed\n", op_walls.size(),
               static_cast<unsigned long long>(result.failed));
}

RoundTotals round_totals(const kc::mr::JobTrace& trace) {
  RoundTotals totals;
  for (const kc::mr::RoundStats& round : trace.rounds()) {
    totals.wall_s += round.wall_seconds;
    totals.max_machine_s += round.max_machine_seconds;
    totals.mean_machine_s +=
        round.total_machine_seconds / std::max(round.machines_used, 1);
    totals.shuffle_items += round.shuffle_items;
    ++totals.rounds;
  }
  return totals;
}

void lay_out_solve(std::vector<Span>& spans, std::size_t solve,
                   const kc::api::SolveReport& report, double radius_s) {
  const Span parent = spans.at(solve);
  const double eval_start = parent.end - radius_s;
  const double algo_start = eval_start - report.wall_seconds;
  const int parent_index = static_cast<int>(solve);
  spans.push_back({"eval.radius", parent.op, parent_index, eval_start,
                   parent.end, true});
  const int algo = static_cast<int>(spans.size());
  spans.push_back({"api.algorithm", parent.op, parent_index, algo_start,
                   eval_start, true});
  double round_start = algo_start;
  for (const kc::mr::RoundStats& round : report.trace.rounds()) {
    spans.push_back({"mapreduce.round", parent.op, algo, round_start,
                     round_start + round.wall_seconds, true});
    round_start += round.wall_seconds;
  }
}

double unattributed_share(const std::vector<Span>& spans) {
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    if (spans[s].parent != -1 || spans[s].name != "op") continue;
    total += spans[s].duration();
    uncovered += self_time(spans, s);
  }
  return share(uncovered, total);
}

}  // namespace perfbench
