// PruneMode::Auto's price list: what the grid index costs to build and
// what it saves, per point, and whether Auto's rule (api::builds_index)
// picks the faster path end to end.
//
//   bench_auto_prune [--n=10000,100000,1000000] [--k=25,100,400]
//                    [--dim=2] [--data=gau,unif] [--algos=gon,mrg,ccm,eim]
//                    [--prices-only] [--quick]
//
// Everything runs on the Sequential backend. Part 1 prices the grid on
// each (dim, data, n, k): the index build, GON's k sweeps on an oracle
// without and with the index, and the offline evaluation of GON's
// centers without and with it. The savings are reported per point and
// per sweep or per center, next to the k at which the grid breaks even
// for GON (the build over one sweep's plus one center's saving) and for
// an entry that declares no sweeps (the build over one center's
// saving), the figures kAutoPruneBreakEven (geom/spatial_index.hpp) is
// fitted to. Part 2 times whole Solver::solve calls under Off, Auto and
// On, and says whether Auto built the index.
//
// Every timing repeats until the stopping rule of Vuduc, Demmel and
// Bilmes (SNIPPETS.md, Snippet 1) holds and reports the fastest run:
// after t runs, with w the share of runs within 1.05x of the fastest,
// stop once (1 - w)^t < 0.1, the chance that all t runs missed that
// band, or after 15 runs (3 under --quick). Data and GON's first center
// use seed 1.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/gonzalez.hpp"
#include "api/registry.hpp"
#include "api/solver.hpp"
#include "common.hpp"
#include "data/generators.hpp"
#include "eval/evaluate.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kAlpha = 0.1;
constexpr double kEpsilon = 0.05;
constexpr std::uint64_t kSeed = 1;

/// Fastest of the runs `body` takes under the stopping rule, at most
/// `max_reps` of them, in seconds.
double fastest(std::size_t max_reps, const std::function<void()>& body) {
  std::vector<double> runs;
  while (runs.size() < max_reps) {
    const auto start = Clock::now();
    body();
    runs.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    if (runs.size() < 3) continue;
    const double best = *std::min_element(runs.begin(), runs.end());
    const auto near = std::count_if(runs.begin(), runs.end(), [&](double t) {
      return t <= best * (1.0 + kEpsilon);
    });
    const double t = static_cast<double>(runs.size());
    if (std::pow(1.0 - static_cast<double>(near) / t, t) < kAlpha) break;
  }
  return *std::min_element(runs.begin(), runs.end());
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t end = std::min(list.find(',', start), list.size());
    if (end > start) out.push_back(list.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

kc::PointSet make_points(const std::string& data, std::size_t n,
                         std::size_t dim) {
  kc::Rng rng(kSeed);
  if (data == "gau") {
    return kc::data::generate_gau(n, 25, dim, 100.0, 0.1, rng);
  }
  if (data == "unif") return kc::data::generate_unif(n, dim, 100.0, rng);
  throw std::invalid_argument("--data: unknown data set '" + data +
                              "' (known: gau, unif)");
}

std::string ms(double seconds) {
  return kc::harness::format_sig(seconds * 1e3);
}

/// Nanoseconds per point and per unit (sweep or center) of a saving.
double ns_per(double saved_s, std::size_t n, std::size_t units) {
  return saved_s * 1e9 / static_cast<double>(n) / static_cast<double>(units);
}

std::string break_even(double build_ns, double saving_ns) {
  return saving_ns > 0.0 ? std::to_string(static_cast<long long>(
                               std::ceil(build_ns / saving_ns)))
                         : "never";
}

void run(kc::cli::Args& args) {
  const bool quick = args.flag("quick");
  const auto ns = args.size_list(
      "n", quick ? std::vector<std::size_t>{20'000}
                 : std::vector<std::size_t>{10'000, 100'000, 1'000'000});
  const auto ks = args.size_list(
      "k", quick ? std::vector<std::size_t>{25}
                 : std::vector<std::size_t>{25, 100, 400});
  const auto dims = args.size_list("dim", {2});
  const auto datas = split_list(args.str("data").value_or("gau,unif"));
  const auto algos = split_list(args.str("algos").value_or("gon,mrg,ccm,eim"));
  const std::size_t max_reps = quick ? 3 : 15;
  const bool prices_only = args.flag("prices-only");
  kc::cli::reject_unknown_flags(args);
  for (const std::string& algo : algos) {
    if (kc::api::registry().find(algo) == nullptr) {
      throw std::invalid_argument("--algos: unknown algorithm '" + algo + "'");
    }
  }

  std::printf(
      "Auto prune prices: Sequential, fastest run under the stopping rule "
      "(at most %zu runs)\n\n",
      max_reps);
  kc::harness::Table prices(
      {"dim", "data", "n", "k", "build ms", "gon off/on ms", "eval off/on ms",
       "build ns/pt", "sweep ns/pt", "center ns/pt", "gon b-e k",
       "eval b-e k"});
  kc::harness::Table solves({"dim", "data", "n", "k", "algo", "off ms",
                             "auto ms", "on ms", "auto builds"});
  const auto backend = std::make_shared<kc::exec::SequentialBackend>();

  for (const std::size_t dim : dims) {
    for (const std::string& data : datas) {
      for (const std::size_t n : ns) {
        const kc::PointSet points = make_points(data, n, dim);
        const std::vector<kc::index_t> all = points.all_indices();
        const double build_s =
            fastest(max_reps, [&] { const kc::SpatialIndex index(points); });
        const kc::SpatialIndex index(points);
        kc::DistanceOracle off(points);
        off.bind_executor(backend.get());
        kc::DistanceOracle on(points);
        on.bind_executor(backend.get());
        on.bind_index(&index, kc::PruneMode::On);
        for (const std::size_t k : ks) {
          if (k > n) continue;
          kc::GonzalezOptions options;
          options.first = kc::GonzalezOptions::FirstCenter::Random;
          options.seed = kSeed;
          const std::vector<kc::index_t> centers =
              kc::gonzalez(off, all, k, options).centers;
          const double gon_off = fastest(
              max_reps, [&] { (void)kc::gonzalez(off, all, k, options); });
          const double gon_on = fastest(
              max_reps, [&] { (void)kc::gonzalez(on, all, k, options); });
          const double eval_off = fastest(max_reps, [&] {
            (void)kc::eval::covering_radius(off, all, centers);
          });
          const double eval_on = fastest(max_reps, [&] {
            (void)kc::eval::covering_radius(on, all, centers);
          });
          const double build_ns = ns_per(build_s, n, 1);
          const double sweep_ns = ns_per(gon_off - gon_on, n, k);
          const double center_ns = ns_per(eval_off - eval_on, n, k);
          prices.add_row({std::to_string(dim), data, std::to_string(n),
                          std::to_string(k), ms(build_s),
                          ms(gon_off) + "/" + ms(gon_on),
                          ms(eval_off) + "/" + ms(eval_on),
                          kc::harness::format_sig(build_ns),
                          kc::harness::format_sig(sweep_ns),
                          kc::harness::format_sig(center_ns),
                          break_even(build_ns, sweep_ns + center_ns),
                          break_even(build_ns, center_ns)});
          if (prices_only) continue;
          for (const std::string& algo : algos) {
            kc::api::SolveRequest request;
            request.points = &points;
            request.k = k;
            request.algorithm = algo;
            request.seed = kSeed;
            kc::api::Solver solver(backend);
            std::vector<double> seconds;
            for (const kc::PruneMode mode :
                 {kc::PruneMode::Off, kc::PruneMode::Auto, kc::PruneMode::On}) {
              request.prune = mode;
              seconds.push_back(
                  fastest(max_reps, [&] { (void)solver.solve(request); }));
            }
            request.prune = kc::PruneMode::Auto;
            const bool builds = kc::api::builds_index(
                *kc::api::registry().find(algo), request);
            solves.add_row({std::to_string(dim), data, std::to_string(n),
                            std::to_string(k), algo, ms(seconds[0]),
                            ms(seconds[1]), ms(seconds[2]),
                            builds ? "yes" : "no"});
          }
        }
        std::fflush(stdout);
      }
    }
  }
  std::printf("%s\n", prices.to_string().c_str());
  if (!prices_only) std::printf("%s", solves.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
