// Ablation: the sequential subroutine inside MRG -- GON vs
// Hochbaum-Shmoys (the paper's closing question: "It would be
// interesting to compare with similar adaptations of alternative
// sequential algorithms, such as that of Hochbaum & Shmoys", §9).
//
// Lemma 1's argument only needs the inner algorithm to be a
// 2-approximation, so MRG(HS) keeps the 4-approximation in two rounds.
// HS costs O(N^2 log N) per reducer against GON's O(kN), so it is only
// viable when n/m is small; the sweep reports both quality and the
// per-round cost blow-up.
#include "common.hpp"

namespace {

using namespace kcb;

void run(kc::cli::Args& args) {
  BenchOptions options = parse_common(args);
  const std::size_t n = args.size("n", options.pick(10'000, 50'000, 100'000));
  const auto ks = args.size_list("k", {5, 10, 25, 50});
  reject_unknown_flags(args);
  print_banner("Ablation: inner algorithm",
               "MRG with GON vs HS reducers, GAU (n=" + std::to_string(n) +
                   ", k'=25)",
               options);

  kc::Rng rng(options.seed);
  const kc::PointSet data = kc::data::generate_gau(n, 25, 2, 100.0, 0.1, rng);
  const kc::DistanceOracle oracle(data);
  const auto all = data.all_indices();

  kc::harness::Table table({"k", "MRG(GON) value", "MRG(HS) value",
                            "GON time (s)", "HS time (s)", "HS/GON time"});
  for (const std::size_t k : ks) {
    const kc::mr::SimCluster cluster(options.machines,
                                     options.resolve_backend());

    kc::MrgOptions gon_inner;
    gon_inner.seed = options.seed;
    const auto with_gon = kc::mrg(oracle, all, k, cluster, gon_inner);

    kc::MrgOptions hs_inner;
    hs_inner.seed = options.seed;
    hs_inner.inner = kc::SeqAlgo::HochbaumShmoys;
    hs_inner.final_algo = kc::SeqAlgo::HochbaumShmoys;
    const auto with_hs = kc::mrg(oracle, all, k, cluster, hs_inner);

    const double value_gon =
        kc::eval::covering_radius(oracle, all, with_gon.centers).radius;
    const double value_hs =
        kc::eval::covering_radius(oracle, all, with_hs.centers).radius;
    const double t_gon = with_gon.trace.simulated_seconds();
    const double t_hs = with_hs.trace.simulated_seconds();
    table.add_row({std::to_string(k), kc::harness::format_sig(value_gon),
                   kc::harness::format_sig(value_hs),
                   kc::harness::format_seconds(t_gon),
                   kc::harness::format_seconds(t_hs),
                   kc::harness::format_sig(t_hs / t_gon, 3)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "(HS often returns slightly tighter radii -- it optimizes the\n"
      " threshold directly -- but pays a large quadratic per-reducer cost;\n"
      " GON's greedy is the practical choice, as the paper assumes)\n");
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
