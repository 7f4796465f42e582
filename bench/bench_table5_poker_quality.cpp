// Table 5: solution value over k for the POKER HAND data set (25,010
// training rows, 10 integer attributes). By default the surrogate
// generator draws 25,010 uniform 5-card hands (see
// src/data/surrogates.hpp); pass --poker-file=PATH to run on the
// genuine UCI file instead (the class column is dropped automatically).
//
// Expected shape (paper): values decay gently from ~19 at k=2 to ~8.5
// at k=100 (hand space is near-uniform, diameter ~27.7); the three
// algorithms stay within ~5% of each other.
#include "common.hpp"

#include "data/loader.hpp"

namespace {

using namespace kcb;

void run(kc::cli::Args& args) {
  // Real data protocol: four runs averaged (§7.3).
  BenchOptions options = parse_common(args, /*default_graphs=*/1,
                                      /*default_runs=*/4, 1, 4);
  consume_algo_filter(args, options);
  const auto poker_file = args.str("poker-file");
  const std::size_t n =
      args.size("n", options.quick ? 5'000 : kc::data::kPokerHandRows);
  const auto ks = args.size_list("k", paper_k_sweep());
  reject_unknown_flags(args);
  print_banner("Table 5",
               std::string("Solution value over k, POKER HAND (25,010 hands, "
                           "10 attributes); source: ") +
                   (poker_file ? *poker_file : "uniform-hand surrogate"),
               options);

  kc::PointSet hands = [&] {
    if (poker_file) {
      kc::data::CsvOptions csv;
      csv.drop_last_column = true;  // the class label
      csv.max_rows = n;
      return kc::data::load_numeric_csv(*poker_file, csv);
    }
    kc::Rng rng(options.seed);
    return kc::data::poker_hand_surrogate(n, rng);
  }();

  const auto pool = DatasetPool::wrap(std::move(hands));
  quality_table("table5", pool, ks, standard_algos(options), options,
                /*paper_table=*/5);
}

}  // namespace

int main(int argc, char** argv) { return kcb::bench_main(argc, argv, run); }
