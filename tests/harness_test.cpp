#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cli/args.hpp"
#include "harness/experiment.hpp"
#include "harness/format.hpp"
#include "harness/paper_ref.hpp"
#include "harness/table.hpp"
#include "test_util.hpp"

namespace kc::harness {
namespace {

// ---------------------------------------------------------------- format

TEST(Format, SignificantDigitsMatchPaperStyle) {
  EXPECT_EQ(format_sig(96.04), "96.04");
  EXPECT_EQ(format_sig(0.961), "0.961");
  EXPECT_EQ(format_sig(8.764), "8.764");
  EXPECT_EQ(format_sig(61.9), "61.9");
  EXPECT_EQ(format_sig(41.31), "41.31");
}

TEST(Format, LargeAndTinyGoScientific) {
  EXPECT_EQ(format_sig(1.234e9), "1.234e+09");
  EXPECT_EQ(format_sig(1.2e-8), "1.2e-08");
}

TEST(Format, SubTenthKeepsSignificantDigits) {
  EXPECT_EQ(format_sig(0.05, 2), "0.05");
  EXPECT_EQ(format_sig(0.15, 2), "0.15");
  EXPECT_EQ(format_sig(0.00123, 3), "0.00123");
  EXPECT_EQ(format_sig(-0.05, 2), "-0.05");
}

TEST(Format, ZeroAndSpecials) {
  EXPECT_EQ(format_sig(0.0), "0");
  EXPECT_EQ(format_sig(std::nan("")), "nan");
  EXPECT_EQ(format_sig(std::numeric_limits<double>::infinity()), "inf");
}

TEST(Format, SecondsBands) {
  EXPECT_EQ(format_seconds(123.456), "123.5");
  EXPECT_EQ(format_seconds(1.5), "1.500");
  EXPECT_EQ(format_seconds(0.00123), "1.23e-03");
}

TEST(Format, CountGrouping) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedColumns) {
  Table t({"k", "MRG", "EIM"});
  t.add_row({"2", "96.04", "93.11"});
  t.add_row({"100", "0.607", "0.556"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("k"), std::string::npos);
  EXPECT_NE(s.find("96.04"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, WritesCsv) {
  const auto path =
      (std::filesystem::temp_directory_path() / "kc_table_test.csv").string();
  Table t({"k", "value"});
  t.add_row({"2", "96.04"});
  t.add_row({"5", "61.90"});
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,value");
  std::getline(in, line);
  EXPECT_EQ(line, "2,96.04");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------- args

TEST(Args, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--full", "--n=5000", "--phi=2.5",
                        "--k=2,5,10", "positional"};
  cli::Args args(6, argv);
  EXPECT_TRUE(args.flag("full"));
  EXPECT_FALSE(args.flag("quick"));
  EXPECT_EQ(args.size("n", 0), 5000u);
  EXPECT_DOUBLE_EQ(args.real("phi", 0.0), 2.5);
  EXPECT_EQ(args.size_list("k", {}),
            (std::vector<std::size_t>{2, 5, 10}));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Args, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  cli::Args args(1, argv);
  EXPECT_EQ(args.integer("m", 50), 50);
  EXPECT_EQ(args.size_list("k", {2, 5}), (std::vector<std::size_t>{2, 5}));
  EXPECT_FALSE(args.str("csv").has_value());
}

TEST(Args, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc", "--phi=xyz"};
  cli::Args args(3, argv);
  EXPECT_THROW((void)args.integer("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.real("phi", 0.0), std::invalid_argument);

  // A number followed by junk, a negative list entry, and int-valued
  // flags outside int.
  const char* junk[] = {"prog", "--n=25x", "--phi=8abc", "--k=2,-1",
                        "--threads=4294967297", "--machines=4294967298"};
  cli::Args partial(6, junk);
  EXPECT_THROW((void)partial.integer("n", 0), std::invalid_argument);
  EXPECT_THROW((void)partial.size("n", 0), std::invalid_argument);
  EXPECT_THROW((void)partial.real("phi", 0.0), std::invalid_argument);
  EXPECT_THROW((void)partial.size_list("k", {}), std::invalid_argument);
  EXPECT_THROW((void)cli::exec_threads(partial), std::invalid_argument);
  EXPECT_THROW((void)partial.int_value("machines", 50), std::invalid_argument);
  EXPECT_EQ(partial.integer("machines", 50), 4294967298);
}

TEST(Args, TracksUnconsumedFlags) {
  const char* argv[] = {"prog", "--used", "--typo=1"};
  cli::Args args(3, argv);
  (void)args.flag("used");
  const auto leftover = args.unconsumed();
  ASSERT_EQ(leftover.size(), 1u);
  EXPECT_EQ(leftover[0], "typo");
}

TEST(Args, NegativeSizeRejected) {
  const char* argv[] = {"prog", "--n=-5"};
  cli::Args args(2, argv);
  EXPECT_THROW((void)args.size("n", 0), std::invalid_argument);
}

// ---------------------------------------------------------------- paper_ref

TEST(PaperRef, TablesHaveSixRowsEach) {
  EXPECT_EQ(paper_table2().size(), 6u);
  EXPECT_EQ(paper_table3().size(), 6u);
  EXPECT_EQ(paper_table4().size(), 6u);
  EXPECT_EQ(paper_table5().size(), 6u);
  EXPECT_EQ(paper_table6().size(), 6u);
  EXPECT_EQ(paper_table7().size(), 6u);
}

TEST(PaperRef, SpotChecksAgainstPaperText) {
  EXPECT_DOUBLE_EQ(*paper_value(2, 25, "MRG"), 0.961);
  EXPECT_DOUBLE_EQ(*paper_value(3, 100, "GON"), 8.727);
  EXPECT_DOUBLE_EQ(*paper_value(4, 2, "EIM"), 93.69);
  EXPECT_DOUBLE_EQ(*paper_value(5, 50, "EIM"), 9.418);
  EXPECT_DOUBLE_EQ(*paper_value(6, 100, "1"), 0.478);
  EXPECT_DOUBLE_EQ(*paper_value(7, 100, "8"), 3.59);
}

TEST(PaperRef, UnknownCellsReturnNullopt) {
  EXPECT_FALSE(paper_value(2, 3, "MRG").has_value());
  EXPECT_FALSE(paper_value(2, 2, "XYZ").has_value());
  EXPECT_FALSE(paper_value(99, 2, "MRG").has_value());
}

TEST(PaperRef, QualityTablesShowMrgFastestStoryline) {
  // Sanity on transcription: at k = k' = 25 on GAU (Table 2), all
  // three algorithms collapse to sub-1 values (they find the planted
  // clusters), two orders of magnitude below k = 10.
  for (const auto& row : paper_table2()) {
    if (row.k == 10) {
      EXPECT_GT(row.mrg, 30.0);
    }
    if (row.k == 25) {
      EXPECT_LT(row.mrg, 1.0);
      EXPECT_LT(row.eim, 1.0);
      EXPECT_LT(row.gon, 1.0);
    }
  }
}

TEST(PaperRef, Table7RuntimesIncreaseWithPhi) {
  // The headline of the trade-off: phi=1 is consistently faster than
  // phi=8 for k >= 10 in the paper's measurements.
  for (const auto& row : paper_table7()) {
    if (row.k >= 10) {
      EXPECT_LT(row.phi1, row.phi8);
    }
  }
}

// ---------------------------------------------------------------- experiment

TEST(Experiment, RunAlgorithmProducesEvaluatedResult) {
  const PointSet ps = test::small_gaussian_instance(5, 200, 1);
  AlgoConfig config;
  config.kind = AlgoKind::MRG;
  config.machines = 5;
  const auto run = run_algorithm(config, ps, 5, 7);
  EXPECT_EQ(run.centers.size(), 5u);
  EXPECT_GT(run.value, 0.0);
  EXPECT_GT(run.dist_evals, 0u);
  EXPECT_EQ(run.map_reduce_rounds, 2);
  EXPECT_GE(run.wall_seconds, run.sim_seconds * 0.5);  // sim <= wall-ish
}

TEST(Experiment, GonHasNoRounds) {
  const PointSet ps = test::small_gaussian_instance(4, 100, 2);
  AlgoConfig config;
  config.kind = AlgoKind::GON;
  const auto run = run_algorithm(config, ps, 4, 7);
  EXPECT_EQ(run.map_reduce_rounds, 0);
  EXPECT_DOUBLE_EQ(run.sim_seconds, run.wall_seconds);
}

TEST(Experiment, EimReportsSamplingState) {
  const PointSet ps = test::small_gaussian_instance(10, 3000, 3);
  AlgoConfig config;
  config.kind = AlgoKind::EIM;
  config.machines = 10;
  const auto run = run_algorithm(config, ps, 10, 7);
  EXPECT_TRUE(run.eim_sampled);
  EXPECT_GT(run.eim_iterations, 0);
}

TEST(Experiment, AggregateAveragesRuns) {
  std::vector<RunResult> results(2);
  results[0].value = 10.0;
  results[0].sim_seconds = 1.0;
  results[0].map_reduce_rounds = 2;
  results[1].value = 20.0;
  results[1].sim_seconds = 3.0;
  results[1].map_reduce_rounds = 4;
  const auto agg = Aggregate::of(results);
  EXPECT_DOUBLE_EQ(agg.value, 15.0);
  EXPECT_DOUBLE_EQ(agg.sim_seconds, 2.0);
  EXPECT_DOUBLE_EQ(agg.map_reduce_rounds, 3.0);
  EXPECT_EQ(agg.runs, 2);
}

TEST(Experiment, DatasetPoolIsSeedDeterministic) {
  const auto gen = [](Rng& rng) {
    return data::generate_unif(100, 2, 10.0, rng);
  };
  const auto a = DatasetPool::make(gen, 3, 5);
  const auto b = DatasetPool::make(gen, 3, 5);
  ASSERT_EQ(a.num_graphs(), 3);
  for (int g = 0; g < 3; ++g) {
    for (index_t i = 0; i < 100; ++i) {
      EXPECT_EQ(a.graph(g)[i][0], b.graph(g)[i][0]);
    }
  }
  // Different graphs within a pool differ.
  EXPECT_NE(a.graph(0)[0][0], a.graph(1)[0][0]);
}

TEST(Experiment, RunRepeatedHonorsProtocol) {
  // 3 graphs x 2 runs = the paper's six results per synthetic config.
  const auto pool = DatasetPool::make(
      [](Rng& rng) { return data::generate_gau(800, 4, 2, 100.0, 0.5, rng); },
      3, 11);
  AlgoConfig config;
  config.kind = AlgoKind::MRG;
  config.machines = 4;
  const auto agg = run_repeated(config, pool, 4, 2, 13);
  EXPECT_EQ(agg.runs, 6);
  EXPECT_GT(agg.value, 0.0);
}

TEST(Experiment, AlgoKindNames) {
  EXPECT_EQ(to_string(AlgoKind::GON), "GON");
  EXPECT_EQ(to_string(AlgoKind::MRG), "MRG");
  EXPECT_EQ(to_string(AlgoKind::EIM), "EIM");
  AlgoConfig config;
  config.kind = AlgoKind::EIM;
  EXPECT_EQ(config.display_label(), "EIM");
  config.label = "EIM(phi=4)";
  EXPECT_EQ(config.display_label(), "EIM(phi=4)");
}

}  // namespace
}  // namespace kc::harness
