#include "harness/gnuplot.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace kc::harness {
namespace {

PlotSpec titled(std::string title) {
  PlotSpec spec;
  spec.title = std::move(title);
  return spec;
}

class GnuplotTest : public ::testing::Test {
 protected:
  // One base path per test: ctest runs the tests of this fixture as
  // parallel processes, which must not write and delete each other's
  // files.
  std::filesystem::path base_ =
      std::filesystem::temp_directory_path() /
      (std::string("kc_gnuplot_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  void TearDown() override {
    std::filesystem::remove(base_.string() + ".dat");
    std::filesystem::remove(base_.string() + ".plt");
  }
  static std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
};

TEST_F(GnuplotTest, WritesDatWithHeaderAndRows) {
  Table t({"k", "MRG (s)", "GON (s)"});
  t.add_row({"2", "0.001", "0.01"});
  t.add_row({"100", "0.003", "0.07"});
  write_gnuplot(t, base_.string(), titled("fig"));
  const std::string dat = slurp(base_.string() + ".dat");
  EXPECT_NE(dat.find("# k MRG (s) GON (s)"), std::string::npos);
  EXPECT_NE(dat.find("2 0.001 0.01"), std::string::npos);
  EXPECT_NE(dat.find("100 0.003 0.07"), std::string::npos);
}

TEST_F(GnuplotTest, NonNumericCellsBecomeNan) {
  Table t({"k", "value", "sampled?"});
  t.add_row({"2", "1.5", "yes"});
  write_gnuplot(t, base_.string(), titled("fig"));
  const std::string dat = slurp(base_.string() + ".dat");
  EXPECT_NE(dat.find("2 1.5 nan"), std::string::npos);
}

TEST_F(GnuplotTest, ScriptPlotsEverySeriesWithLogAxis) {
  Table t({"k", "a", "b"});
  t.add_row({"1", "2", "3"});
  PlotSpec spec;
  spec.title = "paper fig";
  spec.log_y = true;
  write_gnuplot(t, base_.string(), spec);
  const std::string plt = slurp(base_.string() + ".plt");
  EXPECT_NE(plt.find("set logscale y"), std::string::npos);
  EXPECT_NE(plt.find("using 1:2"), std::string::npos);
  EXPECT_NE(plt.find("using 1:3"), std::string::npos);
  EXPECT_NE(plt.find("\"paper fig\""), std::string::npos);
  EXPECT_NE(plt.find(base_.string() + ".png"), std::string::npos);
}

TEST_F(GnuplotTest, SeriesSubsetSelection) {
  Table t({"k", "a", "b", "c"});
  t.add_row({"1", "2", "3", "4"});
  PlotSpec spec;
  spec.title = "subset";
  spec.series = {2};  // only column "b"
  write_gnuplot(t, base_.string(), spec);
  const std::string plt = slurp(base_.string() + ".plt");
  EXPECT_EQ(plt.find("using 1:2,"), std::string::npos);
  EXPECT_NE(plt.find("using 1:3"), std::string::npos);
  EXPECT_EQ(plt.find("using 1:4"), std::string::npos);
}

TEST_F(GnuplotTest, RejectsSingleColumnTable) {
  Table t({"only_x"});
  EXPECT_THROW(write_gnuplot(t, base_.string(), titled("x")),
               std::invalid_argument);
}

TEST_F(GnuplotTest, RejectsUnwritablePath) {
  Table t({"k", "v"});
  t.add_row({"1", "2"});
  EXPECT_THROW(
      write_gnuplot(t, "/nonexistent_dir/plot", titled("x")),
      std::runtime_error);
}

}  // namespace
}  // namespace kc::harness
