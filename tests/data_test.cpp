#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "algo/brute_force.hpp"
#include "algo/gonzalez.hpp"
#include "data/generators.hpp"
#include "data/loader.hpp"
#include "data/planted.hpp"
#include "data/surrogates.hpp"
#include "eval/evaluate.hpp"
#include "geom/distance.hpp"

namespace kc::data {
namespace {

// ---------------------------------------------------------------- UNIF

TEST(Unif, PointsStayInCube) {
  Rng rng(1);
  const PointSet ps = generate_unif(5000, 3, 50.0, rng);
  EXPECT_EQ(ps.size(), 5000u);
  EXPECT_EQ(ps.dim(), 3u);
  for (index_t i = 0; i < ps.size(); ++i) {
    for (const double c : ps[i]) {
      EXPECT_GE(c, 0.0);
      EXPECT_LT(c, 50.0);
    }
  }
}

TEST(Unif, CoordinatesFillTheCube) {
  Rng rng(2);
  const PointSet ps = generate_unif(20000, 2, 100.0, rng);
  double mean_x = 0.0;
  for (index_t i = 0; i < ps.size(); ++i) mean_x += ps[i][0];
  mean_x /= static_cast<double>(ps.size());
  EXPECT_NEAR(mean_x, 50.0, 1.5);
}

TEST(Unif, RejectsZeroPoints) {
  Rng rng(3);
  EXPECT_THROW((void)generate_unif(0, 2, 1.0, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- GAU

TEST(Gau, HasRequestedShape) {
  Rng rng(4);
  const PointSet ps = generate_gau(10000, 25, 2, 100.0, 0.1, rng);
  EXPECT_EQ(ps.size(), 10000u);
  EXPECT_EQ(ps.dim(), 2u);
}

TEST(Gau, PointsConcentrateNearClusterCenters) {
  // With sigma = 0.1 and side = 100, a k'-center solution with k = k'
  // must have a tiny radius compared to the cube: that is the defining
  // property the paper's Tables 2/4 exhibit (values drop ~40x at k=k').
  Rng rng(5);
  const std::size_t kPrime = 8;
  const PointSet ps = generate_gau(4000, kPrime, 2, 100.0, 0.1, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  // Gonzalez with k = k' should find every cluster: radius < 2 (vs
  // ~100 for the whole cube).
  const auto result = gonzalez(oracle, all, kPrime);
  EXPECT_LT(oracle.to_reported(result.radius_comparable), 2.0);
}

TEST(Gau, ClusterSizesRoughlyBalanced) {
  Rng rng(6);
  const std::size_t kPrime = 10;
  const PointSet ps = generate_gau(20000, kPrime, 2, 1000.0, 0.1, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, kPrime);
  const auto stats = eval::cluster_stats(oracle, all, gon.centers);
  // Uniform assignment: each cluster ~2000 points; allow generous slack.
  EXPECT_GT(stats.smallest_cluster, 1000u);
  EXPECT_LT(stats.largest_cluster, 4000u);
}

// ---------------------------------------------------------------- UNB

TEST(Unb, HeavyClusterGetsRequestedFraction) {
  Rng rng(7);
  const std::size_t kPrime = 10;
  const PointSet ps =
      generate_unb(20000, kPrime, 2, 1000.0, 0.1, 0.5, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  const auto gon = gonzalez(oracle, all, kPrime);
  const auto stats = eval::cluster_stats(oracle, all, gon.centers);
  // One cluster holds ~half of everything.
  EXPECT_GT(stats.largest_cluster, 9000u);
  EXPECT_LT(stats.largest_cluster, 11000u);
}

TEST(Unb, FractionOneCollapsesToSingleCluster) {
  Rng rng(8);
  const PointSet ps = generate_unb(1000, 5, 2, 1000.0, 0.1, 1.0, rng);
  const DistanceOracle oracle(ps);
  const auto all = ps.all_indices();
  // All points in one Gaussian blob: 1-center radius is tiny.
  const auto gon = gonzalez(oracle, all, 1);
  EXPECT_LT(oracle.to_reported(gon.radius_comparable), 2.0);
}

TEST(Unb, ValidatesFraction) {
  Rng rng(9);
  EXPECT_THROW((void)generate_unb(10, 2, 2, 1.0, 0.1, 1.5, rng),
               std::invalid_argument);
  EXPECT_THROW((void)generate_unb(10, 2, 2, 1.0, 0.1, -0.1, rng),
               std::invalid_argument);
}

// ---------------------------------------------------------------- spec

TEST(SyntheticSpec, DispatchesToAllKinds) {
  for (const auto kind :
       {SyntheticKind::Unif, SyntheticKind::Gau, SyntheticKind::Unb}) {
    SyntheticSpec spec;
    spec.kind = kind;
    spec.n = 500;
    Rng rng(10);
    const PointSet ps = generate(spec, rng);
    EXPECT_EQ(ps.size(), 500u);
    EXPECT_EQ(ps.dim(), 2u);
  }
}

TEST(SyntheticSpec, KindNames) {
  EXPECT_EQ(to_string(SyntheticKind::Unif), "UNIF");
  EXPECT_EQ(to_string(SyntheticKind::Gau), "GAU");
  EXPECT_EQ(to_string(SyntheticKind::Unb), "UNB");
}

TEST(SyntheticSpec, SameSeedSameData) {
  SyntheticSpec spec;
  spec.n = 200;
  Rng r1(11);
  Rng r2(11);
  const PointSet a = generate(spec, r1);
  const PointSet b = generate(spec, r2);
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i][0], b[i][0]);
    EXPECT_EQ(a[i][1], b[i][1]);
  }
}

// ---------------------------------------------------------------- planted

TEST(Planted, ExactOptConstruction) {
  Rng rng(12);
  const auto inst = make_planted(4, 9, 1.0, 10.0, 2, rng);
  EXPECT_EQ(inst.points.size(), 36u);
  EXPECT_EQ(inst.optimal_centers.size(), 4u);
  EXPECT_DOUBLE_EQ(inst.opt_radius, 1.0);

  // The planted centers cover everything at exactly the claimed OPT.
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const auto cover = eval::covering_radius(oracle, all, inst.optimal_centers);
  EXPECT_NEAR(cover.radius, 1.0, 1e-9);
}

TEST(Planted, SatellitesSitAtExactRadius) {
  Rng rng(13);
  const auto inst = make_planted(2, 5, 3.0, 20.0, 3, rng);
  const DistanceOracle oracle(inst.points);
  // Cluster c occupies indices [c*5, (c+1)*5); index c*5 is the site.
  for (index_t c = 0; c < 2; ++c) {
    const index_t site = c * 5;
    for (index_t s = 1; s < 5; ++s) {
      EXPECT_NEAR(oracle.distance(site, site + s), 3.0, 1e-9);
    }
  }
}

TEST(Planted, AntipodalPairsAreDiametrical) {
  Rng rng(14);
  const auto inst = make_planted(1, 7, 2.0, 20.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  // Satellites come in consecutive antipodal pairs after the site.
  for (index_t p = 1; p < 7; p += 2) {
    EXPECT_NEAR(oracle.distance(p, p + 1), 4.0, 1e-9);
  }
}

TEST(Planted, BruteForceConfirmsOptimality) {
  Rng rng(15);
  const auto inst = make_planted(3, 3, 1.5, 10.0, 2, rng);
  const DistanceOracle oracle(inst.points);
  const auto all = inst.points.all_indices();
  const auto opt = brute_force_opt(oracle, all, 3);
  EXPECT_NEAR(oracle.to_reported(opt.radius_comparable), 1.5, 1e-9);
}

TEST(Planted, ValidatesArguments) {
  Rng rng(16);
  EXPECT_THROW((void)make_planted(0, 3, 1.0, 10.0, 2, rng),
               std::invalid_argument);
  EXPECT_THROW((void)make_planted(2, 4, 1.0, 10.0, 2, rng),
               std::invalid_argument);  // even per-cluster count
  EXPECT_THROW((void)make_planted(2, 3, 1.0, 3.0, 2, rng),
               std::invalid_argument);  // separation <= 4r
  EXPECT_THROW((void)make_planted(2, 3, 1.0, 10.0, 1, rng),
               std::invalid_argument);  // dim < 2
}

// ---------------------------------------------------------------- surrogates

TEST(PokerSurrogate, EncodesValidHands) {
  Rng rng(17);
  const PointSet hands = poker_hand_surrogate(2000, rng);
  EXPECT_EQ(hands.size(), 2000u);
  EXPECT_EQ(hands.dim(), kPokerHandDim);
  for (index_t i = 0; i < hands.size(); ++i) {
    const auto h = hands[i];
    std::set<std::pair<int, int>> cards;
    for (int c = 0; c < 5; ++c) {
      const int suit = static_cast<int>(h[2 * c]);
      const int rank = static_cast<int>(h[2 * c + 1]);
      EXPECT_GE(suit, 1);
      EXPECT_LE(suit, 4);
      EXPECT_GE(rank, 1);
      EXPECT_LE(rank, 13);
      cards.insert({suit, rank});
    }
    EXPECT_EQ(cards.size(), 5u) << "hand " << i << " has duplicate cards";
  }
}

TEST(PokerSurrogate, DistanceScaleMatchesPaper) {
  // Table 5's values range ~8.4..19.4; the hand-space diameter is
  // sqrt(5*(3^2+12^2)) ~ 27.7. The surrogate's 2-center value must sit
  // in the same band.
  Rng rng(18);
  const PointSet hands = poker_hand_surrogate(5000, rng);
  const DistanceOracle oracle(hands);
  const auto all = hands.all_indices();
  const auto gon = gonzalez(oracle, all, 2);
  const double value = eval::covering_radius(oracle, all, gon.centers).radius;
  EXPECT_GT(value, 10.0);
  EXPECT_LT(value, 27.7);
}

TEST(KddSurrogate, ShapeAndArchetypeMix) {
  Rng rng(19);
  const PointSet kdd = kdd_cup_surrogate(20000, rng);
  EXPECT_EQ(kdd.size(), 20000u);
  EXPECT_EQ(kdd.dim(), kKddCupDim);

  // The smurf archetype (~57%) pins src_bytes in [520, 1032] with
  // count near 500: check the dominant mode is present.
  std::size_t smurf_like = 0;
  for (index_t i = 0; i < kdd.size(); ++i) {
    const auto f = kdd[i];
    if (f[1] >= 520.0 && f[1] <= 1032.0 && f[19] >= 450.0) ++smurf_like;
  }
  EXPECT_GT(smurf_like, kdd.size() / 2);
  EXPECT_LT(smurf_like, kdd.size() * 7 / 10);
}

TEST(KddSurrogate, ContainsExtremeOutliers) {
  // Figure 1's 10^8..10^9 values at small k require enormous flows.
  Rng rng(20);
  const PointSet kdd = kdd_cup_surrogate(10000, rng);
  double max_src = 0.0;
  for (index_t i = 0; i < kdd.size(); ++i) {
    max_src = std::max(max_src, kdd[i][1]);
  }
  EXPECT_GT(max_src, 1e8);
}

TEST(KddSurrogate, SmallKValuesSpanOrdersOfMagnitude) {
  Rng rng(21);
  const PointSet kdd = kdd_cup_surrogate(20000, rng);
  const DistanceOracle oracle(kdd);
  const auto all = kdd.all_indices();
  const double v2 =
      eval::covering_radius(oracle, all, gonzalez(oracle, all, 2).centers)
          .radius;
  const double v64 =
      eval::covering_radius(oracle, all, gonzalez(oracle, all, 64).centers)
          .radius;
  EXPECT_GT(v2, 1e7);          // dominated by the bulk-transfer outliers
  EXPECT_LT(v64, v2 / 10.0);   // value collapses as k grows (Figure 1)
}

// ---------------------------------------------------------------- loader

class LoaderTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the tests of this fixture as parallel
  // processes, which must not write and delete each other's input.
  std::filesystem::path path_ =
      std::filesystem::temp_directory_path() /
      (std::string("kc_loader_test_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() +
       ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
  void write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }
};

TEST_F(LoaderTest, ParsesPlainNumericCsv) {
  write("1,2,3\n4,5,6\n7,8,9\n");
  const PointSet ps = load_numeric_csv(path_.string());
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps.dim(), 3u);
  EXPECT_EQ(ps[1][2], 6.0);
}

TEST_F(LoaderTest, DropsNonNumericColumns) {
  // KDD-style rows: protocol/service/flag strings are skipped.
  write("0,tcp,http,SF,215,45076\n0,udp,domain,SF,44,133\n");
  const PointSet ps = load_numeric_csv(path_.string());
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 3u);  // duration, src_bytes, dst_bytes
  EXPECT_EQ(ps[0][1], 215.0);
  EXPECT_EQ(ps[1][2], 133.0);
}

TEST_F(LoaderTest, DropLastColumnRemovesLabel) {
  write("1,2,9\n3,4,9\n");
  CsvOptions options;
  options.drop_last_column = true;
  const PointSet ps = load_numeric_csv(path_.string(), options);
  EXPECT_EQ(ps.dim(), 2u);
}

TEST_F(LoaderTest, MaxRowsTruncates) {
  write("1\n2\n3\n4\n5\n");
  CsvOptions options;
  options.max_rows = 3;
  const PointSet ps = load_numeric_csv(path_.string(), options);
  EXPECT_EQ(ps.size(), 3u);
}

TEST_F(LoaderTest, SkipsHeaderAndBlankLines) {
  write("x,y\n\n1,2\n3,4\n");
  const PointSet ps = load_numeric_csv(path_.string());
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 2u);
}

TEST_F(LoaderTest, RejectsInconsistentRows) {
  write("1,2\n3,4,5\n");
  EXPECT_THROW((void)load_numeric_csv(path_.string()), std::runtime_error);
}

TEST_F(LoaderTest, RejectsMissingFile) {
  EXPECT_THROW((void)load_numeric_csv("/nonexistent/file.csv"),
               std::runtime_error);
}

TEST_F(LoaderTest, ValidatesExpectedDim) {
  write("1,2,3\n");
  CsvOptions options;
  options.expect_dim = 4;
  EXPECT_THROW((void)load_numeric_csv(path_.string(), options),
               std::runtime_error);
}

TEST_F(LoaderTest, ReportsReadErrors) {
  // A directory opens but cannot be read.
  const std::string dir = std::filesystem::temp_directory_path().string();
  try {
    (void)load_numeric_csv(dir);
    FAIL() << "loaded a directory";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "load_numeric_csv: cannot read '" + dir + "'");
  }
}

TEST_F(LoaderTest, SaveLoadRoundTrip) {
  Rng rng(22);
  const PointSet original = generate_unif(50, 3, 10.0, rng);
  save_csv(original, path_.string());
  const PointSet loaded = load_numeric_csv(path_.string());
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  for (index_t i = 0; i < original.size(); ++i) {
    for (std::size_t d = 0; d < original.dim(); ++d) {
      EXPECT_DOUBLE_EQ(loaded[i][d], original[i][d]);
    }
  }
}

// The loader before plain decimals took the from_chars fast path: every
// field copied into a std::string and read by strtod. The differential
// tests below hold load_numeric_csv to it, bit for bit and message for
// message.
namespace reference {

void split_numeric(const std::string& line, char delimiter,
                   std::vector<double>& values,
                   std::vector<std::size_t>& numeric_columns) {
  values.clear();
  numeric_columns.clear();
  std::size_t column = 0;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t end = line.find(delimiter, start);
    if (end == std::string::npos) end = line.size();
    const std::string token = line.substr(start, end - start);
    if (!token.empty()) {
      char* parse_end = nullptr;
      const double value = std::strtod(token.c_str(), &parse_end);
      bool fully_numeric = parse_end != token.c_str();
      if (fully_numeric) {
        for (const char* p = parse_end; *p != '\0'; ++p) {
          if (*p != ' ' && *p != '\t' && *p != '\r' && *p != '.') {
            fully_numeric = false;
            break;
          }
        }
      }
      if (fully_numeric) {
        values.push_back(value);
        numeric_columns.push_back(column);
      }
    }
    ++column;
    if (end == line.size()) break;
    start = end + 1;
  }
}

PointSet load_numeric_csv(const std::string& path,
                          const CsvOptions& options = {}) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_numeric_csv: cannot open '" + path + "'");
  }

  std::vector<double> coords;
  std::vector<double> row;
  std::vector<std::size_t> row_columns;
  std::vector<std::size_t> schema;
  std::size_t rows = 0;
  std::size_t dim = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    split_numeric(line, options.delimiter, row, row_columns);
    if (row.empty()) continue;
    if (options.drop_last_column) {
      row.pop_back();
      row_columns.pop_back();
      if (row.empty()) continue;
    }
    if (rows == 0) {
      schema = row_columns;
      dim = row.size();
      if (options.expect_dim && dim != *options.expect_dim) {
        throw std::runtime_error(
            "load_numeric_csv: expected " +
            std::to_string(*options.expect_dim) + " numeric columns, found " +
            std::to_string(dim));
      }
    } else if (row_columns != schema) {
      throw std::runtime_error("load_numeric_csv: inconsistent row " +
                               std::to_string(rows + 1) + " in '" + path + "'");
    }
    coords.insert(coords.end(), row.begin(), row.end());
    ++rows;
    if (options.max_rows != 0 && rows >= options.max_rows) break;
  }
  if (rows == 0) {
    throw std::runtime_error("load_numeric_csv: no numeric rows in '" + path +
                             "'");
  }
  return PointSet(dim, coords);
}

}  // namespace reference

/// What a loader made of a file: its points as bit patterns, or the
/// message of the std::runtime_error it threw.
struct LoadOutcome {
  std::string error;
  std::size_t dim = 0;
  std::vector<std::uint64_t> bits;
  bool operator==(const LoadOutcome&) const = default;
};

template <typename Load>
LoadOutcome outcome_of(const Load& load) {
  LoadOutcome outcome;
  try {
    const PointSet ps = load();
    outcome.dim = ps.dim();
    for (const double c : ps.raw()) {
      outcome.bits.push_back(std::bit_cast<std::uint64_t>(c));
    }
  } catch (const std::runtime_error& e) {
    outcome.error = e.what();
  }
  return outcome;
}

/// Shows a CSV text with its control and non-ASCII bytes as \xNN, for
/// failure messages.
std::string escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x", byte);
      out += hex;
    }
  }
  return out;
}

/// The option shapes every differential case runs under.
std::vector<CsvOptions> option_shapes() {
  std::vector<CsvOptions> shapes(4);
  shapes[1].drop_last_column = true;
  shapes[2].delimiter = ';';
  shapes[3].max_rows = 3;
  return shapes;
}

/// Fields whose verdict or value is easy to get wrong: signs, blanks and
/// dots around a number, partial exponents, range edges, hex, inf and nan
/// spellings, and a field with an embedded NUL.
const std::vector<std::string>& tricky_fields() {
  static const std::vector<std::string> fields = {
      "1", "-2.5", "+3", " 4", "5 ", "6\r", "7.", "8..", ".9", "-.5",
      "1.e5", "1e", "1e+", "1e-400", "1e400", "4.9e-324",
      "2.2250738585072011e-308", "1.7976931348623157e308", "0x1p3", "inf",
      "-inf", "INF", "infinity", "nan", "-nan", "nan(123)", "1 2", "-", ".",
      "-0", "-0.0", "12345678901234567890123", "\"1\"",
      std::string("3\0z", 3), "0x", "-x", "1e5.", "\t7", "1.5.5", "--1",
      "-+1", "1,5", "0.1e-5", "00012", "9007199254740993", "1e-310"};
  return fields;
}

/// A random finite double (subnormals and zeros included).
double random_finite(Rng& rng) {
  constexpr std::uint64_t kExponent = 0x7ff0000000000000ull;
  std::uint64_t bits = rng();
  if (rng.uniform_int(16) == 0) bits &= ~kExponent;  // subnormal or zero
  if ((bits & kExponent) == kExponent) bits &= ~(std::uint64_t{1} << 62);
  return std::bit_cast<double>(bits);
}

/// One random field of the differential corpus.
std::string random_field(Rng& rng) {
  char buf[64];
  switch (rng.uniform_int(6)) {
    case 0:
      std::snprintf(buf, sizeof buf, "%.17g", random_finite(rng));
      return buf;
    case 1:
      std::snprintf(buf, sizeof buf, "%.17g", rng.uniform(-1000.0, 1000.0));
      return buf;
    case 2: {
      const double mantissa = rng.uniform(-1.0, 1.0);
      const auto exponent = static_cast<double>(rng.uniform_int(41)) - 20.0;
      std::snprintf(buf, sizeof buf, "%.6g",
                    mantissa * std::pow(10.0, exponent));
      return buf;
    }
    case 3:
      return std::to_string(rng.uniform_int(100));
    default: {
      const auto& fields = tricky_fields();
      return fields[rng.uniform_int(fields.size())];
    }
  }
}

/// One seeded CSV text: 1-6 rows of 1-4 fields, maybe a header, CRLF or
/// blank lines, no final newline, then 0-3 byte flips, insertions or
/// deletions.
std::string random_csv(Rng& rng) {
  using namespace std::string_view_literals;
  static constexpr std::string_view kBytes = "0123456789.-+eE ,;\r\n\t\0xin"sv;
  const char sep = rng.bernoulli(0.7) ? ',' : ';';
  const std::string eol = rng.bernoulli(0.3) ? "\r\n" : "\n";
  const std::size_t cols = 1 + rng.uniform_int(4);
  std::string text;
  if (rng.bernoulli(0.3)) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c != 0) text += sep;
      text += "col" + std::to_string(c);
    }
    text += eol;
  }
  const std::size_t rows = 1 + rng.uniform_int(6);
  for (std::size_t r = 0; r < rows; ++r) {
    if (rng.bernoulli(0.1)) text += rng.bernoulli(0.5) ? "\n" : "\r\n";
    const std::size_t fields =
        rng.bernoulli(0.9) ? cols : 1 + rng.uniform_int(4);
    for (std::size_t f = 0; f < fields; ++f) {
      if (f != 0) text += sep;
      text += random_field(rng);
    }
    if (r + 1 < rows || rng.bernoulli(0.7)) text += eol;
  }
  const std::size_t edits = rng.bernoulli(0.5) ? 1 + rng.uniform_int(3) : 0;
  for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.uniform_int(text.size());
    const char byte = rng.bernoulli(0.8)
                          ? kBytes[rng.uniform_int(kBytes.size())]
                          : static_cast<char>(rng.uniform_int(256));
    switch (rng.uniform_int(3)) {
      case 0:
        text[at] = byte;
        break;
      case 1:
        text.insert(at, 1, byte);
        break;
      default:
        text.erase(at, 1);
        break;
    }
  }
  return text;
}

/// Loads the fixture's file with both loaders under every option shape
/// and expects the same points or the same message.
class LoaderDifferentialTest : public LoaderTest {
 protected:
  void expect_same_as_reference(const std::string& text) {
    // A new file each time: truncating and rewriting a file can force a
    // flush (ext4's auto_da_alloc), which made the corpus I/O-bound.
    std::filesystem::remove(path_);
    write(text);
    const std::string path = path_.string();
    for (const CsvOptions& options : option_shapes()) {
      const LoadOutcome got =
          outcome_of([&] { return load_numeric_csv(path, options); });
      const LoadOutcome want = outcome_of(
          [&] { return reference::load_numeric_csv(path, options); });
      ASSERT_TRUE(got == want)
          << "text \"" << escaped(text) << "\", delimiter '"
          << options.delimiter << "', drop_last_column "
          << options.drop_last_column << ", max_rows " << options.max_rows
          << ": got error '" << got.error << "', want error '" << want.error
          << "'";
    }
  }

  /// The value the loader reads from `field` in the row `field,7`, or
  /// nothing when the field is not numeric.
  std::optional<double> field_value(const std::string& field) {
    write(field + ",7\n");
    const PointSet ps = load_numeric_csv(path_.string());
    if (ps.dim() == 1) return std::nullopt;
    return ps[0][0];
  }
};

TEST_F(LoaderDifferentialTest, TrickyFieldsMatchTheReference) {
  for (const std::string& field : tricky_fields()) {
    for (const std::string& text :
         {field + "\n", "1," + field + ",2\n", field + "," + field + "\r\n",
          "x,y\n" + field, field + ";-1\n"}) {
      expect_same_as_reference(text);
      if (HasFatalFailure()) return;
    }
  }
  // The grammar, spelled out for a few of them.
  EXPECT_EQ(field_value("+3"), 3.0);
  EXPECT_EQ(field_value(" 4"), 4.0);
  EXPECT_EQ(field_value("6\r"), 6.0);
  EXPECT_EQ(field_value("8.."), 8.0);
  EXPECT_EQ(field_value("-.5"), -0.5);
  EXPECT_EQ(field_value("1.e5"), 1e5);
  EXPECT_EQ(field_value("0x1p3"), 8.0);
  EXPECT_EQ(field_value("1e400"), HUGE_VAL);
  EXPECT_EQ(field_value("1e-400"), 0.0);
  EXPECT_EQ(field_value("4.9e-324"), 4.9e-324);
  EXPECT_EQ(field_value("-inf"), -HUGE_VAL);
  EXPECT_TRUE(std::isnan(field_value("nan(123)").value_or(0.0)));
  EXPECT_EQ(field_value(std::string("3\0z", 3)), 3.0);
  EXPECT_TRUE(std::signbit(field_value("-0").value_or(1.0)));
  for (const char* field : {"1e", "1e+", "1 2", "-", ".", "\"1\"", "0x"}) {
    EXPECT_EQ(field_value(field), std::nullopt) << field;
  }
}

TEST_F(LoaderDifferentialTest, SeededCorpusMatchesTheReference) {
  Rng rng(0x5eed);
  for (int i = 0; i < 30000; ++i) {
    expect_same_as_reference(random_csv(rng));
    if (HasFatalFailure()) return;
  }
}

TEST_F(LoaderDifferentialTest, LongFilesMatchTheReference) {
  Rng rng(301);
  std::string tall;
  char buf[64];
  for (int r = 0; r < 300000; ++r) {
    const double x = rng.uniform(-50.0, 50.0);
    const double y = rng.gaussian(0.0, 1e3);
    std::snprintf(buf, sizeof buf, "%.17g,%.6g\n", x, y);
    tall += buf;
  }
  expect_same_as_reference(tall);
  std::string wide;
  for (int r = 0; r < 2; ++r) {
    for (int f = 0; f < 200000; ++f) {
      if (f != 0) wide += ',';
      std::snprintf(buf, sizeof buf, "%.17g", random_finite(rng));
      wide += buf;
    }
    wide += '\n';
  }
  expect_same_as_reference(wide);
}

TEST_F(LoaderDifferentialTest, RandomBitPatternsRoundTrip) {
  // 2^20 finite patterns, each printed with %.17g and as the shortest
  // to_chars string: both must read back to the pattern itself, as the
  // reference's strtod does.
  constexpr int kChunks = 16;
  constexpr int kRows = 8192;
  constexpr int kCols = 8;
  Rng rng(1009);
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::vector<double> values(kRows * kCols);
    for (double& v : values) v = random_finite(rng);
    for (const bool shortest : {false, true}) {
      std::string text;
      char buf[64];
      for (int r = 0; r < kRows; ++r) {
        for (int c = 0; c < kCols; ++c) {
          const double v = values[r * kCols + c];
          if (c != 0) text += ',';
          if (shortest) {
            text.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
          } else {
            std::snprintf(buf, sizeof buf, "%.17g", v);
            text += buf;
          }
        }
        text += '\n';
      }
      write(text);
      const PointSet got = load_numeric_csv(path_.string());
      const PointSet want = reference::load_numeric_csv(path_.string());
      ASSERT_EQ(got.size(), static_cast<index_t>(kRows));
      ASSERT_EQ(got.dim(), static_cast<std::size_t>(kCols));
      for (std::size_t i = 0; i < values.size(); ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(values[i]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.raw()[i]), bits)
            << "value " << i << " of chunk " << chunk << ", shortest "
            << shortest;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(want.raw()[i]), bits);
      }
    }
  }
}

}  // namespace
}  // namespace kc::data
