#include "data/loader.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace kc::data {

namespace {

/// The bytes the grammar allows after a number.
bool is_trailing(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '.';
}

/// The fast path for a plain decimal: an optional '-' then a digit or
/// '.'. Fails, leaving the verdict (and `value`) to parse_with_strtod,
/// when the field is anything else, when from_chars reports an error
/// (out of range included), or when a byte outside is_trailing follows
/// the number. Where it succeeds, strtod reads the same prefix to the
/// same value.
bool parse_plain_decimal(std::string_view field, double& value) {
  const std::string_view number = field.substr(field.starts_with('-') ? 1 : 0);
  if (number.empty() ||
      !((number[0] >= '0' && number[0] <= '9') || number[0] == '.')) {
    return false;
  }
  const char* const last = field.data() + field.size();
  const auto [end, ec] = std::from_chars(field.data(), last, value);
  return ec == std::errc{} && std::all_of(end, last, is_trailing);
}

/// The grammar itself: numeric iff strtod reads a non-empty prefix of
/// the token and only is_trailing bytes follow it (up to a NUL).
bool parse_with_strtod(std::string_view field, double& value) {
  const std::string token(field);
  char* parse_end = nullptr;
  value = std::strtod(token.c_str(), &parse_end);
  if (parse_end == token.c_str()) return false;
  for (const char* p = parse_end; *p != '\0'; ++p) {
    if (!is_trailing(*p)) return false;
  }
  return true;
}

/// Parses one delimited line, keeping numeric fields only. Returns the
/// column positions that were numeric (used to pin the schema).
void split_numeric(std::string_view line, char delimiter,
                   std::vector<double>& values,
                   std::vector<std::size_t>& numeric_columns) {
  values.clear();
  numeric_columns.clear();
  std::size_t column = 0;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t end = line.find(delimiter, start);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view field = line.substr(start, end - start);
    double value = 0.0;
    if (!field.empty() && (parse_plain_decimal(field, value) ||
                           parse_with_strtod(field, value))) {
      values.push_back(value);
      numeric_columns.push_back(column);
    }
    ++column;
    if (end == line.size()) break;
    start = end + 1;
  }
}

}  // namespace

PointSet load_numeric_csv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_numeric_csv: cannot open '" + path + "'");
  }

  CoordStorage coords;
  std::vector<double> row;
  std::vector<std::size_t> row_columns;
  std::vector<std::size_t> schema;
  std::size_t rows = 0;
  std::size_t dim = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line == "\r") continue;
    split_numeric(line, options.delimiter, row, row_columns);
    if (row.empty()) continue;  // header or fully non-numeric line
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
  if (in.bad()) {
    throw std::runtime_error("load_numeric_csv: cannot read '" + path + "'");
  }
  if (rows == 0) {
    throw std::runtime_error("load_numeric_csv: no numeric rows in '" + path +
                             "'");
  }
  // The buffer moves in whole: no copy, and the spare capacity past the
  // last row is never written, so its pages are never faulted in.
  return PointSet(dim, std::move(coords));
}

void save_csv(const PointSet& points, const std::string& path,
              char delimiter) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_csv: cannot open '" + path + "'");
  }
  out.precision(17);
  for (index_t i = 0; i < points.size(); ++i) {
    const auto p = points[i];
    for (std::size_t d = 0; d < p.size(); ++d) {
      if (d != 0) out << delimiter;
      out << p[d];
    }
    out << '\n';
  }
  if (!out) {
    throw std::runtime_error("save_csv: write failed for '" + path + "'");
  }
}

}  // namespace kc::data
