// Loading and saving point sets as delimited text.
//
// load_numeric_csv accepts the UCI files the paper uses (POKER HAND's
// comma-separated integers; KDD CUP's mixed records): non-numeric
// fields are dropped column-wise, so the Euclidean metric sees exactly
// the numeric attributes. Rows whose numeric arity differs from the
// first data row are rejected.
#pragma once

#include <optional>
#include <string>

#include "geom/point_set.hpp"

namespace kc::data {

struct CsvOptions {
  char delimiter = ',';
  std::size_t max_rows = 0;          ///< 0 = no limit
  bool drop_last_column = false;     ///< e.g. the POKER HAND class label
  std::optional<std::size_t> expect_dim;  ///< validate arity if set
};

/// Parses a delimited text file into a PointSet. Throws
/// std::runtime_error on I/O failure or inconsistent rows.
///
/// Lines are split at `delimiter`; empty lines and "\r" are skipped. A
/// field is numeric iff std::strtod (C locale) reads a non-empty prefix
/// of it and only ' ', '\t', '\r' or '.' follow, so a leading '+' or
/// blank, hex, inf and nan are numbers too. A line with no numeric field
/// (a header) is skipped. Plain decimals (an optional '-' then a digit
/// or '.') take a std::from_chars fast path; it is used only where it
/// gives strtod's verdict and bits, and every other field goes through
/// strtod itself.
[[nodiscard]] PointSet load_numeric_csv(const std::string& path,
                                        const CsvOptions& options = {});

/// Writes a PointSet as delimited text (one point per line).
void save_csv(const PointSet& points, const std::string& path,
              char delimiter = ',');

}  // namespace kc::data
