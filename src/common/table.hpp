// Minimal fixed-width ASCII table printer for the benchmark harness.
//
// Every bench binary regenerates a table or series from the paper; this
// keeps their output uniform and diff-friendly.
#pragma once

#include <string>
#include <vector>

namespace tbr {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Render with column-aligned cells and a header rule.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers used by bench output.
std::string format_count(std::uint64_t v);
std::string format_double(double v, int precision = 2);
/// "3.0 Δ" style for latencies measured in delta units.
std::string format_delta_units(double deltas, int precision = 1);

}  // namespace tbr
