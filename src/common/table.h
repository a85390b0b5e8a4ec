// Aligned plain-text table rendering for benchmark output.
//
// Every experiment binary prints its table/figure series through this class
// so that the console output of `bench_*` binaries mirrors the rows the paper
// reports (see README "Experiment notes").

#ifndef DSGM_COMMON_TABLE_H_
#define DSGM_COMMON_TABLE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dsgm {

/// Formats a double with `digits` significant digits (general format).
std::string FormatDouble(double value, int digits = 4);

/// Formats a double in scientific notation, e.g. "3.70e+06" (paper style).
std::string FormatScientific(double value, int digits = 2);

/// Formats an integer with thousands separators, e.g. "5,000,000".
std::string FormatCount(int64_t value);

/// Collects rows of strings and prints them with aligned columns.
class TablePrinter {
 public:
  /// `title` is printed above the table; pass "" to omit.
  explicit TablePrinter(std::string title = "") : title_(std::move(title)) {}

  /// Sets the header row. Column count of subsequent rows must match.
  void SetHeader(std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Renders the title, header, separator, and rows with aligned columns.
  void Print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dsgm

#endif  // DSGM_COMMON_TABLE_H_
