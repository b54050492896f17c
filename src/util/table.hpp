#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace krak::util {

/// Column alignment for TextTable.
enum class Align { kLeft, kRight };

/// Plain-text table renderer for the example and bench drivers' output,
/// so the format is uniform and diffable across runs.
class TextTable {
 public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Set alignment per column (default: kRight for all).
  void set_alignment(std::vector<Align> alignment);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Render with box-drawing ASCII (+, -, |).
  [[nodiscard]] std::string to_string() const;

  friend std::ostream& operator<<(std::ostream& os, const TextTable& table);

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format helpers shared by the example and bench drivers.
[[nodiscard]] std::string format_double(double value, int precision = 3);
[[nodiscard]] std::string format_ms(double seconds, int precision = 1);
[[nodiscard]] std::string format_us(double seconds, int precision = 2);
[[nodiscard]] std::string format_percent(double fraction, int precision = 1);

}  // namespace krak::util
