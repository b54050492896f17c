#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace krak::util {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)),
      alignment_(headers_.size(), Align::kRight) {
  check(!headers_.empty(), "TextTable requires at least one column");
}

void TextTable::set_alignment(std::vector<Align> alignment) {
  check(alignment.size() == headers_.size(),
        "alignment vector must match column count");
  alignment_ = std::move(alignment);
}

void TextTable::add_row(std::vector<std::string> cells) {
  check(cells.size() == headers_.size(),
        "row cell count must match column count");
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const std::vector<std::string>& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  const auto emit_rule = [&] {
    os << '+';
    for (std::size_t w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  const auto emit_cells = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t pad = widths[c] - cells[c].size();
      os << ' ';
      if (alignment_[c] == Align::kRight) {
        os << std::string(pad, ' ') << cells[c];
      } else {
        os << cells[c] << std::string(pad, ' ');
      }
      os << " |";
    }
    os << '\n';
  };

  emit_rule();
  emit_cells(headers_);
  emit_rule();
  for (const std::vector<std::string>& row : rows_) emit_cells(row);
  emit_rule();
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) {
  return os << table.to_string();
}

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_ms(double seconds, int precision) {
  return format_double(seconds * 1e3, precision) + " ms";
}

std::string format_us(double seconds, int precision) {
  return format_double(seconds * 1e6, precision) + " us";
}

std::string format_percent(double fraction, int precision) {
  return format_double(fraction * 100.0, precision) + "%";
}

}  // namespace krak::util
