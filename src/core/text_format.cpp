#include "core/text_format.hpp"

namespace krak::core {

std::string hex16(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xf];
    value >>= 4;
  }
  return out;
}

std::string quoted(std::string_view text) {
  constexpr std::size_t kShown = 60;
  std::string out = "'";
  out += text.substr(0, kShown);
  if (text.size() > kShown) out += "...";
  out += '\'';
  return out;
}

bool parse_hex16(std::string_view token, std::uint64_t& value) {
  return token.size() == 16 && parse_value(token, value, 16);
}

bool LineReader::next() {
  while (next_ < text_.size()) {
    const std::size_t newline = text_.find('\n', next_);
    const std::size_t end =
        newline == std::string_view::npos ? text_.size() : newline;
    begin_ = next_;
    line_ = text_.substr(begin_, end - begin_);
    next_ = newline == std::string_view::npos ? end : end + 1;
    ++number_;
    std::string_view first;
    if (Tokens(line_).next(first) && first.front() != '#') return true;
  }
  return false;
}

}  // namespace krak::core
