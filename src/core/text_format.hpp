#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>

namespace krak::core {

// Pieces shared by the parsers of the line-oriented text formats the
// core persists: `krakpart` (partition_store.hpp) and `krakjournal`
// (campaign_journal.hpp). Each format has exactly one parser; the
// loader acts on its result and `krak_analyze` prints its violations,
// so a file cannot lint clean and fail to load, or the reverse.

/// One rule a parsed text breaks: the stable rule id `krak_analyze`
/// reports (docs/ANALYSIS.md), the 1-based line it sits on (0 when it
/// concerns the whole file), and what is wrong.
struct FormatViolation {
  const char* rule = "";
  std::size_t line = 0;
  std::string message;
};

/// `value` as 16 lowercase hex digits, the width these formats write
/// fingerprints, checksums and IEEE-754 bit patterns at.
[[nodiscard]] std::string hex16(std::uint64_t value);

/// 64-bit FNV-1a over the bytes added so far: the hash behind the store's
/// deck fingerprints, the campaign's scenario fingerprints and the
/// journal's checksums, which these formats write as hex16.
class Fnv1a64 {
 public:
  Fnv1a64& add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
    return *this;
  }
  Fnv1a64& add(std::string_view text) { return add(text.data(), text.size()); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  ///< the offset basis
};

/// `text` in single quotes for a violation message, cut after its first
/// 60 characters so a corrupt multi-megabyte line stays readable.
[[nodiscard]] std::string quoted(std::string_view text);

/// Parse all of `token` as a T in `base`; false on an empty token, a
/// sign where T has none, overflow, or any trailing character.
template <typename T>
bool parse_value(std::string_view token, T& value, int base = 10) {
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), value, base);
  return result.ec == std::errc{} && result.ptr == token.data() + token.size();
}

/// Parse a token that must be exactly 16 hex digits (the hex16 form).
[[nodiscard]] bool parse_hex16(std::string_view token, std::uint64_t& value);

/// The tokens of one line, separated by blanks: spaces, tabs and '\r'.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : line_(line) {}

  /// The next token; false at the end of the line.
  bool next(std::string_view& token) {
    while (pos_ < line_.size() && is_blank(line_[pos_])) ++pos_;
    if (pos_ == line_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !is_blank(line_[pos_])) ++pos_;
    token = line_.substr(start, pos_ - start);
    return true;
  }

 private:
  static bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  std::string_view line_;
  std::size_t pos_ = 0;
};

/// The content lines of a text, in order. Lines end at '\n' (the last
/// one may lack it); lines without a token and lines whose first token
/// starts with `#` are skipped. Writers emit neither, but annotated
/// fixtures and hand-edited files do, and the skip is part of each
/// format's definition, not a linter courtesy.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : text_(text) {}

  /// Advance to the next content line; false once the text is exhausted.
  bool next();

  /// The current line, without its '\n'.
  [[nodiscard]] std::string_view line() const { return line_; }
  /// 1-based number of the current line, skipped lines included.
  [[nodiscard]] std::size_t number() const { return number_; }
  /// Byte offset at which the current line starts.
  [[nodiscard]] std::size_t begin() const { return begin_; }
  /// Bytes after the current line.
  [[nodiscard]] std::size_t remaining() const { return text_.size() - next_; }

 private:
  std::string_view text_;
  std::string_view line_;
  std::size_t next_ = 0;
  std::size_t begin_ = 0;
  std::size_t number_ = 0;
};

}  // namespace krak::core
