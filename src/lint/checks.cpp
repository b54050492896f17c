#include "lint/checks.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <string_view>

#include "lint/rules.hpp"

namespace krak::lint {

namespace {

bool is_ident_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0) {
    text.remove_suffix(1);
  }
  return text;
}

/// The file's code channel joined into one string, with offset -> line
/// mapping. Rules that span lines (balanced parentheses, template
/// argument lists, function bodies) run on this.
struct FlatCode {
  std::string text;
  std::vector<std::size_t> line_start;  // offset of line i + 1's first char

  explicit FlatCode(const ScannedFile& file) {
    for (const SourceLine& line : file.lines) {
      line_start.push_back(text.size());
      text += line.code;
      text += '\n';
    }
    if (line_start.empty()) line_start.push_back(0);
  }

  [[nodiscard]] std::size_t line_of(std::size_t offset) const {
    const auto it = std::upper_bound(line_start.begin(), line_start.end(),
                                     offset);
    return static_cast<std::size_t>(it - line_start.begin());
  }
};

/// Next occurrence of `word` at or after `from` with non-identifier
/// characters on both sides; npos when absent.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from) {
  std::size_t pos = from;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return pos;
    pos += 1;
  }
  return std::string_view::npos;
}

/// True when the word at `pos` is written as a member access
/// (`x.word`, `x->word`) — those name project methods, not the banned
/// free/std functions.
bool is_member_access(std::string_view text, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 &&
         std::isspace(static_cast<unsigned char>(text[i - 1])) != 0) {
    --i;
  }
  if (i == 0) return false;
  if (text[i - 1] == '.') return true;
  return text[i - 1] == '>' && i >= 2 && text[i - 2] == '-';
}

/// True when `word` at `pos` is immediately called: optional whitespace
/// then an opening parenthesis.
bool is_call(std::string_view text, std::size_t pos, std::size_t word_size) {
  std::size_t i = pos + word_size;
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  return i < text.size() && text[i] == '(';
}

/// Offset of the parenthesis closing the one at `open`; npos when the
/// file ends first. Literal contents are already blanked, so counting
/// is exact.
std::size_t match_paren(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string_view::npos;
}

/// Offset of the `>` closing the template argument list opened at
/// `open`; `->` arrows are skipped, `>>` closes two levels.
std::size_t match_angle(std::string_view text, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<') ++depth;
    if (c == '>') {
      if (i > 0 && text[i - 1] == '-') continue;  // ->
      if (--depth == 0) return i;
    }
  }
  return std::string_view::npos;
}

/// First identifier token of `expr` ("deck.cells" -> "deck").
std::string_view leading_identifier(std::string_view expr) {
  expr = trim(expr);
  while (!expr.empty() && (expr.front() == '*' || expr.front() == '&')) {
    expr.remove_prefix(1);
  }
  std::size_t end = 0;
  while (end < expr.size() && is_ident_char(expr[end])) ++end;
  return expr.substr(0, end);
}

class FileLinter {
 public:
  FileLinter(const ScannedFile& file, const Policy& policy)
      : file_(file), policy_(policy), flat_(file) {}

  FileLintResult run() {
    check_banned_tokens();
    check_deterministic_containers();
    check_threadpool_tasks();
    check_headers();
    check_includes();
    check_hot_annotations();
    check_todos();
    check_suppressions();
    std::sort(result_.findings.begin(), result_.findings.end(),
              [](const Finding& a, const Finding& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(result_);
  }

 private:
  void add(std::string_view rule, std::size_t line, std::string message) {
    if (!policy_.rule_enabled(rule)) return;
    if (file_.is_suppressed(rule, line)) return;
    result_.findings.push_back(
        Finding{std::string(rule), file_.path, line, std::move(message)});
  }

  /// Flag every called/used occurrence of a banned token.
  void flag_calls(std::string_view word, std::string_view rule,
                  const std::string& message) {
    if (!policy_.rule_enabled(rule)) return;
    const std::string_view text = flat_.text;
    for (std::size_t pos = find_word(text, word, 0);
         pos != std::string_view::npos;
         pos = find_word(text, word, pos + word.size())) {
      if (is_member_access(text, pos)) continue;
      if (!is_call(text, pos, word.size())) continue;
      add(rule, flat_.line_of(pos), message);
    }
  }

  void flag_words(std::string_view word, std::string_view rule,
                  const std::string& message) {
    if (!policy_.rule_enabled(rule)) return;
    const std::string_view text = flat_.text;
    for (std::size_t pos = find_word(text, word, 0);
         pos != std::string_view::npos;
         pos = find_word(text, word, pos + word.size())) {
      add(rule, flat_.line_of(pos), message);
    }
  }

  void check_banned_tokens() {
    flag_words("random_device", rules::kNoRandomDevice,
               "std::random_device is nondeterministic; seed a util::Rng "
               "instead");
    flag_calls("rand", rules::kNoStdRand,
               "std::rand is banned; draw from a seeded util::Rng");
    flag_calls("srand", rules::kNoStdRand,
               "srand is banned; seed a util::Rng instead");

    if (!policy_.clock_exempt) {
      const std::string clock_message =
          "wall-clock read outside a clock-exempt tree; use util::Stopwatch "
          "or an obs timer";
      flag_words("steady_clock", rules::kNoWallClock, clock_message);
      flag_words("system_clock", rules::kNoWallClock, clock_message);
      flag_words("high_resolution_clock", rules::kNoWallClock, clock_message);
      flag_calls("time", rules::kNoWallClock, clock_message);
      flag_calls("clock", rules::kNoWallClock, clock_message);
      flag_calls("gettimeofday", rules::kNoWallClock, clock_message);
      flag_calls("clock_gettime", rules::kNoWallClock, clock_message);
      flag_calls("timespec_get", rules::kNoWallClock, clock_message);
    }

    flag_calls("assert", rules::kNoNakedAssert,
               "naked assert() compiles out under NDEBUG; use KRAK_ASSERT "
               "or KRAK_REQUIRE");
    const std::string abort_message =
        "process teardown bypasses destructors and sweep recovery; throw "
        "KrakError instead";
    flag_calls("abort", rules::kNoAbort, abort_message);
    flag_calls("terminate", rules::kNoAbort, abort_message);
    flag_calls("exit", rules::kNoAbort, abort_message);
    flag_calls("quick_exit", rules::kNoAbort, abort_message);
    flag_calls("_Exit", rules::kNoAbort, abort_message);
  }

  /// Names declared in this file with an unordered container type.
  std::set<std::string, std::less<>> unordered_names() const {
    std::set<std::string, std::less<>> names;
    const std::string_view text = flat_.text;
    for (const std::string_view container :
         {std::string_view("unordered_map"),
          std::string_view("unordered_set")}) {
      for (std::size_t pos = find_word(text, container, 0);
           pos != std::string_view::npos;
           pos = find_word(text, container, pos + container.size())) {
        std::size_t open = pos + container.size();
        while (open < text.size() &&
               std::isspace(static_cast<unsigned char>(text[open])) != 0) {
          ++open;
        }
        if (open >= text.size() || text[open] != '<') continue;
        const std::size_t close = match_angle(text, open);
        if (close == std::string_view::npos) continue;
        std::size_t name_begin = close + 1;
        while (name_begin < text.size() &&
               (std::isspace(static_cast<unsigned char>(text[name_begin])) !=
                    0 ||
                text[name_begin] == '&' || text[name_begin] == '*')) {
          ++name_begin;
        }
        std::size_t name_end = name_begin;
        while (name_end < text.size() && is_ident_char(text[name_end])) {
          ++name_end;
        }
        if (name_end > name_begin) {
          names.insert(std::string(text.substr(name_begin,
                                               name_end - name_begin)));
        }
      }
    }
    return names;
  }

  void check_deterministic_containers() {
    if (!policy_.deterministic) return;
    const std::string_view text = flat_.text;

    if (policy_.rule_enabled(rules::kNoUnorderedIteration)) {
      const std::set<std::string, std::less<>> names = unordered_names();
      // Range-for over an unordered container declared in this file.
      for (std::size_t pos = find_word(text, "for", 0);
           pos != std::string_view::npos;
           pos = find_word(text, "for", pos + 3)) {
        if (!is_call(text, pos, 3)) continue;
        const std::size_t open = text.find('(', pos);
        const std::size_t close = match_paren(text, open);
        if (close == std::string_view::npos) continue;
        const std::string_view inside = text.substr(open + 1,
                                                    close - open - 1);
        // The range expression follows the single top-level colon.
        std::size_t colon = std::string_view::npos;
        for (std::size_t i = 0; i < inside.size(); ++i) {
          if (inside[i] != ':') continue;
          const bool double_colon =
              (i + 1 < inside.size() && inside[i + 1] == ':') ||
              (i > 0 && inside[i - 1] == ':');
          if (!double_colon) {
            colon = i;
            break;
          }
        }
        if (colon == std::string_view::npos) continue;
        const std::string_view range_ident =
            leading_identifier(inside.substr(colon + 1));
        if (!range_ident.empty() && names.count(range_ident) > 0) {
          add(rules::kNoUnorderedIteration, flat_.line_of(open),
              "iteration over unordered container '" +
                  std::string(range_ident) +
                  "' leaks hash order into a deterministic tree");
        }
      }
      // Explicit iterator walks over the same names.
      for (const std::string& name : names) {
        for (const std::string_view method :
             {std::string_view(".begin"), std::string_view(".cbegin")}) {
          const std::string needle = name + std::string(method);
          std::size_t pos = 0;
          while ((pos = text.find(needle, pos)) != std::string_view::npos) {
            const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
            if (left_ok && is_call(text, pos, needle.size())) {
              add(rules::kNoUnorderedIteration, flat_.line_of(pos),
                  "iteration over unordered container '" + name +
                      "' leaks hash order into a deterministic tree");
            }
            pos += needle.size();
          }
        }
      }
    }

    if (policy_.rule_enabled(rules::kNoPointerKeyedContainer)) {
      for (const std::string_view container :
           {std::string_view("map"), std::string_view("set"),
            std::string_view("unordered_map"),
            std::string_view("unordered_set")}) {
        for (std::size_t pos = find_word(text, container, 0);
             pos != std::string_view::npos;
             pos = find_word(text, container, pos + container.size())) {
          std::size_t open = pos + container.size();
          if (open >= text.size() || text[open] != '<') continue;
          const std::size_t close = match_angle(text, open);
          if (close == std::string_view::npos) continue;
          // First template argument: up to the top-level comma or the
          // closing angle bracket.
          std::size_t arg_end = close;
          int angle_depth = 0;
          int paren_depth = 0;
          for (std::size_t i = open + 1; i < close; ++i) {
            const char c = text[i];
            if (c == '<') ++angle_depth;
            if (c == '>' && text[i - 1] != '-') --angle_depth;
            if (c == '(') ++paren_depth;
            if (c == ')') --paren_depth;
            if (c == ',' && angle_depth == 0 && paren_depth == 0) {
              arg_end = i;
              break;
            }
          }
          const std::string_view key =
              trim(text.substr(open + 1, arg_end - open - 1));
          if (key.find('*') != std::string_view::npos) {
            add(rules::kNoPointerKeyedContainer, flat_.line_of(pos),
                "associative container keyed by pointer ('" +
                    std::string(key) +
                    "') orders by address, which varies run to run");
          }
        }
      }
    }
  }

  void check_threadpool_tasks() {
    if (!policy_.rule_enabled(rules::kThreadpoolTaskThrow)) return;
    const std::string_view text = flat_.text;
    for (std::size_t pos = find_word(text, "submit", 0);
         pos != std::string_view::npos;
         pos = find_word(text, "submit", pos + 6)) {
      if (!is_call(text, pos, 6)) continue;
      const std::size_t open = text.find('(', pos);
      const std::size_t close = match_paren(text, open);
      if (close == std::string_view::npos) continue;
      const std::string_view task = text.substr(open + 1, close - open - 1);
      if (find_word(task, "try", 0) != std::string_view::npos) continue;
      for (const std::string_view thrower :
           {std::string_view("throw"), std::string_view("KRAK_REQUIRE"),
            std::string_view("KRAK_ASSERT"), std::string_view("span_at")}) {
        const std::size_t hit = find_word(task, thrower, 0);
        if (hit == std::string_view::npos) continue;
        add(rules::kThreadpoolTaskThrow, flat_.line_of(open + 1 + hit),
            std::string("'") + std::string(thrower) +
                "' can throw out of a ThreadPool::submit task, which "
                "terminates the process; catch inside the task or use "
                "parallel_for");
      }
    }
  }

  void check_headers() {
    if (!file_.is_header) return;
    if (policy_.rule_enabled(rules::kPragmaOnce)) {
      bool found = false;
      std::size_t first_code_line = 0;
      for (std::size_t i = 0; i < file_.lines.size(); ++i) {
        const std::string_view code = trim(file_.lines[i].code);
        if (code.empty()) continue;
        found = code == "#pragma once";
        first_code_line = i + 1;
        break;
      }
      if (!found) {
        add(rules::kPragmaOnce,
            first_code_line == 0 ? 1 : first_code_line,
            "header does not open with #pragma once");
      }
    }
    if (policy_.rule_enabled(rules::kNoUsingNamespaceHeader)) {
      const std::string_view text = flat_.text;
      for (std::size_t pos = find_word(text, "using", 0);
           pos != std::string_view::npos;
           pos = find_word(text, "using", pos + 5)) {
        std::size_t next = pos + 5;
        while (next < text.size() &&
               std::isspace(static_cast<unsigned char>(text[next])) != 0) {
          ++next;
        }
        if (text.compare(next, 9, "namespace") == 0 &&
            (next + 9 >= text.size() || !is_ident_char(text[next + 9]))) {
          add(rules::kNoUsingNamespaceHeader, flat_.line_of(pos),
              "using namespace in a header pollutes every includer");
        }
      }
    }
  }

  /// The include target of a line, or empty when it is not an include.
  static std::string_view include_target(std::string_view code) {
    code = trim(code);
    if (code.empty() || code.front() != '#') return {};
    code.remove_prefix(1);
    code = trim(code);
    if (code.substr(0, 7) != "include") return {};
    code = trim(code.substr(7));
    if (code.size() < 2) return {};
    if (code.front() == '"') {
      const std::size_t end = code.find('"', 1);
      return end == std::string_view::npos ? std::string_view{}
                                           : code.substr(1, end - 1);
    }
    if (code.front() == '<') {
      const std::size_t end = code.find('>', 1);
      return end == std::string_view::npos ? std::string_view{}
                                           : code.substr(1, end - 1);
    }
    return {};
  }

  static std::string_view basename(std::string_view path) {
    const std::size_t slash = path.rfind('/');
    return slash == std::string_view::npos ? path : path.substr(slash + 1);
  }

  void check_includes() {
    std::set<std::string, std::less<>> seen;
    for (std::size_t i = 0; i < file_.lines.size(); ++i) {
      // The code channel (comments stripped) decides whether the line
      // is a live include; the raw line supplies the quoted target,
      // which the scanner blanked as a string literal.
      const std::string_view code = trim(file_.lines[i].code);
      if (code.substr(0, 1) != "#" ||
          trim(code.substr(1)).substr(0, 7) != "include") {
        continue;
      }
      const std::string_view target = include_target(file_.lines[i].raw);
      if (target.empty()) continue;
      if (!seen.insert(std::string(target)).second) {
        add(rules::kNoDuplicateInclude, i + 1,
            std::string("'") + std::string(target) +
                "' is already included above");
      }
      if (file_.is_header &&
          policy_.rule_enabled(rules::kNoSelfInclude) &&
          basename(target) == basename(file_.path)) {
        add(rules::kNoSelfInclude, i + 1,
            "header includes itself ('" + std::string(target) + "')");
      }
    }
  }

  void check_hot_annotations() {
    if (!policy_.rule_enabled(rules::kHotPathProbe)) return;
    const std::string hot_marker = std::string("krak") + ": hot";
    const std::string_view text = flat_.text;
    for (std::size_t i = 0; i < file_.lines.size(); ++i) {
      if (file_.lines[i].comment.find(hot_marker) == std::string::npos) {
        continue;
      }
      const std::size_t from = flat_.line_start[i];
      const std::size_t open = text.find('{', from);
      bool has_probe = false;
      if (open != std::string_view::npos) {
        int depth = 0;
        std::size_t body_end = text.size();
        for (std::size_t j = open; j < text.size(); ++j) {
          if (text[j] == '{') ++depth;
          if (text[j] == '}' && --depth == 0) {
            body_end = j;
            break;
          }
        }
        const std::string_view body = text.substr(open, body_end - open);
        has_probe =
            body.find("obs::") != std::string_view::npos ||
            body.find("global_registry") != std::string_view::npos ||
            find_word(body, "registry", 0) != std::string_view::npos;
      }
      if (!has_probe) {
        add(rules::kHotPathProbe, i + 1,
            "hot-annotated function registers no obs probe; perf PRs need "
            "baseline counters (docs/OBSERVABILITY.md)");
      }
    }
  }

  void check_todos() {
    for (std::size_t i = 0; i < file_.lines.size(); ++i) {
      const std::string& comment = file_.lines[i].comment;
      for (const std::string_view marker :
           {std::string_view("TODO"), std::string_view("FIXME")}) {
        for (std::size_t pos = find_word(comment, marker, 0);
             pos != std::string_view::npos;
             pos = find_word(comment, marker, pos + marker.size())) {
          ++result_.todo_count;
          std::size_t j = pos + marker.size();
          bool well_formed = false;
          if (j < comment.size() && comment[j] == '(') {
            const std::size_t close = comment.find(')', j + 1);
            if (close != std::string::npos &&
                !trim(std::string_view(comment).substr(j + 1, close - j - 1))
                     .empty() &&
                close + 1 < comment.size() && comment[close + 1] == ':') {
              well_formed = true;
            }
          }
          if (!well_formed) {
            add(rules::kTodoOwner, i + 1,
                std::string(marker) +
                    " without an owner; write " + std::string(marker) +
                    "(name): ...");
          }
        }
      }
    }
  }

  void check_suppressions() {
    if (!policy_.rule_enabled(rules::kBadSuppression)) return;
    for (std::size_t i = 0; i < file_.suppressions.size(); ++i) {
      for (const Suppression& sup : file_.suppressions[i]) {
        if (sup.malformed) {
          add(rules::kBadSuppression, i + 1,
              "malformed suppression marker (want: allow(rule-id reason))");
        } else if (!is_known_rule(sup.rule)) {
          add(rules::kBadSuppression, i + 1,
              "suppression names unknown rule '" + sup.rule + "'");
        }
      }
    }
  }

  const ScannedFile& file_;
  const Policy& policy_;
  FlatCode flat_;
  FileLintResult result_;
};

}  // namespace

FileLintResult lint_source_file(const ScannedFile& file,
                                const Policy& policy) {
  return FileLinter(file, policy).run();
}

}  // namespace krak::lint
