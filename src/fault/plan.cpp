#include "fault/plan.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <system_error>
#include <type_traits>

#include "util/error.hpp"

namespace krak::fault {

namespace {

constexpr std::string_view kMagic = "krakfaults";
constexpr int kVersion = 1;

[[noreturn]] void malformed(const std::string& what) {
  throw util::KrakError("malformed fault spec: " + what);
}

std::string rank_token(std::int32_t rank) {
  return rank == kAllRanks ? std::string("*") : std::to_string(rank);
}

/// Parse all of `token` as a T: false on a sign where T has none, on
/// overflow and on any trailing character.
template <typename T>
bool parse_token(const std::string& token, T& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

/// `value` in the fewest significant digits, from 6 to 17, that parse
/// back to the same double. A value that round-trips at the stream
/// default of 6 keeps that text, and so the scenario fingerprints
/// hashed from it; any other value keeps every bit.
std::string number_token(double value) {
  std::array<char, 32> buffer{};
  for (int digits = 6;; ++digits) {
    const int length = std::snprintf(buffer.data(), buffer.size(), "%.*g",
                                     digits, value);
    std::string token(buffer.data(), static_cast<std::size_t>(length));
    double parsed = 0.0;
    if (digits == 17 || (parse_token(token, parsed) && parsed == value)) {
      return token;
    }
  }
}

/// The line of `directive` must hold nothing more.
void expect_end_of_line(std::istringstream& line,
                        const std::string& directive) {
  std::string extra;
  if (line >> extra) {
    malformed("'" + directive + "': unexpected token '" + extra + "'");
  }
}

/// key=value fields of one directive line, consumed with presence
/// checks so a typo'd key is an error, not a silently ignored token.
class Fields {
 public:
  Fields(const std::string& directive, std::istringstream& line)
      : directive_(directive) {
    std::string token;
    while (line >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
        malformed("'" + directive + "': bad field '" + token +
                  "' (expected key=value)");
      }
      const std::string key = token.substr(0, eq);
      if (!fields_.emplace(key, token.substr(eq + 1)).second) {
        malformed("'" + directive + "': duplicate field '" + key + "'");
      }
    }
  }

  [[nodiscard]] std::int32_t rank() {
    const std::string value = take("rank");
    return value == "*" ? kAllRanks : parse<std::int32_t>("rank", value);
  }

  [[nodiscard]] std::int32_t integer(const std::string& key) {
    return parse<std::int32_t>(key, take(key));
  }

  [[nodiscard]] double number(const std::string& key) {
    return parse<double>(key, take(key));
  }

  [[nodiscard]] double number_or(const std::string& key, double fallback) {
    return fields_.count(key) != 0 ? number(key) : fallback;
  }
  [[nodiscard]] std::int32_t integer_or(const std::string& key,
                                        std::int32_t fallback) {
    return fields_.count(key) != 0 ? integer(key) : fallback;
  }

  /// All fields must have been consumed.
  void finish() const {
    if (!fields_.empty()) {
      malformed("'" + directive_ + "': unknown field '" +
                fields_.begin()->first + "'");
    }
  }

 private:
  std::string take(const std::string& key) {
    const auto it = fields_.find(key);
    if (it == fields_.end()) {
      malformed("'" + directive_ + "': missing field '" + key + "'");
    }
    std::string value = it->second;
    fields_.erase(it);
    return value;
  }

  template <typename T>
  T parse(const std::string& key, const std::string& value) const {
    T parsed{};
    if (!parse_token(value, parsed)) {
      malformed("'" + directive_ + "': field " + key + "='" + value +
                "' is not " +
                (std::is_integral_v<T> ? "a 32-bit integer" : "a number"));
    }
    return parsed;
  }

  std::string directive_;
  std::map<std::string, std::string> fields_;
};

}  // namespace

void write_fault_plan(std::ostream& out, const FaultPlan& plan) {
  out << kMagic << " " << kVersion << "\n";
  out << "seed " << plan.seed << "\n";
  for (const ComputeSlowdown& s : plan.slowdowns) {
    out << "slowdown rank=" << rank_token(s.rank)
        << " factor=" << number_token(s.factor) << "\n";
  }
  for (const NoiseBurst& n : plan.noise) {
    out << "noise rank=" << rank_token(n.rank)
        << " period=" << number_token(n.period_s)
        << " duration=" << number_token(n.duration_s) << "\n";
  }
  for (const OneOffDelay& d : plan.delays) {
    out << "delay rank=" << rank_token(d.rank) << " phase=" << d.phase
        << " iter=" << d.iteration << " seconds=" << number_token(d.seconds)
        << "\n";
  }
  for (const MessageFaultModel& m : plan.message_faults) {
    out << "messages rank=" << rank_token(m.rank)
        << " drop=" << number_token(m.drop_probability)
        << " delay=" << number_token(m.extra_delay_s)
        << " rto=" << number_token(m.retransmit_timeout_s)
        << " retries=" << m.max_retries << "\n";
  }
  for (const NicDegrade& d : plan.degrades) {
    out << "degrade rank=" << rank_token(d.rank)
        << " bandwidth=" << number_token(d.bandwidth_factor) << "\n";
  }
  for (const RankCrash& c : plan.crashes) {
    out << "crash rank=" << rank_token(c.rank) << " phase=" << c.phase
        << " iter=" << c.iteration << " restart=" << number_token(c.restart_s)
        << " interval=" << number_token(c.checkpoint_interval_s) << "\n";
  }
  if (plan.max_sim_seconds > 0.0) {
    out << "watchdog max_seconds=" << number_token(plan.max_sim_seconds)
        << "\n";
  }
  out << "end\n";
  if (!out) throw util::KrakError("write_fault_plan: stream failure");
}

void save_fault_plan(const std::string& path, const FaultPlan& plan) {
  std::ofstream out(path);
  if (!out) {
    throw util::KrakError("save_fault_plan: cannot open " + path + ": " +
                          util::errno_message());
  }
  write_fault_plan(out, plan);
}

FaultPlan parse_fault_plan(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) malformed("missing header");
  {
    std::istringstream header(line);
    std::string magic;
    std::string version;
    if (!(header >> magic >> version)) malformed("missing header");
    if (magic != kMagic) malformed("bad magic '" + magic + "'");
    if (version != std::to_string(kVersion)) {
      malformed("unsupported version '" + version + "'");
    }
    expect_end_of_line(header, magic);
  }

  FaultPlan plan;
  bool saw_end = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive) || directive.front() == '#') continue;
    if (saw_end) malformed("'" + directive + "' after 'end'");
    if (directive == "end") {
      expect_end_of_line(ls, directive);
      saw_end = true;
      continue;
    }
    if (directive == "seed") {
      std::string value;
      if (!(ls >> value)) malformed("'seed': missing value");
      if (!parse_token(value, plan.seed)) {
        malformed("'seed': '" + value + "' is not an unsigned 64-bit integer");
      }
      expect_end_of_line(ls, directive);
      continue;
    }
    Fields fields(directive, ls);
    if (directive == "slowdown") {
      ComputeSlowdown s;
      s.rank = fields.rank();
      s.factor = fields.number("factor");
      plan.slowdowns.push_back(s);
    } else if (directive == "noise") {
      NoiseBurst n;
      n.rank = fields.rank();
      n.period_s = fields.number("period");
      n.duration_s = fields.number("duration");
      plan.noise.push_back(n);
    } else if (directive == "delay") {
      OneOffDelay d;
      d.rank = fields.rank();
      d.phase = fields.integer("phase");
      d.iteration = fields.integer("iter");
      d.seconds = fields.number("seconds");
      plan.delays.push_back(d);
    } else if (directive == "messages") {
      MessageFaultModel m;
      m.rank = fields.rank();
      m.drop_probability = fields.number("drop");
      m.extra_delay_s = fields.number_or("delay", 0.0);
      m.retransmit_timeout_s = fields.number_or("rto", 1e-4);
      m.max_retries = fields.integer_or("retries", 3);
      plan.message_faults.push_back(m);
    } else if (directive == "degrade") {
      NicDegrade d;
      d.rank = fields.rank();
      d.bandwidth_factor = fields.number("bandwidth");
      plan.degrades.push_back(d);
    } else if (directive == "crash") {
      RankCrash c;
      c.rank = fields.rank();
      c.phase = fields.integer("phase");
      c.iteration = fields.integer("iter");
      c.restart_s = fields.number("restart");
      c.checkpoint_interval_s = fields.number_or("interval", 0.0);
      plan.crashes.push_back(c);
    } else if (directive == "watchdog") {
      plan.max_sim_seconds = fields.number("max_seconds");
    } else {
      malformed("unknown directive '" + directive + "'");
    }
    fields.finish();
  }
  if (!saw_end) malformed("missing 'end'");
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw util::KrakError("load_fault_plan: cannot open " + path + ": " +
                          util::errno_message());
  }
  try {
    return parse_fault_plan(in);
  } catch (const util::KrakError& error) {
    throw util::KrakError("load_fault_plan: " + path + ": " + error.what());
  }
}

std::vector<PlanViolation> check_fault_plan(const FaultPlan& plan,
                                            std::int32_t ranks,
                                            std::int32_t phases_per_iteration) {
  std::vector<PlanViolation> violations;
  std::string where;
  const auto at = [&](const char* directive, std::size_t index) {
    where = std::string("faults/") + directive + " " + std::to_string(index);
  };
  const auto target = [&](const std::string& message) {
    violations.push_back({rules::kFaultSpecTarget, where, message});
  };
  // The upper end of a target interval: the bound, if there is one.
  const auto upper = [](std::int32_t bound, const char* unknown) {
    return bound > 0 ? std::to_string(bound) : std::string(unknown);
  };
  const auto rank = [&](std::int32_t r, bool wildcard_ok) {
    if (r == kAllRanks) {
      if (!wildcard_ok) target("rank=* is not allowed here; name one rank");
    } else if (r < 0 || (ranks > 0 && r >= ranks)) {
      target("rank " + std::to_string(r) + " outside [0, " +
             upper(ranks, "rank count") + ")");
    }
  };
  const auto site = [&](std::int32_t phase, std::int32_t iteration) {
    if (phase < 1 ||
        (phases_per_iteration > 0 && phase > phases_per_iteration)) {
      target("phase " + std::to_string(phase) + " outside [1, " +
             upper(phases_per_iteration, "phase count") + "]");
    }
    if (iteration < 0) {
      target("iteration " + std::to_string(iteration) + " is negative");
    }
  };
  // A finite `v` for which `in_range` holds; `range` words that test.
  const auto value = [&](const char* name, double v, bool in_range,
                         const char* range) {
    if (std::isfinite(v) && in_range) return;
    std::ostringstream os;
    os << name << " must be " << (std::isfinite(v) ? range : "finite")
       << " (got " << v << ")";
    violations.push_back({rules::kFaultSpecRange, where, os.str()});
  };
  const auto non_negative = [&](const char* name, double v) {
    value(name, v, v >= 0.0, "non-negative");
  };

  for (std::size_t i = 0; i < plan.slowdowns.size(); ++i) {
    const ComputeSlowdown& s = plan.slowdowns[i];
    at("slowdown", i);
    rank(s.rank, /*wildcard_ok=*/true);
    value("slowdown factor", s.factor, s.factor >= 1.0, ">= 1");
  }
  for (std::size_t i = 0; i < plan.noise.size(); ++i) {
    const NoiseBurst& n = plan.noise[i];
    at("noise", i);
    rank(n.rank, /*wildcard_ok=*/true);
    value("noise period", n.period_s, n.period_s > 0.0, "positive");
    non_negative("noise duration", n.duration_s);
  }
  for (std::size_t i = 0; i < plan.delays.size(); ++i) {
    const OneOffDelay& d = plan.delays[i];
    at("delay", i);
    rank(d.rank, /*wildcard_ok=*/false);
    site(d.phase, d.iteration);
    non_negative("delay seconds", d.seconds);
  }
  for (std::size_t i = 0; i < plan.message_faults.size(); ++i) {
    const MessageFaultModel& m = plan.message_faults[i];
    at("messages", i);
    rank(m.rank, /*wildcard_ok=*/true);
    value("drop probability", m.drop_probability,
          m.drop_probability >= 0.0 && m.drop_probability < 1.0,
          "in [0, 1)");
    non_negative("extra delay", m.extra_delay_s);
    non_negative("retransmit timeout", m.retransmit_timeout_s);
    non_negative("max retries", m.max_retries);
  }
  for (std::size_t i = 0; i < plan.degrades.size(); ++i) {
    const NicDegrade& d = plan.degrades[i];
    at("degrade", i);
    rank(d.rank, /*wildcard_ok=*/true);
    value("bandwidth factor", d.bandwidth_factor,
          d.bandwidth_factor > 0.0 && d.bandwidth_factor <= 1.0, "in (0, 1]");
  }
  for (std::size_t i = 0; i < plan.crashes.size(); ++i) {
    const RankCrash& c = plan.crashes[i];
    at("crash", i);
    rank(c.rank, /*wildcard_ok=*/false);
    site(c.phase, c.iteration);
    non_negative("restart cost", c.restart_s);
    non_negative("checkpoint interval", c.checkpoint_interval_s);
  }
  where = "faults/watchdog";
  non_negative("watchdog bound", plan.max_sim_seconds);
  return violations;
}

double daly_optimal_interval(double checkpoint_cost_s, double mtbf_s) {
  util::check(checkpoint_cost_s > 0.0, "checkpoint cost must be positive");
  util::check(mtbf_s > 0.0, "MTBF must be positive");
  return std::sqrt(2.0 * checkpoint_cost_s * mtbf_s);
}

double expected_recovery_cost(double restart_s, double checkpoint_interval_s,
                              double elapsed_s) {
  util::check(restart_s >= 0.0, "restart cost must be non-negative");
  const double rework = checkpoint_interval_s > 0.0
                            ? 0.5 * checkpoint_interval_s
                            : std::max(elapsed_s, 0.0);
  return restart_s + rework;
}

}  // namespace krak::fault
