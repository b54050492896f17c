#include "analyze/lint_partition_store.hpp"

#include <fstream>
#include <sstream>

#include "analyze/rules.hpp"
#include "util/error.hpp"

namespace krak::analyze {

core::PartitionEntry lint_partition_store(std::istream& in,
                                          DiagnosticReport& report) {
  std::ostringstream text;
  text << in.rdbuf();
  core::PartitionEntry entry = core::parse_partition_entry(text.str());
  report_violations(entry.violations, "store", report);
  return entry;
}

DiagnosticReport lint_partition_store_file(const std::string& path) {
  DiagnosticReport report;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    report.error(rules::kPartitionStoreFormat, "store",
                 "cannot open " + path + ": " + util::errno_message());
    return report;
  }
  (void)lint_partition_store(in, report);
  return report;
}

std::string corrupted_partition_store_text() {
  // One violation per rule; the inline notes name the rule each line
  // trips. The assignment still covers all six cells, so the (wrong)
  // checksum is actually compared.
  return "krakpart 1\n"
         "fingerprint 00c0ffee00000001\n"
         "pes 3\n"
         "method multilevel\n"
         "seed 1\n"
         "cells 6\n"
         "# all-zero checksum cannot match        -> partition-store-checksum\n"
         "checksum 0000000000000000\n"
         "# 4 > 2 is not monotone; part 0 count   -> partition-store-offsets\n"
         "offsets 0 4 2 6\n"
         "# cell 9 is outside [0, 6)              -> partition-store-bounds\n"
         "part 0 0 1 9\n"
         "part 1 2 3\n"
         "# cell 2 already belongs to part 1      -> partition-store-bounds\n"
         "part 2 4 5 2\n"
         "# not a directive                       -> partition-store-format\n"
         "bogus\n"
         "end\n";
}

}  // namespace krak::analyze
