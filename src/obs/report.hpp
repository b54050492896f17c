#pragma once

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace krak::obs {

/// Render a snapshot as a JSON object: each metric name maps to
///   counter -> {"kind":"counter","count":N}
///   gauge   -> {"kind":"gauge","value":X}
///   timer   -> {"kind":"timer","count":N,"total_seconds":X}
/// Keys are sorted (Json object invariant), so output is byte-stable
/// for a given snapshot — this is the "metrics" section of BENCH_*.json.
[[nodiscard]] Json snapshot_to_json(const Snapshot& snapshot);

}  // namespace krak::obs
