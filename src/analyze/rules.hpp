#pragma once

#include "core/campaign_journal.hpp"
#include "core/partition_store.hpp"
#include "fault/plan.hpp"

namespace krak::analyze::rules {

/// Stable rule identifiers emitted by the model linter. Each id names
/// one invariant of the paper's model inputs; docs/ANALYSIS.md documents
/// them in detail. Tests and CI grep for these strings — treat them as
/// API.

// --- piecewise cost curves (Section 3, Equation 2) -----------------------

/// Total subgrid cost n * T(phase, material, n) must be non-decreasing
/// in n: more cells can never be cheaper in total.
inline constexpr const char* kCurveTotalMonotone = "curve-total-monotone";
/// A per-cell cost curve should have at most one knee (one significant
/// local maximum); several knees mean noisy or mis-merged calibration.
inline constexpr const char* kCurveKnee = "curve-knee-consistency";
/// Per-cell costs must be positive and finite.
inline constexpr const char* kCurvePositive = "curve-positive";
/// Every (phase, material) pair the model can be asked about needs
/// samples; fewer than two means no interpolation, only a constant.
inline constexpr const char* kCurveCoverage = "curve-sample-coverage";

// --- partition / subdomain statistics (Sections 4.1-4.2) -----------------

/// Sum of per-PE cell counts must equal the deck's cell count.
inline constexpr const char* kCellConservation = "cell-conservation";
/// Per-material cell counts summed over PEs must equal the deck's
/// per-material counts.
inline constexpr const char* kMaterialConservation = "material-conservation";
/// A PE with zero cells wastes a processor and breaks per-PE averages.
inline constexpr const char* kEmptySubdomain = "empty-subdomain";
/// Ghost nodes on a boundary obey the faces+1 rule: a boundary of f
/// shared faces has between f+1 (one contiguous segment) and 2f
/// (f disjoint segments) ghost nodes.
inline constexpr const char* kGhostFace = "ghost-face-consistency";
/// The per-group face counts of a boundary must sum to its total faces.
inline constexpr const char* kFaceGroupSum = "face-group-sum";
/// Boundaries must be symmetric: if pe a lists neighbor b, b must list
/// a with the same face count and mirrored ghost-node ownership.
inline constexpr const char* kBoundarySymmetry = "boundary-symmetry";

// --- machine description / collectives (Section 4.3) ---------------------

/// Node count, PEs per node, and compute speedup must be positive, and
/// the run must fit on the machine.
inline constexpr const char* kMachineShape = "machine-shape";
/// The binary collective tree must cover all PEs: depth d with
/// 2^(d-1) < P <= 2^d; non-power-of-two P is only approximated by the
/// paper's ceil(log2 P) trees.
inline constexpr const char* kTreeCoverage = "tree-coverage";
/// Unit/dimension checks on Tmsg(S) = L(S) + S*TB(S): non-negative
/// terms, Tmsg non-decreasing in S, latency in a physically plausible
/// range, and TB not confused with a total time.
inline constexpr const char* kMessageUnits = "message-cost-units";

// --- input deck (Section 2.1) --------------------------------------------

/// Detonator must lie inside the grid and on a high-explosive cell;
/// a deck with a detonator but no HE gas cannot detonate.
inline constexpr const char* kDeckDetonator = "deck-detonator";
/// Deck shape sanity: materials present, aspect ratio, cell counts.
inline constexpr const char* kDeckShape = "deck-shape";

// --- run options ----------------------------------------------------------

/// SimKrak option ranges (iterations >= 1, etc.).
inline constexpr const char* kOptionsRange = "options-range";

// --- partition-store files (krakpart 1, core/partition_store.hpp) ---------

// The store's parser, core::parse_partition_entry, emits these; they are
// documented with it.
using core::rules::kPartitionStoreBounds;
using core::rules::kPartitionStoreChecksum;
using core::rules::kPartitionStoreFormat;
using core::rules::kPartitionStoreOffsets;

// --- campaign-journal files (krakjournal 1, core/campaign_journal.hpp) ----

// The journal's parser, core::parse_journal, emits these two; they are
// documented with it.
using core::rules::kJournalChecksum;
using core::rules::kJournalFormat;
/// Per-scenario record order must follow the writer's state machine:
/// attempt numbers strictly increase, `done`/`failed` close the attempt
/// the latest `running` record opened, and no record may follow a
/// terminal `done` or `quarantined` state. Linter-only: it judges a
/// sequence of valid records, which recovery replays as they are.
inline constexpr const char* kJournalStateMachine = "journal-state-machine";
/// A trailing partial line with no newline is a torn append (crash
/// mid-write); recovery truncates it, losing exactly that record.
inline constexpr const char* kJournalTornTail = "journal-torn-tail";

// --- fault-spec files (krakfaults 1, fault/plan.hpp) ----------------------

// The plan's parser emits format errors and its one check,
// fault::check_fault_plan, the range and target rules; they are
// documented with it.
using fault::rules::kFaultSpecFormat;
using fault::rules::kFaultSpecRange;
using fault::rules::kFaultSpecTarget;

}  // namespace krak::analyze::rules
