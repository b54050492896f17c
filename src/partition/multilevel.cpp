#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "partition/partition.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

// Multilevel k-way partitioner (the project's Metis stand-in).
//
// Everything in this file obeys one contract: the resulting assignment
// is a pure function of (graph, parts, seed). Ladder-cache hits and
// every fast path below are output-invariant, so the model's
// measured/predicted numbers never move when the partitioner gets
// faster. docs/PERFORMANCE.md ("Partitioner") walks through the
// identity argument for each path; tests/partition/determinism_test.cpp
// enforces it against checked-in checksums.

namespace krak::partition {

namespace {

/// One coarsening step: heavy-edge matching, as in Metis. Returns the
/// coarse graph and the fine->coarse vertex map.
struct CoarseningStep {
  Graph coarse;
  std::vector<std::int32_t> fine_to_coarse;
};

/// Heavy-edge matching: walk the shuffled order, pair each unmatched
/// vertex with its unmatched neighbor across the heaviest edge (first
/// occurrence wins ties via the strict comparison).
void match_heavy_edges(const Graph& fine,
                       const std::vector<std::int32_t>& order,
                       std::vector<std::int32_t>& match) {
  const std::int64_t* const xadj = fine.xadj.data();
  const std::int32_t* const adjncy = fine.adjncy.data();
  const std::int32_t* const ewgt = fine.ewgt.data();
  const std::size_t count = order.size();
  for (std::size_t oi = 0; oi < count; ++oi) {
    if (oi + 8 < count) {
      // The shuffled order makes both loads effectively random; telling
      // the prefetcher a few iterations ahead hides most of the misses.
      const std::int32_t pv = order[oi + 8];
      __builtin_prefetch(&match[static_cast<std::size_t>(pv)]);
      __builtin_prefetch(&xadj[pv]);
    }
    const std::int32_t v = order[oi];
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    std::int32_t best = -1;
    std::int32_t best_weight = -1;
    for (std::int64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
      const std::int32_t u = adjncy[e];
      if (match[static_cast<std::size_t>(u)] != -1) continue;
      if (ewgt[e] > best_weight) {
        best_weight = ewgt[e];
        best = u;
      }
    }
    if (best != -1) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    } else {
      match[static_cast<std::size_t>(v)] = v;  // stays single
    }
  }
}

CoarseningStep coarsen_once(const Graph& fine, util::Rng& rng) {
  const std::int32_t n = fine.num_vertices();
  std::vector<std::int32_t> match(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  match_heavy_edges(fine, order, match);

  CoarseningStep step;
  step.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  std::int32_t coarse_count = 0;
  for (std::int32_t v = 0; v < n; ++v) {
    if (step.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    const std::int32_t partner = match[static_cast<std::size_t>(v)];
    step.fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
    step.fine_to_coarse[static_cast<std::size_t>(partner)] = coarse_count;
    ++coarse_count;
  }

  Graph& coarse = step.coarse;
  coarse.vwgt.assign(static_cast<std::size_t>(coarse_count), 0);
  for (std::int32_t v = 0; v < n; ++v) {
    coarse.vwgt[static_cast<std::size_t>(
        step.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        fine.vwgt[static_cast<std::size_t>(v)];
  }

  // Members of each coarse vertex (a matched pair or a singleton).
  std::vector<std::array<std::int32_t, 2>> members(
      static_cast<std::size_t>(coarse_count), {-1, -1});
  for (std::int32_t v = 0; v < n; ++v) {
    auto& slot = members[static_cast<std::size_t>(
        step.fine_to_coarse[static_cast<std::size_t>(v)])];
    if (slot[0] == -1) {
      slot[0] = v;
    } else if (slot[0] != v) {
      slot[1] = v;
    }
  }

  // Aggregate edges between coarse vertices. A coarse vertex merges at
  // most two fine adjacency lists, so deduplicating with a linear scan
  // over its own (short) output range beats a scatter array: no O(n)
  // clearing, and the range being scanned is the cache line just
  // written. Coarse vertices are emitted in order and neighbors in
  // first-occurrence order — the same lists the scatter version built.
  const std::int64_t* const fxadj = fine.xadj.data();
  const std::int32_t* const fadjncy = fine.adjncy.data();
  const std::int32_t* const fewgt = fine.ewgt.data();
  const std::int32_t* const f2c = step.fine_to_coarse.data();

  coarse.xadj.reserve(static_cast<std::size_t>(coarse_count) + 1);
  coarse.xadj.push_back(0);
  // Upper bound: coarsening only ever collapses or merges fine edges.
  coarse.adjncy.reserve(fine.adjncy.size());
  coarse.ewgt.reserve(fine.adjncy.size());
  for (std::int32_t cv = 0; cv < coarse_count; ++cv) {
    const std::size_t start = coarse.adjncy.size();
    for (std::int32_t v : members[static_cast<std::size_t>(cv)]) {
      if (v == -1) continue;
      for (std::int64_t e = fxadj[v]; e < fxadj[v + 1]; ++e) {
        const std::int32_t cu = f2c[fadjncy[e]];
        if (cu == cv) continue;  // edge collapses inside the coarse vertex
        std::size_t pos = start;
        const std::size_t filled = coarse.adjncy.size();
        while (pos < filled && coarse.adjncy[pos] != cu) ++pos;
        if (pos < filled) {
          coarse.ewgt[pos] += fewgt[e];
        } else {
          coarse.adjncy.push_back(cu);
          coarse.ewgt.push_back(fewgt[e]);
        }
      }
    }
    coarse.xadj.push_back(static_cast<std::int64_t>(coarse.adjncy.size()));
  }
  return step;
}

/// Greedy graph growing: grow parts 0..k-2 by BFS from a seed until each
/// reaches its weight target; the last part takes the remainder.
std::vector<PeId> initial_partition(const Graph& graph, std::int32_t parts,
                                    util::Rng& rng) {
  const std::int32_t n = graph.num_vertices();
  const std::int64_t total = graph.total_vertex_weight();
  std::vector<PeId> part(static_cast<std::size_t>(n), -1);
  std::int32_t unassigned = n;

  for (PeId p = 0; p < parts - 1; ++p) {
    const std::int64_t target = total / parts;
    // Seed: the first of up to 16 uniform draws that hits an unassigned
    // vertex (any one, adjacent to an assigned region or not), else the
    // lowest-numbered unassigned vertex. These draws feed every checksum.
    std::int32_t seed = -1;
    for (std::int32_t attempt = 0; attempt < 16 && seed == -1; ++attempt) {
      const auto v = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (part[static_cast<std::size_t>(v)] == -1) seed = v;
    }
    if (seed == -1) {
      for (std::int32_t v = 0; v < n; ++v) {
        if (part[static_cast<std::size_t>(v)] == -1) {
          seed = v;
          break;
        }
      }
    }
    if (seed == -1) break;  // everything assigned already

    std::int64_t weight = 0;
    std::deque<std::int32_t> frontier{seed};
    part[static_cast<std::size_t>(seed)] = p;
    --unassigned;
    weight += graph.vwgt[static_cast<std::size_t>(seed)];
    while (weight < target && !frontier.empty()) {
      const std::int32_t v = frontier.front();
      frontier.pop_front();
      for (std::int32_t u : graph.neighbors(v)) {
        if (part[static_cast<std::size_t>(u)] != -1) continue;
        if (weight >= target) break;
        const std::int64_t w = graph.vwgt[static_cast<std::size_t>(u)];
        // Overshoot the target by at most half a vertex so coarse-level
        // parts start out balanced.
        if (weight + w > target + w / 2) continue;
        part[static_cast<std::size_t>(u)] = p;
        --unassigned;
        weight += w;
        frontier.push_back(u);
      }
    }
    // The BFS can stall inside a closed region; restart from any
    // unassigned vertex to honor the weight target.
    while (weight < target && unassigned > parts - 1 - p) {
      std::int32_t restart = -1;
      for (std::int32_t v = 0; v < n; ++v) {
        if (part[static_cast<std::size_t>(v)] == -1) {
          restart = v;
          break;
        }
      }
      if (restart == -1) break;
      part[static_cast<std::size_t>(restart)] = p;
      --unassigned;
      weight += graph.vwgt[static_cast<std::size_t>(restart)];
      frontier.push_back(restart);
      while (weight < target && !frontier.empty()) {
        const std::int32_t v = frontier.front();
        frontier.pop_front();
        for (std::int32_t u : graph.neighbors(v)) {
          if (part[static_cast<std::size_t>(u)] != -1) continue;
          if (weight >= target) break;
          part[static_cast<std::size_t>(u)] = p;
          --unassigned;
          weight += graph.vwgt[static_cast<std::size_t>(u)];
          frontier.push_back(u);
        }
      }
    }
  }
  for (std::int32_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == -1) {
      part[static_cast<std::size_t>(v)] = parts - 1;
    }
  }
  return part;
}

/// Greedy k-way FM-style refinement: repeatedly move boundary vertices
/// to the neighboring part with the best cut gain, subject to a balance
/// ceiling. Also performs balance repair moves when a part exceeds the
/// ceiling even at zero or negative gain.
///
/// A vertex's move decision depends only on its own part, its
/// neighbors' parts and edge weights, and the weights of the parts it
/// references (its own part and its neighbors' parts). Between passes
/// most of that state is untouched, so a pass visits only the boundary
/// vertices on a dirty worklist, in ascending vertex id. These events
/// push a vertex onto it:
///   - the start of the level (its first evaluation);
///   - a move of a neighbor (which also covers an interior vertex
///     becoming boundary);
///   - a "danger" weight change of a part it references: one that can
///     flip a predicate a decision reads (the balance-ceiling filter,
///     the overweight test, or the never-empty guard);
///   - any other weight change of a part it references while its own
///     part is overweight, because the balance-repair branch orders
///     candidates by exact weights.
/// A mover's own move is not an event for it: it is dirtied only through
/// its move's weight changes, as a vertex of its new part. The checksums
/// in tests/partition/determinism_test.cpp were recorded under exactly
/// these rules (docs/PERFORMANCE.md, "The dirty worklist"), so changing
/// them changes partitions.
///
/// Multilevel partitioning is one of the two largest layers of a cold
/// validation run (perfbench's traced validate_cold ledger on a 4-vCPU
/// host: partition.multilevel_s 2.5 s of a 6.3 s timed phase, next to
/// simapp.run_s at 2.9 s), and FM refinement is most of it, so it
/// carries the partition.fm.* probes: counters accumulate in locals and
/// record once per call, keeping the move loop free of atomics.
// krak: hot
void refine(const Graph& graph, std::int32_t parts, std::vector<PeId>& part,
            double max_imbalance) {
  const util::Stopwatch fm_watch;
  std::int64_t fm_passes = 0;
  std::int64_t fm_moves = 0;
  std::int64_t fm_evaluations = 0;
  const std::int32_t n = graph.num_vertices();
  const std::int64_t total = graph.total_vertex_weight();
  const auto ceiling = static_cast<std::int64_t>(
      std::ceil(static_cast<double>(total) / parts * max_imbalance));
  const auto over = [ceiling](std::int64_t w) -> int {
    return w > ceiling ? 1 : 0;
  };

  std::vector<std::int64_t> weight(static_cast<std::size_t>(parts), 0);
  for (std::int32_t v = 0; v < n; ++v) {
    weight[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        graph.vwgt[static_cast<std::size_t>(v)];
  }
  std::int32_t overweight_parts = 0;
  for (const std::int64_t w : weight) overweight_parts += over(w);

  // Connection weight of v to each part, computed on demand. `touched`
  // (the parts v connects to, in first-occurrence order — the move
  // loops' tie-break order) is hoisted out of the vertex loop: clearing
  // keeps its capacity, so steady state allocates nothing per vertex.
  std::vector<std::int64_t> conn(static_cast<std::size_t>(parts), 0);
  std::vector<PeId> touched;

  const std::int64_t* const xadj = graph.xadj.data();
  const std::int32_t* const adjncy = graph.adjncy.data();
  const std::int32_t* const ewgt = graph.ewgt.data();

  // Vertex sets as bitsets over vertex ids: `dirty` is the worklist,
  // `boundary` the vertices with a neighbor in another part (an interior
  // vertex can never move). Every vertex starts dirty; the tail bits past
  // n are never boundary, so they are never visited.
  const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
  std::vector<std::uint64_t> dirty(words, ~std::uint64_t{0});
  std::vector<std::uint64_t> boundary(words, 0);
  const auto word = [](std::int32_t v) {
    return static_cast<std::size_t>(v) / 64;
  };
  const auto bit = [](std::int32_t v) {
    return std::uint64_t{1} << (static_cast<std::uint32_t>(v) % 64);
  };
  const auto mark = [&](std::int32_t v) { dirty[word(v)] |= bit(v); };

  // Boundary membership depends only on a vertex's own part and its
  // neighbors' parts, so a move of v can only change the status of v and
  // of v's neighbors — exactly those are recomputed after each move.
  // Each part lists its boundary vertices (`slot` is a vertex's index in
  // its part's list, -1 when interior). A vertex referencing part p is
  // on p's list or adjacent to a vertex on it, which is how a weight
  // change of p finds the vertices to dirty.
  std::vector<std::vector<std::int32_t>> members(
      static_cast<std::size_t>(parts));
  std::vector<std::int32_t> slot(static_cast<std::size_t>(n), -1);
  const auto unlist = [&](std::int32_t v, PeId p) {
    std::vector<std::int32_t>& list = members[static_cast<std::size_t>(p)];
    std::int32_t& at = slot[static_cast<std::size_t>(v)];
    const std::int32_t last = list.back();
    list[static_cast<std::size_t>(at)] = last;
    slot[static_cast<std::size_t>(last)] = at;
    list.pop_back();
    at = -1;
    boundary[word(v)] &= ~bit(v);
  };
  const auto set_boundary = [&](std::int32_t v) {
    const PeId p = part[static_cast<std::size_t>(v)];
    bool now = false;
    for (std::int64_t e = xadj[v]; e < xadj[v + 1] && !now; ++e) {
      now = part[static_cast<std::size_t>(adjncy[e])] != p;
    }
    std::int32_t& at = slot[static_cast<std::size_t>(v)];
    if (now == (at >= 0)) return;
    if (!now) {
      unlist(v, p);
      return;
    }
    std::vector<std::int32_t>& list = members[static_cast<std::size_t>(p)];
    at = static_cast<std::int32_t>(list.size());
    list.push_back(v);
    boundary[word(v)] |= bit(v);
  };
  for (std::int32_t v = 0; v < n; ++v) set_boundary(v);

  std::int64_t max_vw = 0;
  for (const std::int32_t w : graph.vwgt) {
    max_vw = std::max<std::int64_t>(max_vw, w);
  }

  // Dirty the vertices whose decision inputs changed when part p's
  // weight went from old_w to its current weight. A danger change can
  // flip a predicate some vertex's decision reads: the ceiling filter
  // (weight + vw > ceiling for vw in [1, max_vw]), the overweight test
  // (weight > ceiling), or the never-empty guard (weight - vw > 0); it
  // dirties every boundary vertex referencing p. Any other change
  // dirties only those whose own part is overweight. (Interior vertices
  // of p may be dirtied too; they are not visited while interior, and
  // turning boundary dirties them anyway.)
  const auto weight_changed = [&](PeId p, std::int64_t old_w) {
    const std::int64_t new_w = weight[static_cast<std::size_t>(p)];
    const std::int64_t lo = std::min(old_w, new_w);
    const std::int64_t hi = std::max(old_w, new_w);
    const bool danger = (lo <= ceiling - 1 && hi > ceiling - max_vw) ||
                        (lo <= ceiling && hi > ceiling) ||
                        (lo <= max_vw && hi > 1);
    if (!danger && overweight_parts == 0) return;
    const bool own = danger || over(new_w) != 0;
    for (const std::int32_t w : members[static_cast<std::size_t>(p)]) {
      if (own) mark(w);
      for (std::int64_t e = xadj[w]; e < xadj[w + 1]; ++e) {
        const std::int32_t u = adjncy[e];
        if (danger || over(weight[static_cast<std::size_t>(
                          part[static_cast<std::size_t>(u)])]) != 0) {
          mark(u);
        }
      }
    }
  };

  const auto apply_move = [&](std::int32_t v, PeId from, PeId to,
                              std::int64_t vw) {
    // v leaves its old part's boundary list before its part changes.
    if (slot[static_cast<std::size_t>(v)] >= 0) unlist(v, from);
    part[static_cast<std::size_t>(v)] = to;
    const std::int64_t old_from = weight[static_cast<std::size_t>(from)];
    const std::int64_t old_to = weight[static_cast<std::size_t>(to)];
    weight[static_cast<std::size_t>(from)] = old_from - vw;
    weight[static_cast<std::size_t>(to)] = old_to + vw;
    overweight_parts += over(old_from - vw) - over(old_from) +
                        over(old_to + vw) - over(old_to);
    set_boundary(v);
    for (std::int64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
      const std::int32_t u = adjncy[e];
      set_boundary(u);
      mark(u);
    }
    weight_changed(from, old_from);
    weight_changed(to, old_to);
  };

  // The move decision of v against the current assignment. Returns
  // `from` for "stay".
  const auto evaluate_move = [&](std::int32_t v) -> PeId {
    const PeId from = part[static_cast<std::size_t>(v)];
    touched.clear();
    for (std::int64_t e = xadj[v]; e < xadj[v + 1]; ++e) {
      const PeId p = part[static_cast<std::size_t>(adjncy[e])];
      if (conn[static_cast<std::size_t>(p)] == 0) touched.push_back(p);
      conn[static_cast<std::size_t>(p)] += ewgt[e];
    }
    const std::int64_t vw = graph.vwgt[static_cast<std::size_t>(v)];
    const std::int64_t internal = conn[static_cast<std::size_t>(from)];
    PeId best_part = from;
    std::int64_t best_gain = 0;
    if (weight[static_cast<std::size_t>(from)] > ceiling) {
      // Balance repair: bleed the overweight part toward its lightest
      // adjacent part, taking cut gain only as tie-break. Negative-gain
      // moves are allowed — restoring balance beats edge cut here
      // (Metis behaves the same way).
      std::int64_t best_weight = weight[static_cast<std::size_t>(from)] - vw;
      for (PeId p : touched) {
        if (p == from) continue;
        const std::int64_t gain = conn[static_cast<std::size_t>(p)] - internal;
        const std::int64_t w = weight[static_cast<std::size_t>(p)];
        if (w + vw >= weight[static_cast<std::size_t>(from)]) continue;
        if (w < best_weight ||
            (w == best_weight && best_part != from && gain > best_gain)) {
          best_weight = w;
          best_gain = gain;
          best_part = p;
        }
      }
    } else {
      for (PeId p : touched) {
        if (p == from) continue;
        const std::int64_t gain = conn[static_cast<std::size_t>(p)] - internal;
        if (weight[static_cast<std::size_t>(p)] + vw > ceiling) continue;
        if (gain > best_gain) {
          best_gain = gain;
          best_part = p;
        }
      }
    }
    for (PeId p : touched) conn[static_cast<std::size_t>(p)] = 0;
    return best_part;
  };

  // Each pass walks dirty ∩ boundary in ascending vertex id. The word
  // under the cursor is re-read after every evaluation, so a vertex a
  // move dirtied ahead of the cursor is still visited in this pass and
  // one behind it waits for the next; the checksums depend on this
  // order.
  constexpr int kMaxPasses = 32;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    ++fm_passes;
    bool moved_any = false;
    for (std::size_t wi = 0; wi < words; ++wi) {
      std::uint64_t pending = dirty[wi] & boundary[wi];
      while (pending != 0) {
        const int b = std::countr_zero(pending);
        const auto v = static_cast<std::int32_t>(wi * 64) + b;
        dirty[wi] &= ~(std::uint64_t{1} << b);
        ++fm_evaluations;
        const PeId from = part[static_cast<std::size_t>(v)];
        const PeId best_part = evaluate_move(v);
        const std::int64_t vw = graph.vwgt[static_cast<std::size_t>(v)];
        // Never empty a part: the model indexes every PE.
        if (best_part != from &&
            weight[static_cast<std::size_t>(from)] - vw > 0) {
          apply_move(v, from, best_part, vw);
          moved_any = true;
          ++fm_moves;
        }
        pending = dirty[wi] & boundary[wi] & (~std::uint64_t{0} << b << 1);
      }
    }
    if (!moved_any) break;
  }
  obs::Registry& registry = obs::global_registry();
  registry.timer("partition.fm.seconds").record(fm_watch.seconds());
  registry.counter("partition.fm.passes").add(fm_passes);
  registry.counter("partition.fm.moves").add(fm_moves);
  registry.counter("partition.fm.evaluations").add(fm_evaluations);
}

// --- coarsening ladder cache ---------------------------------------------
//
// Coarsening is independent of the part count: the RNG consumes draws
// only through the per-level shuffles, so for a fixed (graph, seed) the
// sequence of coarse graphs is the same whether the caller wants 128 or
// 512 parts — a larger part count merely stops higher up the ladder.
// Campaigns partition each deck at several PE counts, so the ladder is
// memoized per (graph identity, seed): later calls replay the shared
// prefix and only refinement runs per part count. Each level snapshots
// the RNG state it left behind so a replayed query resumes the draw
// sequence exactly where a fresh run would be; a stalled attempt (the
// 19/20 shrink test failing) is recorded too, because the attempt
// consumes draws even though its graph is discarded.

struct LadderLevel {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const std::vector<std::int32_t>> map;
  util::Rng::State rng_after;
};

struct CoarseningLadder {
  std::vector<LadderLevel> levels;
  bool stalled = false;  ///< one more step from the deepest level stalls
  util::Rng::State rng_after_stall;
};

class LadderCache {
 public:
  static LadderCache& instance() {
    static LadderCache cache;
    return cache;
  }

  /// One caller's hold on a key's ladder for the span of its coarsening.
  /// Concurrent first callers of one key would otherwise all miss and
  /// each coarsen the same ladder, so a claim waits while another caller
  /// holds its key, then finds the ladder that caller stored: a hit.
  class Claim {
   public:
    Claim(LadderCache& cache, std::uint64_t key) : cache_(cache), key_(key) {
      std::unique_lock<std::mutex> lock(cache_.mutex_);
      cache_.released_.wait(lock,
                            [&] { return !cache_.claimed_.contains(key); });
      cache_.claimed_.insert(key);
      for (auto it = cache_.entries_.begin(); it != cache_.entries_.end();
           ++it) {
        if (it->first == key) {
          cache_.entries_.splice(cache_.entries_.begin(), cache_.entries_, it);
          cached_ = it->second;
          break;
        }
      }
    }
    ~Claim() {
      {
        const std::lock_guard<std::mutex> lock(cache_.mutex_);
        cache_.claimed_.erase(key_);
      }
      cache_.released_.notify_all();
    }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

    /// The key's ladder when the claim was granted; nullptr on a miss.
    [[nodiscard]] const std::shared_ptr<const CoarseningLadder>& cached()
        const {
      return cached_;
    }

    /// Publishes an extension: entries are immutable, so the extended
    /// ladder replaces the key's entry.
    void store(std::shared_ptr<const CoarseningLadder> value) {
      const std::lock_guard<std::mutex> lock(cache_.mutex_);
      std::erase_if(cache_.entries_,
                    [&](const auto& entry) { return entry.first == key_; });
      cache_.entries_.emplace_front(key_, std::move(value));
      // Ladders hold full coarse graphs (roughly the fine graph's size
      // across all levels), so keep only the few decks a campaign
      // cycles through.
      constexpr std::size_t kMaxEntries = 4;
      while (cache_.entries_.size() > kMaxEntries) cache_.entries_.pop_back();
    }

   private:
    LadderCache& cache_;
    std::uint64_t key_;
    std::shared_ptr<const CoarseningLadder> cached_;
  };

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
  }

 private:
  std::mutex mutex_;
  /// Signalled whenever a claim ends.
  std::condition_variable released_;
  /// Keys some caller is coarsening now.
  std::set<std::uint64_t> claimed_;
  std::list<std::pair<std::uint64_t, std::shared_ptr<const CoarseningLadder>>>
      entries_;
};

std::uint64_t fnv_mix(std::uint64_t hash, const void* data, std::size_t size) {
  // Word-at-a-time FNV-1a: one multiply per 8 bytes instead of per
  // byte, fast enough to fingerprint multi-megabyte CSR arrays.
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    hash ^= word;
    hash *= 0x100000001b3ull;
  }
  for (; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t ladder_cache_key(const Graph& graph, std::uint64_t seed,
                               const std::optional<std::uint64_t>& provided) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const std::uint64_t tag = provided.has_value() ? 1 : 0;
  hash = fnv_mix(hash, &tag, sizeof(tag));
  hash = fnv_mix(hash, &seed, sizeof(seed));
  if (provided.has_value()) {
    const std::uint64_t value = *provided;
    return fnv_mix(hash, &value, sizeof(value));
  }
  const std::int64_t n = graph.num_vertices();
  hash = fnv_mix(hash, &n, sizeof(n));
  hash = fnv_mix(hash, graph.xadj.data(),
                 graph.xadj.size() * sizeof(graph.xadj[0]));
  hash = fnv_mix(hash, graph.adjncy.data(),
                 graph.adjncy.size() * sizeof(graph.adjncy[0]));
  hash = fnv_mix(hash, graph.vwgt.data(),
                 graph.vwgt.size() * sizeof(graph.vwgt[0]));
  hash = fnv_mix(hash, graph.ewgt.data(),
                 graph.ewgt.size() * sizeof(graph.ewgt[0]));
  return hash;
}

}  // namespace

void clear_multilevel_ladder_cache() { LadderCache::instance().clear(); }

Partition partition_multilevel(const Graph& graph, std::int32_t parts,
                               std::uint64_t seed,
                               std::optional<std::uint64_t> ladder_key) {
  KRAK_REQUIRE(parts > 0, "partition_multilevel requires parts > 0");
  KRAK_REQUIRE(graph.num_vertices() >= parts, "more parts than vertices");
  util::Rng rng(seed);

  if (parts == 1) {
    return Partition(1, std::vector<PeId>(
                            static_cast<std::size_t>(graph.num_vertices()), 0));
  }

  // Coarsen until the graph is small relative to the part count or
  // matching stops shrinking it, replaying cached ladder levels where
  // available.
  const util::Stopwatch coarsen_watch;
  // Held until the ladder is published: refinement runs concurrently
  // with other callers of the key.
  std::optional<LadderCache::Claim> claim;
  claim.emplace(LadderCache::instance(),
                ladder_cache_key(graph, seed, ladder_key));
  obs::global_registry()
      .counter(claim->cached() != nullptr ? "partition.ladder.hits"
                                          : "partition.ladder.misses")
      .add();
  CoarseningLadder working;
  if (claim->cached() != nullptr) {
    working = *claim->cached();  // shallow: levels are shared
  }

  std::vector<const Graph*> levels{&graph};
  std::vector<const std::vector<std::int32_t>*> maps;
  util::Rng::State rng_state = rng.state();
  const std::int32_t coarse_target = std::max(parts * 16, 256);
  bool extended = false;
  std::size_t depth = 0;
  while (levels.back()->num_vertices() > coarse_target) {
    if (depth < working.levels.size()) {
      const LadderLevel& level = working.levels[depth];
      maps.push_back(level.map.get());
      levels.push_back(level.graph.get());
      rng_state = level.rng_after;
      ++depth;
      continue;
    }
    if (working.stalled) {
      // The next attempt is known to stall; its only lasting effect is
      // the RNG draws it consumed.
      rng_state = working.rng_after_stall;
      break;
    }
    rng.restore(rng_state);
    CoarseningStep step = coarsen_once(*levels.back(), rng);
    extended = true;
    if (step.coarse.num_vertices() >=
        levels.back()->num_vertices() * 19 / 20) {
      working.stalled = true;
      working.rng_after_stall = rng.state();
      rng_state = working.rng_after_stall;
      break;  // diminishing returns; stop coarsening
    }
    LadderLevel level;
    level.graph = std::make_shared<const Graph>(std::move(step.coarse));
    level.map = std::make_shared<const std::vector<std::int32_t>>(
        std::move(step.fine_to_coarse));
    level.rng_after = rng.state();
    maps.push_back(level.map.get());
    levels.push_back(level.graph.get());
    rng_state = level.rng_after;
    working.levels.push_back(std::move(level));
    ++depth;
  }
  // Pin the levels this call uses (the cache may evict concurrently),
  // and publish any extension.
  std::shared_ptr<const CoarseningLadder> pinned;
  if (extended) {
    pinned = std::make_shared<const CoarseningLadder>(std::move(working));
    claim->store(pinned);
  } else {
    pinned = claim->cached();
  }
  claim.reset();
  rng.restore(rng_state);
  const double coarsen_seconds = coarsen_watch.seconds();

  constexpr double kMaxImbalance = 1.02;
  const util::Stopwatch init_watch;
  std::vector<PeId> part = initial_partition(*levels.back(), parts, rng);
  const double init_seconds = init_watch.seconds();

  const util::Stopwatch refine_watch;
  refine(*levels.back(), parts, part, kMaxImbalance);

  // Uncoarsen: project to each finer level and refine.
  for (std::size_t level = maps.size(); level-- > 0;) {
    const Graph& fine = *levels[level];
    const std::vector<std::int32_t>& map = *maps[level];
    std::vector<PeId> fine_part(static_cast<std::size_t>(fine.num_vertices()));
    for (std::int32_t v = 0; v < fine.num_vertices(); ++v) {
      fine_part[static_cast<std::size_t>(v)] =
          part[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    }
    part = std::move(fine_part);
    refine(fine, parts, part, kMaxImbalance);
  }
  const double refine_seconds = refine_watch.seconds();

  obs::Registry& registry = obs::global_registry();
  registry.timer("partition.coarsen.seconds").record(coarsen_seconds);
  registry.timer("partition.init.seconds").record(init_seconds);
  registry.timer("partition.refine.seconds").record(refine_seconds);

  // Guarantee no part is empty (tiny graphs with aggressive growing can
  // starve the last parts): steal single cells from the largest part.
  std::vector<std::int64_t> weight(static_cast<std::size_t>(parts), 0);
  for (PeId p : part) ++weight[static_cast<std::size_t>(p)];
  for (PeId p = 0; p < parts; ++p) {
    if (weight[static_cast<std::size_t>(p)] > 0) continue;
    const auto largest = static_cast<PeId>(
        std::max_element(weight.begin(), weight.end()) - weight.begin());
    for (std::size_t v = 0; v < part.size(); ++v) {
      if (part[v] == largest) {
        part[v] = p;
        --weight[static_cast<std::size_t>(largest)];
        ++weight[static_cast<std::size_t>(p)];
        break;
      }
    }
  }

  return Partition(parts, std::move(part));
}

}  // namespace krak::partition
