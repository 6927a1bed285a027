// Generic best-first beam search over a proximity graph (paper §3.1).
// The distance oracle is a template parameter so the same routine serves
// exact search, in-memory ADC search, and the hybrid DiskANN-style search.
//
// Hot-loop layout: the beam is one flat sorted array of {dist, id, expanded}
// entries (a single memmove per insert instead of a vector<Neighbor> plus a
// bit-packed vector<bool>), a cursor tracks the next unexpanded entry instead
// of rescanning the beam, and each expansion gathers its unvisited neighbors
// first so a batch-capable oracle (e.g. quant::AdcBatchOracle) can score them
// in one vectorized call. Results are identical to the straightforward
// insert-one-at-a-time formulation; tests/beam_regression_test.cc pins that.
//
// detail::SeedEntry and detail::ExpandNeighbors are the one expansion core:
// BeamSearch, the hybrid disk::DiskIndex::Search and HNSW's per-layer search
// all run them. tests/disk_test.cc pins disk traversal == BeamSearch.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/deadline.h"
#include "common/topk.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace rpq::graph {

/// Instrumentation collected per query (the paper reports Hops).
struct SearchStats {
  size_t hops = 0;          ///< next-hop selections (expanded vertices)
  size_t dist_comps = 0;    ///< distance-oracle invocations
  size_t visited_hits = 0;  ///< neighbors skipped because already visited
  bool deadline_hit = false;  ///< search stopped early at its deadline
};

/// Per-query roll-up of the traversal counters into the metrics registry
/// (`graph.hops`, `graph.dist_comps`, `graph.visited_hits`): one TLS add per
/// counter per query, never inside the traversal. Every graph backend
/// records through here. No-op while metrics are off.
inline void RecordSearchStats(const SearchStats& stats) {
  if (!obs::MetricsEnabled()) return;
  static const obs::CounterId hops = obs::GetCounter("graph.hops");
  static const obs::CounterId dist = obs::GetCounter("graph.dist_comps");
  static const obs::CounterId hits = obs::GetCounter("graph.visited_hits");
  obs::Add(hops, stats.hops);
  obs::Add(dist, stats.dist_comps);
  obs::Add(hits, stats.visited_hits);
}

/// Beam-search knobs; beam_width is `h` in the paper.
struct BeamSearchOptions {
  size_t beam_width = 32;
  size_t k = 10;
  /// Optional budget: checked once per hop; on expiry the search returns the
  /// best candidates found so far and sets SearchStats::deadline_hit.
  Deadline deadline;
};

/// How many ids ahead the neighbor-gather loop of detail::ExpandNeighbors
/// prefetches the visited-table stamp.
inline constexpr size_t kVisitedPrefetchDistance = 4;

/// Optional per-step observer: receives the ranked global candidate set
/// (ascending estimated distance, <= beam_width entries) right before each
/// expansion. Used by the routing-feature extractor (Alg. 2).
using StepObserver = std::function<void(const std::vector<Neighbor>& beam)>;

namespace detail {

/// True when the oracle exposes the batched form dist(ids, n, out); the
/// search then scores a whole expansion's neighbors per call.
template <typename DistFn>
inline constexpr bool kHasBatchScore =
    std::is_invocable_v<DistFn&, const uint32_t*, size_t, float*>;

/// True when the oracle scores a vertex's whole adjacency in one pass via
/// ScoreNeighbors(v, nbrs, deg, out) — the FastScan shape, where per-vertex
/// packed neighbor codes make scoring the full block (visited included)
/// cheaper than gathering the unvisited subset first
/// (quant::FastScanNeighborOracle).
template <typename DistFn, typename = void>
struct HasNeighborBlockScore : std::false_type {};
template <typename DistFn>
struct HasNeighborBlockScore<
    DistFn, std::void_t<decltype(std::declval<DistFn&>().ScoreNeighbors(
                uint32_t{}, static_cast<const uint32_t*>(nullptr), size_t{},
                static_cast<float*>(nullptr)))>> : std::true_type {};
template <typename DistFn>
inline constexpr bool kHasNeighborBlockScore =
    HasNeighborBlockScore<std::decay_t<DistFn>>::value;

/// Optional companion to ScoreNeighbors: PrefetchNeighbors(v) warms the
/// oracle's per-vertex data for a vertex about to be expanded.
template <typename DistFn, typename = void>
struct HasPrefetchNeighbors : std::false_type {};
template <typename DistFn>
struct HasPrefetchNeighbors<
    DistFn, std::void_t<decltype(std::declval<const DistFn&>().PrefetchNeighbors(
                uint32_t{}))>> : std::true_type {};
template <typename DistFn>
inline constexpr bool kHasPrefetchNeighbors =
    HasPrefetchNeighbors<std::decay_t<DistFn>>::value;

/// One beam slot; kept POD so inserts are a single memmove.
struct BeamEntry {
  float dist;
  uint32_t id;
  uint32_t expanded;
};

/// (dist, id) ordering; delegates to Neighbor::operator< so the determinism
/// tie-break is defined in exactly one place.
inline bool EntryBefore(const BeamEntry& e, float dist, uint32_t id) {
  return Neighbor{e.dist, e.id} < Neighbor{dist, id};
}

/// The flat-beam candidate set: one sorted POD array plus a cursor tracking
/// the next unexpanded entry. Shared by graph::BeamSearch and the hybrid
/// disk::DiskIndex::Search so the invariant lives (and is regression-tested)
/// in exactly one place.
class FlatBeam {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  explicit FlatBeam(size_t width) : width_(width) {
    entries_.reserve(width + 1);
  }

  const std::vector<BeamEntry>& entries() const { return entries_; }

  /// Bounded sorted insert; keeps at most `width` best (dist, id) entries.
  void Insert(float d, uint32_t id) {
    if (entries_.size() >= width_) {
      const BeamEntry& worst = entries_.back();
      if (!EntryBefore(BeamEntry{d, id, 0}, worst.dist, worst.id)) return;
    }
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               BeamEntry{d, id, 0},
                               [](const BeamEntry& e, const BeamEntry& c) {
                                 return EntryBefore(e, c.dist, c.id);
                               });
    size_t pos = static_cast<size_t>(it - entries_.begin());
    entries_.insert(it, BeamEntry{d, id, 0});
    if (entries_.size() > width_) entries_.pop_back();
    if (pos < cursor_) cursor_ = pos;
  }

  /// Distance of the current worst kept entry, or +inf while the beam still
  /// has room. Candidates strictly above this can never enter the beam (the
  /// worst only tightens), so block-scoring oracles prune on it before even
  /// touching the visited table.
  float WorstDist() const {
    return entries_.size() >= width_
               ? entries_.back().dist
               : std::numeric_limits<float>::infinity();
  }

  /// Index of the closest unexpanded entry, or kNone when converged. Does
  /// not mark it: callers flip `expanded` once they commit to the hop.
  size_t NextUnexpanded() {
    while (cursor_ < entries_.size() && entries_[cursor_].expanded != 0) {
      ++cursor_;
    }
    return cursor_ == entries_.size() ? kNone : cursor_;
  }

  void MarkExpanded(size_t pos) { entries_[pos].expanded = 1; }

 private:
  std::vector<BeamEntry> entries_;
  size_t width_;
  size_t cursor_ = 0;
};

/// Caller-owned per-query scratch for ExpandNeighbors, reserved once so the
/// hot loop never allocates: the unvisited neighbor ids of one expansion and
/// their estimated distances.
struct ExpandScratch {
  explicit ExpandScratch(size_t reserve) {
    ids.reserve(reserve);
    dists.reserve(reserve);
  }
  std::vector<uint32_t> ids;
  std::vector<float> dists;
};

/// Seeds a search at `entry`: scores it (through the single-vertex form when
/// the oracle has one), inserts it into the beam, marks it visited and
/// counts the distance computation.
template <typename DistFn>
inline void SeedEntry(FlatBeam& beam, VisitedTable& visited, DistFn& dist,
                      uint32_t entry, SearchStats* stats) {
  float d0;
  if constexpr (std::is_invocable_r_v<float, DistFn&, uint32_t>) {
    d0 = dist(entry);
  } else {
    dist(&entry, 1, &d0);
  }
  if (stats != nullptr) ++stats->dist_comps;
  beam.Insert(d0, entry);
  visited.MarkVisited(entry);
}

/// One beam expansion: scores vertex v's adjacency `nbrs[0, deg)` and
/// inserts every newly seen neighbor into the beam, marking it visited and
/// counting dist_comps / visited_hits into `stats` (may be null). The branch
/// is picked at compile time on the oracle type.
template <typename DistFn>
inline void ExpandNeighbors(FlatBeam& beam, VisitedTable& visited,
                            DistFn& dist, uint32_t v, const uint32_t* nbrs,
                            size_t deg, ExpandScratch& scratch,
                            SearchStats* stats) {
  if constexpr (kHasNeighborBlockScore<DistFn>) {
    // Neighbor-block oracle: score the WHOLE adjacency in one pass (the
    // packed block scores 32 codes per shuffle, so re-scoring visited
    // entries is cheaper than gathering the unvisited subset), then filter
    // on the way into the beam. Distance-first pruning: a candidate worse
    // than the beam's current worst can never be kept (the bound only
    // tightens), so it is dropped on a register compare without spending a
    // scattered visited-stamp load/store on it. Skipping its visited mark
    // is safe for the same reason — any later encounter prunes again.
    if (deg == 0) return;
    std::vector<float>& cand_dists = scratch.dists;
    cand_dists.resize(deg);
    dist.ScoreNeighbors(v, nbrs, deg, cand_dists.data());
    if (stats != nullptr) stats->dist_comps += deg;
    float worst = beam.WorstDist();
    for (size_t i = 0; i < deg; ++i) {
      if (cand_dists[i] > worst) continue;
      const uint32_t u = nbrs[i];
      if (visited.Visited(u)) {
        if (stats != nullptr) ++stats->visited_hits;
        continue;
      }
      visited.MarkVisited(u);
      beam.Insert(cand_dists[i], u);
      worst = beam.WorstDist();
    }
  } else {
    // Gather the unvisited neighbors first (prefetching visited stamps a
    // few ids ahead), then score them through the oracle — batched when it
    // can.
    (void)v;
    std::vector<uint32_t>& cand_ids = scratch.ids;
    std::vector<float>& cand_dists = scratch.dists;
    cand_ids.clear();
    for (size_t i = 0; i < deg; ++i) {
      if (i + kVisitedPrefetchDistance < deg) {
        visited.Prefetch(nbrs[i + kVisitedPrefetchDistance]);
      }
      const uint32_t u = nbrs[i];
      if (visited.Visited(u)) {
        if (stats != nullptr) ++stats->visited_hits;
        continue;
      }
      visited.MarkVisited(u);
      cand_ids.push_back(u);
    }
    if (cand_ids.empty()) return;

    cand_dists.resize(cand_ids.size());
    if constexpr (kHasBatchScore<DistFn>) {
      dist(cand_ids.data(), cand_ids.size(), cand_dists.data());
    } else {
      for (size_t i = 0; i < cand_ids.size(); ++i) {
        cand_dists[i] = dist(cand_ids[i]);
      }
    }
    if (stats != nullptr) stats->dist_comps += cand_ids.size();

    for (size_t i = 0; i < cand_ids.size(); ++i) {
      beam.Insert(cand_dists[i], cand_ids[i]);
    }
  }
}

}  // namespace detail

/// Runs beam search from `entry`; `dist(v)` returns the (estimated) distance
/// of vertex v to the query (oracles may additionally/instead provide the
/// batched form `dist(ids, n, out)`). Returns up to k results ascending by
/// distance.
template <typename DistFn>
std::vector<Neighbor> BeamSearch(const ProximityGraph& g, uint32_t entry,
                                 DistFn&& dist, const BeamSearchOptions& opt,
                                 VisitedTable* visited, SearchStats* stats = nullptr,
                                 const StepObserver& observer = nullptr) {
  const size_t beam_width = std::max(opt.beam_width, opt.k);
  visited->NextEpoch();

  detail::FlatBeam beam(beam_width);
  detail::ExpandScratch scratch(64);
  std::vector<Neighbor> observer_view;
  detail::SeedEntry(beam, *visited, dist, entry, stats);

  for (;;) {
    const size_t next = beam.NextUnexpanded();
    if (next == detail::FlatBeam::kNone) break;  // all expanded: converged
    if (opt.deadline.Expired()) {
      // Partial answer: everything inserted so far is still correctly
      // ranked, it just may not have converged.
      if (stats != nullptr) stats->deadline_hit = true;
      break;
    }

    if (observer) {
      observer_view.clear();
      observer_view.reserve(beam.entries().size());
      for (const auto& e : beam.entries()) {
        observer_view.push_back({e.dist, e.id});
      }
      observer(observer_view);
    }
    beam.MarkExpanded(next);
    const uint32_t v = beam.entries()[next].id;
    if (stats != nullptr) ++stats->hops;

    const std::vector<uint32_t>& nbrs = g.Neighbors(v);
    detail::ExpandNeighbors(beam, *visited, dist, v, nbrs.data(), nbrs.size(),
                            scratch, stats);
    // Kick off the next expansion's block fetch while this iteration's
    // bookkeeping (observer, stats, cursor walk) still runs.
    if constexpr (detail::kHasPrefetchNeighbors<DistFn>) {
      const size_t peek = beam.NextUnexpanded();
      if (peek != detail::FlatBeam::kNone) {
        dist.PrefetchNeighbors(beam.entries()[peek].id);
      }
    }
  }

  std::vector<Neighbor> results;
  const size_t out_n = std::min(opt.k, beam.entries().size());
  results.reserve(out_n);
  for (size_t i = 0; i < out_n; ++i) {
    results.push_back({beam.entries()[i].dist, beam.entries()[i].id});
  }
  return results;
}

}  // namespace rpq::graph
