#include "graph/hnsw.h"

#include <algorithm>
#include <cmath>

#include "common/distance.h"
#include "common/logging.h"
#include "graph/beam_search.h"

namespace rpq::graph {

HnswIndex::HnswIndex(const Dataset& base, const HnswOptions& options)
    : base_(base),
      opt_(options),
      level_mult_(1.0 / std::log(static_cast<double>(options.m))),
      rng_(options.seed),
      node_level_(base.size(), 0),
      visited_(base.size()) {}

std::unique_ptr<HnswIndex> HnswIndex::Build(const Dataset& base,
                                            const HnswOptions& options) {
  RPQ_CHECK(!base.empty());
  auto index = std::unique_ptr<HnswIndex>(new HnswIndex(base, options));
  for (uint32_t i = 0; i < base.size(); ++i) index->Insert(i);
  return index;
}

std::vector<Neighbor> HnswIndex::SearchLayer(const float* query, uint32_t entry,
                                             size_t ef, size_t level) const {
  // One layer's best-first search over the shared beam-expansion core (the
  // same step graph::BeamSearch runs), on this layer's adjacency lists.
  const auto& layer = adj_[level];
  const auto dist = [&](uint32_t u) {
    return SquaredL2(query, base_[u], base_.dim());
  };
  visited_.NextEpoch();
  detail::FlatBeam beam(ef);  // ascending, size <= ef
  detail::ExpandScratch scratch(2 * opt_.m);
  detail::SeedEntry(beam, visited_, dist, entry, nullptr);
  for (size_t next = beam.NextUnexpanded(); next != detail::FlatBeam::kNone;
       next = beam.NextUnexpanded()) {
    beam.MarkExpanded(next);
    const uint32_t v = beam.entries()[next].id;
    detail::ExpandNeighbors(beam, visited_, dist, v, layer[v].data(),
                            layer[v].size(), scratch, nullptr);
  }
  std::vector<Neighbor> out;
  out.reserve(beam.entries().size());
  for (const auto& e : beam.entries()) out.push_back({e.dist, e.id});
  return out;
}

uint32_t HnswIndex::DescendTo(const float* query, size_t level) const {
  uint32_t cur = entry_;
  for (size_t l = max_level_; l > level; --l) {
    float cur_d = SquaredL2(query, base_[cur], base_.dim());
    for (bool improved = true; improved;) {
      improved = false;
      for (uint32_t u : adj_[l][cur]) {
        const float d = SquaredL2(query, base_[u], base_.dim());
        if (d < cur_d) {
          cur_d = d;
          cur = u;
          improved = true;
        }
      }
    }
  }
  return cur;
}

std::vector<uint32_t> HnswIndex::SelectNeighbors(const float* /*query*/,
                                                 std::vector<Neighbor> candidates,
                                                 size_t m) const {
  // Malkov Algorithm 4: keep a candidate only if it is closer to the query
  // than to every already-selected neighbor (encourages diverse directions).
  std::sort(candidates.begin(), candidates.end());
  std::vector<uint32_t> selected;
  selected.reserve(m);
  for (const Neighbor& c : candidates) {
    if (selected.size() >= m) break;
    bool keep = true;
    for (uint32_t s : selected) {
      float d_cs = SquaredL2(base_[c.id], base_[s], base_.dim());
      if (d_cs < c.dist) {
        keep = false;
        break;
      }
    }
    if (keep) selected.push_back(c.id);
  }
  // Backfill with nearest rejected candidates if diversity pruned too much.
  if (selected.size() < m) {
    for (const Neighbor& c : candidates) {
      if (selected.size() >= m) break;
      if (std::find(selected.begin(), selected.end(), c.id) == selected.end()) {
        selected.push_back(c.id);
      }
    }
  }
  return selected;
}

void HnswIndex::Insert(uint32_t id) {
  size_t level = static_cast<size_t>(
      -std::log(std::max(1e-12f, rng_.Uniform(0.0f, 1.0f))) * level_mult_);
  node_level_[id] = level;

  while (adj_.size() <= level) {
    adj_.emplace_back(base_.size());
  }

  if (num_inserted_ == 0) {
    entry_ = id;
    max_level_ = level;
    ++num_inserted_;
    return;
  }

  const float* query = base_[id];
  uint32_t cur = DescendTo(query, level);

  // Insert with ef-search on each layer from min(level, max_level_) down to 0.
  for (size_t l = std::min(level, max_level_) + 1; l-- > 0;) {
    auto candidates = SearchLayer(query, cur, opt_.ef_construction, l);
    if (!candidates.empty()) cur = candidates.front().id;
    size_t m_layer = (l == 0) ? opt_.m * 2 : opt_.m;
    auto selected = SelectNeighbors(query, candidates, opt_.m);
    auto& layer = adj_[l];
    layer[id] = selected;
    for (uint32_t u : selected) {
      layer[u].push_back(id);
      if (layer[u].size() > m_layer) {
        // Shrink with the same diversity heuristic.
        std::vector<Neighbor> cand;
        cand.reserve(layer[u].size());
        for (uint32_t w : layer[u]) {
          cand.push_back({SquaredL2(base_[u], base_[w], base_.dim()), w});
        }
        layer[u] = SelectNeighbors(base_[u], std::move(cand), m_layer);
      }
    }
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_ = id;
  }
  ++num_inserted_;
}

std::vector<Neighbor> HnswIndex::Search(const float* query, size_t k,
                                        size_t ef) const {
  auto beam = SearchLayer(query, DescendTo(query, 0), std::max(ef, k), 0);
  if (beam.size() > k) beam.resize(k);
  return beam;
}

ProximityGraph HnswIndex::Flatten() const {
  ProximityGraph g(base_.size());
  for (uint32_t v = 0; v < base_.size(); ++v) {
    g.Neighbors(v) = adj_[0][v];
  }
  g.set_entry_point(entry_);
  return g;
}

}  // namespace rpq::graph
