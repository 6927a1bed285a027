// Pins the beam-search hot-loop rewrite to the straightforward reference
// formulation (sorted vector + parallel expanded flags + full rescan per
// step): identical results, stats, and observer traces, for scalar oracles,
// the batched ADC oracle and the FastScan neighbor-block oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/distance.h"
#include "data/synthetic.h"
#include "graph/beam_search.h"
#include "graph/vamana.h"
#include "quant/adc.h"
#include "quant/fastscan.h"
#include "quant/pq.h"

namespace rpq::graph {
namespace {

// The pre-rewrite implementation, kept verbatim as the behavioral reference.
template <typename DistFn>
std::vector<Neighbor> ReferenceBeamSearch(const ProximityGraph& g,
                                          uint32_t entry, DistFn&& dist,
                                          const BeamSearchOptions& opt,
                                          VisitedTable* visited,
                                          SearchStats* stats = nullptr,
                                          const StepObserver& observer = nullptr) {
  const size_t beam_width = std::max(opt.beam_width, opt.k);
  visited->NextEpoch();

  std::vector<Neighbor> beam;
  beam.reserve(beam_width + 1);
  std::vector<bool> expanded_flag;

  float d0 = dist(entry);
  if (stats != nullptr) ++stats->dist_comps;
  beam.push_back({d0, entry});
  expanded_flag.push_back(false);
  visited->MarkVisited(entry);

  auto insert_candidate = [&](float d, uint32_t id) {
    if (beam.size() >= beam_width && !(Neighbor{d, id} < beam.back())) return;
    Neighbor cand{d, id};
    auto it = std::lower_bound(beam.begin(), beam.end(), cand);
    size_t pos = static_cast<size_t>(it - beam.begin());
    beam.insert(it, cand);
    expanded_flag.insert(expanded_flag.begin() + pos, false);
    if (beam.size() > beam_width) {
      beam.pop_back();
      expanded_flag.pop_back();
    }
  };

  for (;;) {
    size_t next = beam.size();
    for (size_t i = 0; i < beam.size(); ++i) {
      if (!expanded_flag[i]) {
        next = i;
        break;
      }
    }
    if (next == beam.size()) break;

    if (observer) observer(beam);
    expanded_flag[next] = true;
    uint32_t v = beam[next].id;
    if (stats != nullptr) ++stats->hops;

    for (uint32_t u : g.Neighbors(v)) {
      if (visited->Visited(u)) continue;
      visited->MarkVisited(u);
      float d = dist(u);
      if (stats != nullptr) ++stats->dist_comps;
      insert_candidate(d, u);
    }
  }

  if (beam.size() > opt.k) beam.resize(opt.k);
  return beam;
}

struct Fixture {
  Dataset base;
  Dataset queries;
  ProximityGraph g;

  explicit Fixture(uint64_t seed = 17) {
    synthetic::MakeBaseAndQueries("sift", 1500, 25, seed, &base, &queries);
    VamanaOptions opt;
    opt.degree = 16;
    opt.build_beam = 32;
    g = BuildVamana(base, opt);
  }
};

void ExpectSameResults(const std::vector<Neighbor>& got,
                       const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << "rank " << i;
  }
}

TEST(BeamRegressionTest, ExactOracleIdenticalToReference) {
  Fixture f;
  VisitedTable v_new(f.base.size()), v_ref(f.base.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    for (size_t beam : {4u, 16u, 64u}) {
      auto oracle = [&](uint32_t v) {
        return SquaredL2(f.queries[q], f.base[v], f.base.dim());
      };
      SearchStats s_new, s_ref;
      auto got = BeamSearch(f.g, f.g.entry_point(), oracle, {beam, 10}, &v_new,
                            &s_new);
      auto want = ReferenceBeamSearch(f.g, f.g.entry_point(), oracle,
                                      {beam, 10}, &v_ref, &s_ref);
      ExpectSameResults(got, want);
      EXPECT_EQ(s_new.hops, s_ref.hops);
      EXPECT_EQ(s_new.dist_comps, s_ref.dist_comps);
    }
  }
}

TEST(BeamRegressionTest, BatchedAdcOracleIdenticalToScalarReference) {
  Fixture f(23);
  quant::PqOptions popt;
  popt.m = 8;
  popt.k = 32;
  popt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(f.base, popt);
  auto codes = pq->EncodeDataset(f.base);
  const size_t cs = pq->code_size();

  VisitedTable v_new(f.base.size()), v_ref(f.base.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    quant::AdcTable table(*pq, f.queries[q]);
    // New path: batched oracle. Reference path: per-vertex scalar lookups on
    // the same table. The batched kernels promise bit-identical sums.
    quant::AdcBatchOracle batch_oracle{table, codes.data(), cs};
    auto scalar_oracle = [&](uint32_t v) {
      return table.Distance(codes.data() + v * cs);
    };
    SearchStats s_new, s_ref;
    auto got = BeamSearch(f.g, f.g.entry_point(), batch_oracle, {32, 10},
                          &v_new, &s_new);
    auto want = ReferenceBeamSearch(f.g, f.g.entry_point(), scalar_oracle,
                                    {32, 10}, &v_ref, &s_ref);
    ExpectSameResults(got, want);
    EXPECT_EQ(s_new.hops, s_ref.hops);
    EXPECT_EQ(s_new.dist_comps, s_ref.dist_comps);
  }
}

TEST(BeamRegressionTest, FastScanNeighborBlockOracleIdenticalToScalarReference) {
  // The neighbor-block branch scores a vertex's whole adjacency and prunes on
  // the beam's worst distance before touching the visited table. Pruning only
  // drops candidates the beam could never keep, so ids, distances and hops
  // match the reference run over the same oracle's per-vertex estimate.
  // dist_comps and visited_hits legitimately differ (whole blocks are
  // scored, pruned candidates never reach the visited check).
  Fixture f(41);
  quant::PqOptions popt;
  popt.m = 8;
  popt.nbits = 4;
  popt.kmeans_iters = 4;
  auto pq = quant::PqQuantizer::Train(f.base, popt);
  auto codes = pq->EncodeDataset(f.base);
  const size_t cs = pq->code_size();
  auto blocks = quant::PackedNeighborBlocks::Build(f.g, codes.data(), cs);

  VisitedTable v_new(f.base.size()), v_ref(f.base.size());
  for (size_t q = 0; q < f.queries.size(); ++q) {
    quant::FastScanTable table(*pq, f.queries[q]);
    quant::FastScanNeighborOracle oracle(table, codes.data(), cs, blocks);
    static_assert(detail::kHasNeighborBlockScore<decltype(oracle)>);
    auto scalar_oracle = [&](uint32_t v) { return oracle(v); };
    for (size_t beam : {4u, 16u, 64u}) {
      SearchStats s_new, s_ref;
      auto got = BeamSearch(f.g, f.g.entry_point(), oracle, {beam, 10},
                            &v_new, &s_new);
      auto want = ReferenceBeamSearch(f.g, f.g.entry_point(), scalar_oracle,
                                      {beam, 10}, &v_ref, &s_ref);
      ExpectSameResults(got, want);
      EXPECT_EQ(s_new.hops, s_ref.hops) << "query " << q << " beam " << beam;
    }
  }
}

TEST(BeamRegressionTest, ObserverTraceIdenticalToReference) {
  Fixture f(31);
  VisitedTable v_new(f.base.size()), v_ref(f.base.size());
  auto oracle = [&](uint32_t v) {
    return SquaredL2(f.queries[0], f.base[v], f.base.dim());
  };
  std::vector<std::vector<Neighbor>> trace_new, trace_ref;
  BeamSearch(f.g, f.g.entry_point(), oracle, {16, 5}, &v_new, nullptr,
             [&](const std::vector<Neighbor>& b) { trace_new.push_back(b); });
  ReferenceBeamSearch(f.g, f.g.entry_point(), oracle, {16, 5}, &v_ref, nullptr,
                      [&](const std::vector<Neighbor>& b) {
                        trace_ref.push_back(b);
                      });
  ASSERT_EQ(trace_new.size(), trace_ref.size());
  for (size_t s = 0; s < trace_new.size(); ++s) {
    ASSERT_EQ(trace_new[s].size(), trace_ref[s].size()) << "step " << s;
    for (size_t i = 0; i < trace_new[s].size(); ++i) {
      EXPECT_EQ(trace_new[s][i].id, trace_ref[s][i].id);
      EXPECT_EQ(trace_new[s][i].dist, trace_ref[s][i].dist);
    }
  }
}

TEST(BeamRegressionTest, DegenerateGraphsMatchReference) {
  // Chain graph (forces full traversal) and single-vertex graph.
  Dataset d(50, 8);
  for (size_t i = 0; i < 50; ++i) d[i][0] = static_cast<float>(i);
  ProximityGraph chain(50);
  for (uint32_t v = 0; v + 1 < 50; ++v) chain.Neighbors(v).push_back(v + 1);
  chain.set_entry_point(0);
  float target = 37.f;
  auto oracle = [&](uint32_t v) { return (d[v][0] - target) * (d[v][0] - target); };
  VisitedTable v_new(50), v_ref(50);
  SearchStats s_new, s_ref;
  auto got = BeamSearch(chain, 0, oracle, {200, 3}, &v_new, &s_new);
  auto want = ReferenceBeamSearch(chain, 0, oracle, {200, 3}, &v_ref, &s_ref);
  ExpectSameResults(got, want);
  EXPECT_EQ(s_new.hops, s_ref.hops);
  EXPECT_EQ(s_new.dist_comps, s_ref.dist_comps);

  ProximityGraph lone(1);
  lone.set_entry_point(0);
  VisitedTable v1(1), v2(1);
  auto got1 = BeamSearch(lone, 0, oracle, {8, 5}, &v1);
  auto want1 = ReferenceBeamSearch(lone, 0, oracle, {8, 5}, &v2);
  ExpectSameResults(got1, want1);
}

}  // namespace
}  // namespace rpq::graph
