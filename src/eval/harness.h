// Shared experiment harness for the per-figure/table benchmark binaries:
// beam-width sweeps producing (recall, QPS, hops, I/O) operating points and
// interpolation of QPS at a target recall (how the paper reports
// "QPS at the same Recall@10 of 95%").
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/topk.h"
#include "data/dataset.h"

namespace rpq::eval {

/// What one query returned, plus its per-query costs.
struct SearchOutcome {
  std::vector<Neighbor> results;
  size_t hops = 0;
  double simulated_io_seconds = 0.0;  ///< 0 for in-memory methods
};

/// Callable evaluated by the sweep: (query ptr, k, beam width) -> outcome.
/// Fixed per-sweep knobs that are not the swept axis — a refinement request
/// (refine::RerankSpec width/mode), an IVF rerank width, a distance mode —
/// are captured inside the closure at the call site, so one sweep compares
/// operating points at otherwise-identical settings (see rpq_tool's
/// --sweep-nprobe and --rerank-mode plumbing).
using SearchFn =
    std::function<SearchOutcome(const float* query, size_t k, size_t beam)>;

/// One point of a QPS/recall trade-off curve.
struct OperatingPoint {
  size_t beam = 0;
  double recall = 0.0;
  double qps = 0.0;           ///< includes simulated I/O time if any
  double mean_hops = 0.0;
  double mean_io_ms = 0.0;    ///< simulated disk time per query (ms)
};

/// How the sweep replays the query set.
struct SweepOptions {
  /// Serving-engine worker threads. 1 (the default) replays serially —
  /// identical timing semantics to the original loop; >1 replays the
  /// queries concurrently and reports wall-clock QPS of the parallel run,
  /// so concurrent-throughput numbers stay honest. The SearchFn must be
  /// thread-safe (every bundled index's Search now is).
  size_t threads = 1;
};

/// Runs every query at every beam width; recall measured against `gt`.
/// The replay goes through serve::ServingEngine (see SweepOptions.threads);
/// recall math is independent of the replay order.
std::vector<OperatingPoint> SweepBeamWidths(
    const SearchFn& search, const Dataset& queries,
    const std::vector<std::vector<Neighbor>>& gt, size_t k,
    const std::vector<size_t>& beams, const SweepOptions& options = {});

/// IVF flavor of the sweep: identical machinery, but the swept knob is
/// nprobe — the SearchFn receives each value as its `beam` argument and
/// OperatingPoint.beam records it. Exists so IVF recall/QPS curves read as
/// what they are at call sites (see rpq_tool search --index ivf).
std::vector<OperatingPoint> SweepNprobe(
    const SearchFn& search, const Dataset& queries,
    const std::vector<std::vector<Neighbor>>& gt, size_t k,
    const std::vector<size_t>& nprobes, const SweepOptions& options = {});

/// Linear interpolation of QPS at `target_recall` along the curve. When the
/// curve never reaches the target, returns the QPS of the highest-recall
/// point (and sets *reached=false if provided).
double QpsAtRecall(const std::vector<OperatingPoint>& curve, double target_recall,
                   bool* reached = nullptr);

/// Same interpolation for mean hops at a target recall.
double HopsAtRecall(const std::vector<OperatingPoint>& curve, double target_recall);

/// Prints a curve as aligned columns (method name as the row prefix).
void PrintCurve(const std::string& method, const std::vector<OperatingPoint>& curve);

/// Writes a curve as machine-readable CSV: one header line
/// `<knob>,recall@10,us_per_query` then one row per operating point, where
/// the knob column carries OperatingPoint.beam under the caller's name
/// ("nprobe" for IVF sweeps) and us_per_query = 1e6 / qps. The format feeds
/// recorded curves such as BENCH_ivf.json and external plotting without
/// scraping the aligned-column output.
Status WriteCurveCsv(const std::string& path, const std::string& knob,
                     const std::vector<OperatingPoint>& curve);

}  // namespace rpq::eval
