// Windowed metric views: the difference between two registry snapshots,
// turned into what an operator actually asks of a live server — current QPS,
// per-window stage percentiles, shed/degradation ratios over the last N
// seconds — instead of the monotonic since-startup totals the registry
// keeps.
//
// Snapshots are monotonic (obs/metrics.h), so a window is a pure diff:
// counter deltas divide by the interval into rates, and histogram BUCKET
// deltas form a valid interval histogram whose percentiles describe only the
// samples recorded inside the window (the exact `max` is not recoverable
// from a diff — the interval max is bounded by its highest non-empty
// bucket). Nothing here touches the hot path: diffing is snapshot-side work
// the HTTP exporter or a CLI does on demand.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rpq::obs {

struct JsonValue;  // obs/json.h

/// One counter over a window: how much it moved and how fast.
struct WindowedCounter {
  std::string name;
  uint64_t delta = 0;
  double rate = 0;  ///< delta / interval_seconds
};

/// One histogram over a window: only the samples recorded inside it.
/// `interval.max` is the upper bound of the highest non-empty delta bucket
/// (the exact in-window max is not recoverable from two cumulative views).
struct WindowedHistogram {
  std::string name;
  HistogramData interval;
};

/// The diff of two snapshots taken `interval_seconds` apart.
struct WindowedView {
  double interval_seconds = 0;
  std::vector<WindowedCounter> counters;
  std::vector<WindowedHistogram> histograms;

  const WindowedCounter* FindCounter(const std::string& name) const;
  const WindowedHistogram* FindHistogram(const std::string& name) const;

  /// Counter delta / rate by name; 0 when the counter is absent.
  uint64_t Delta(const std::string& name) const;
  double Rate(const std::string& name) const;
};

/// Diffs `newer - older`. Metrics absent from `older` (registered after the
/// baseline was taken) diff against zero; metrics absent from `newer` are
/// dropped. Values that went backwards (only possible when the inputs are
/// not really two snapshots of one process) clamp to zero rather than wrap.
WindowedView DiffSnapshots(const Snapshot& older, const Snapshot& newer,
                           double interval_seconds);

/// The serving-health summary /health and the serve-bench report derive from
/// a window: current throughput and how much of it is degraded.
struct ServingWindow {
  double interval_seconds = 0;
  double qps = 0;               ///< serve.completed rate
  uint64_t completed = 0;       ///< serve.completed delta
  double shed_ratio = 0;        ///< serve.shed / completed
  double deadline_ratio = 0;    ///< serve.deadline_exceeded / completed
  double brownout_ratio = 0;    ///< serve.brownout / completed
  uint64_t shards_lost = 0;     ///< serve.shard_lost delta
  uint64_t hedges = 0;          ///< serve.hedges delta
  /// serve.latency_ns interval percentiles, in milliseconds (0 when the
  /// window saw no completed-latency samples).
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
};

ServingWindow SummarizeServing(const WindowedView& view);

/// Reconstructs a Snapshot from a parsed DumpJson (v1) document, buckets
/// included, so offline tooling (metrics-validate --diff) can
/// window two saved snapshots exactly like the live exporter does.
bool SnapshotFromJson(const JsonValue& root, Snapshot* out, std::string* error);

}  // namespace rpq::obs
