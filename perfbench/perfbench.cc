// Repository benchmark driver: builds one workload from a seed, serves it
// through the public serve / core / disk / ivf APIs, checks every answer,
// and prints every metric by name with its unit. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
//
//   perfbench --workload graph_mem|disk_hybrid|ivf_stream|ivf_open
//             --seed N --seconds S --trace 0|1 [--trace-out spans.json]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
// run that reports the per-layer metrics and writes its spans to
// --trace-out. Every layer is measured from outside: the driver times its
// own calls into each module's public functions and reads the work counters
// those calls return (graph::SearchStats, disk::IoStats, ivf::IvfStats).
// README.md in this directory lists the workloads and the metric map.
#include <sys/resource.h>
#include <time.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/memory_index.h"
#include "core/trainer.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "eval/recall.h"
#include "graph/vamana.h"
#include "ivf/ivf_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/fastscan.h"
#include "quant/kmeans.h"
#include "quant/pq.h"
#include "quant/split.h"
#include "serve/engine.h"
#include "serve/ivf_service.h"
#include "serve/search_service.h"
#include "simd/simd.h"

namespace {

using rpq::Dataset;
using rpq::Neighbor;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- constants ---
// Shared fixture: the `sift` GMM generator, k = 10, 10000 queries. Many
// distinct queries keep p99 (the 100th slowest query) and recall from
// hanging on a handful of queries of one seed.
constexpr size_t kK = 10;
constexpr size_t kQueries = 10000;
// setup_s is the median of this many setups. The measured window is split
// into as many segments, one after each setup, all served by the first
// setup's deployment (the setups are bit-identical): the machine's speed
// drifts over seconds, and segments spread over the whole run average more
// of that drift than one contiguous window does.
constexpr int kSetupReps = 3;

// graph_mem / disk_hybrid: one Vamana graph (R = 32) over 6000 vectors.
constexpr size_t kGraphN = 6000;
constexpr size_t kGraphDegree = 32;
// graph_mem: RPQ 64 x 4-bit (32 B codes), FastScan routing, exact rerank.
constexpr size_t kRpqM = 64;
constexpr size_t kRpqEpochs = 1;
constexpr size_t kRpqTriplets = 256;
constexpr size_t kRpqRoutingQueries = 16;
constexpr size_t kMemBeam = 64;
constexpr size_t kMemRerank = 40;
// disk_hybrid: plain PQ 16 x 8 (16 B resident per vector), async device.
constexpr size_t kDiskPqM = 16;
constexpr size_t kDiskBeam = 32;
constexpr size_t kDiskQueueDepth = 8;
constexpr size_t kDiskIoWidth = 8;
constexpr size_t kDiskReadahead = 4;
// ivf_*: residual IVF, split K = 256 16 x 8 codes, stored vectors.
constexpr size_t kIvfN = 20000;
constexpr size_t kIvfNlist = 256;
constexpr size_t kIvfNprobe = 8;
constexpr size_t kIvfRerank = 50;
constexpr size_t kIvfM = 16;
// ivf_stream: held-out vectors inserted beside the reads. The first
// kIvfIdleInserts go in before the load starts (ivf.insert_us_idle); the
// rest are paced evenly over the measured segments, so the final corpus is
// the same on every run whatever the speed.
constexpr size_t kIvfHeldOut = 2700;
constexpr size_t kIvfIdleInserts = 200;
// ivf_open: Poisson arrivals into a 2-worker ServingEngine on a fixed rate
// ladder. The first rung is the nominal rate that p50_ms / p99_ms report;
// it gets kNominalShare of the window, the other rungs split the rest. The
// ladder stops at the first rung that misses the p99 limit or ends with a
// backlog; `qps` is the measured completion rate of the highest rung that
// met both. Runnable by hand, but not one of BENCHMARK.json's workloads:
// its tail is not steady on a shared machine (README.md).
constexpr size_t kOpenWorkers = 2;
constexpr double kOpenRates[] = {2000,  4000,  6000,  8000,  10000,
                                 12500, 15000, 17500, 20000, 25000};
constexpr double kNominalShare = 0.3;
constexpr double kP99LimitMs = 1.0;
constexpr size_t kBacklogLimit = 16;
// Traced runs alternate traced and untraced slices of this length so the
// tracing overhead is measured on the same stretch of machine time.
constexpr double kTraceSliceSeconds = 0.25;
// The trace file holds the first this-many span trees of each kind (all of
// them are kept in memory and folded into the per-layer self times).
constexpr size_t kSpanFileRequests = 2000;

enum class Workload { kGraphMem, kDiskHybrid, kIvfStream, kIvfOpen };

struct WorkloadInfo {
  const char* name;
  Workload kind;
  double recall_floor;  // collapse check: below this the run is incorrect
};

constexpr WorkloadInfo kWorkloads[] = {
    {"graph_mem", Workload::kGraphMem, 0.6},
    {"disk_hybrid", Workload::kDiskHybrid, 0.6},
    {"ivf_stream", Workload::kIvfStream, 0.9},
    {"ivf_open", Workload::kIvfOpen, 0.9},
};

// ----------------------------------------------------------------- clocks ---
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SleepUntilNs(int64_t t_ns) {
  const int64_t now = NowNs();
  if (t_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_ns - now));
  }
}

// The open-loop generator spins to each due time: a sleeping thread on a
// shared machine can wake milliseconds late, and the load would no longer
// follow its schedule.
void SpinUntilNs(int64_t t_ns) {
  while (NowNs() < t_ns) {
  }
}

// Sleeps of a pacing thread (open-loop generator, stream writer) end within
// microseconds instead of the default 50 us timer slack.
void TightTimerSlack() {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

// ------------------------------------------------------------- statistics ---
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// Nearest-rank percentile of a sorted sample.
double PercentileSorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Exact percentiles from every retained sample, plus the highest percentile
// that still has at least 10 samples beyond it.
struct Percentiles {
  size_t samples = 0;
  double p50 = 0, p99 = 0;
  double top_pct = 0, top = 0;
};

Percentiles Summarize(std::vector<double> v) {
  Percentiles p;
  p.samples = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  p.p50 = PercentileSorted(v, 50);
  p.p99 = PercentileSorted(v, 99);
  const double n = static_cast<double>(v.size());
  p.top_pct = n > 10 ? 100.0 * (1.0 - 10.0 / n) : 0.0;
  p.top = PercentileSorted(v, p.top_pct);
  return p;
}

// ------------------------------------------------------------------ spans ---
// In-memory span log: name, start, end, parent and request id per span,
// written out at exit. Stage spans come from obs::QueryTrace, which keeps
// per-stage totals rather than timestamps, so they are laid end to end from
// their parent's start: their durations are measured, their positions are
// not.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    uint32_t name;
    uint32_t parent;
    uint64_t request;
    int64_t start;
    int64_t end;
  };

  explicit SpanLog(int64_t origin) : origin_(origin) {}

  uint32_t Add(const std::string& name, uint32_t parent, uint64_t request,
               int64_t start, int64_t end) {
    spans_.push_back({NameId(name), parent, request, start, end});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Moves another thread's log in (the stream writer keeps its own).
  void Append(const SpanLog& other) {
    const uint32_t offset = static_cast<uint32_t>(spans_.size());
    for (const Span& s : other.spans_) {
      spans_.push_back({NameId(other.names_[s.name]),
                        s.parent == kNoParent ? kNoParent : s.parent + offset,
                        s.request, s.start, s.end});
    }
  }
  const std::string& name(uint32_t id) const { return names_[id]; }

  // Self time per span name (duration minus the durations of its direct
  // children), summed over the trees whose root is named `root`, plus the
  // number of such roots.
  std::map<std::string, double> SelfNanos(const std::string& root,
                                          size_t* roots) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += double(s.end - s.start);
    }
    std::vector<uint32_t> top(spans_.size());
    std::map<std::string, double> self;
    *roots = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      top[i] = s.parent == kNoParent ? static_cast<uint32_t>(i) : top[s.parent];
      if (names_[spans_[top[i]].name] != root) continue;
      if (s.parent == kNoParent) ++*roots;
      self[names_[s.name]] += double(s.end - s.start) - child[i];
    }
    return self;
  }

  bool Write(const std::string& path, const std::string& header) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{%s,\n\"names\": [", header.c_str());
    for (size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i ? ", " : "", names_[i].c_str());
    }
    std::fprintf(f, "],\n\"columns\": [\"id\", \"name\", \"parent\", "
                    "\"request\", \"start_ns\", \"end_ns\"],\n\"spans\": [");
    // The first kSpanFileRequests trees of each root name.
    std::vector<uint32_t> top(spans_.size());
    std::vector<bool> keep(spans_.size(), false);
    std::map<uint32_t, size_t> trees;
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.parent == kNoParent) {
        top[i] = static_cast<uint32_t>(i);
        keep[i] = trees[s.name]++ < kSpanFileRequests;
      } else {
        top[i] = top[s.parent];
      }
      if (!keep[top[i]]) continue;
      std::fprintf(f, "%s\n[%zu, %u, %lld, %llu, %lld, %lld]", first ? "" : ",",
                   i, s.name, s.parent == kNoParent ? -1LL : (long long)s.parent,
                   (unsigned long long)s.request,
                   (long long)(s.start - origin_), (long long)(s.end - origin_));
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  uint32_t NameId(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
  }

  int64_t origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// The QueryTrace stages that time wall-clock work inside an index call.
// kIo (simulated device time) is not wall time and becomes its own span;
// kQueueWait / kService are the engine's and overlap the others.
constexpr rpq::obs::Stage kWallStages[] = {
    rpq::obs::Stage::kLutBuild, rpq::obs::Stage::kRoute,
    rpq::obs::Stage::kScan,     rpq::obs::Stage::kBeam,
    rpq::obs::Stage::kRefine,   rpq::obs::Stage::kMerge};

void AddStageSpans(SpanLog* log, uint32_t parent, uint64_t request,
                   int64_t start, const rpq::obs::QueryTrace& trace) {
  int64_t t = start;
  for (rpq::obs::Stage st : kWallStages) {
    const uint64_t ns = trace.total(st).nanos;
    if (trace.total(st).spans == 0) continue;
    log->Add(std::string("stage.") + rpq::obs::StageName(st), parent, request,
             t, t + static_cast<int64_t>(ns));
    t += static_cast<int64_t>(ns);
  }
}

// ---------------------------------------------------------------- fixture ---
struct Fixture {
  Dataset base;      // indexed at setup
  Dataset held_out;  // ivf_stream: inserted during the run
  Dataset queries;
  std::vector<std::vector<Neighbor>> gt;  // exact top-k over `base`
};

// The corpus is the library's default `sift` GMM draw (MakeSiftLike's own
// seed): its 80 mixture components are the same in every run. --seed
// shuffles that draw and splits it into the indexed, held-out and query
// vectors. Letting --seed also place the components made whole fixtures
// easier or harder: across seeds, disk_hybrid's p99 moved 0.24 and its CPU
// time per request 0.29 (quartile distance over median).
Fixture MakeFixture(Workload w, uint64_t seed) {
  Fixture fx;
  const bool graph = w == Workload::kGraphMem || w == Workload::kDiskHybrid;
  const size_t n = graph ? kGraphN : kIvfN;
  const size_t held = w == Workload::kIvfStream ? kIvfHeldOut : 0;
  const Dataset pool = rpq::synthetic::MakeSiftLike(n + held + kQueries);
  std::vector<uint32_t> order(pool.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  rpq::Rng(seed).Shuffle(&order);
  auto rows = [&](size_t begin, size_t end) {
    return pool.Gather(std::vector<uint32_t>(order.begin() + begin,
                                             order.begin() + end));
  };
  fx.base = rows(0, n);
  if (held > 0) fx.held_out = rows(n, n + held);
  fx.queries = rows(n + held, pool.size());
  // ivf_stream's ground truth covers its final corpus, computed at the end.
  if (held == 0) fx.gt = rpq::ComputeGroundTruth(fx.base, fx.queries, kK);
  return fx;
}

// ------------------------------------------------------------------ setup ---
// Times each setup step (train, graph build, index build + encode) by name
// and, in traced runs, records it as a child span of its setup repetition.
class SetupClock {
 public:
  explicit SetupClock(SpanLog* spans) : spans_(spans) {}

  void BeginRep() {
    rep_start_ = NowNs();
    steps_.clear();
  }

  template <typename F>
  auto Step(const char* name, F&& fn) {
    const int64_t t0 = NowNs();
    auto out = fn();
    const int64_t t1 = NowNs();
    steps_.push_back({name, t0, t1});
    return out;
  }

  void EndRep() {
    const int64_t t1 = NowNs();
    total_.push_back(1e-9 * double(t1 - rep_start_));
    // A step that runs in several parts (ivf.build) sums within a rep.
    std::map<std::string, double> rep_seconds;
    for (const auto& s : steps_) rep_seconds[s.name] += 1e-9 * double(s.t1 - s.t0);
    for (const auto& [name, sec] : rep_seconds) seconds_[name].push_back(sec);
    if (spans_ == nullptr) return;
    const uint32_t root = spans_->Add("setup", SpanLog::kNoParent, 0,
                                      rep_start_, t1);
    for (const auto& s : steps_) spans_->Add(s.name, root, 0, s.t0, s.t1);
  }

  double MedianTotal() const { return Median(total_); }
  double MedianStep(const std::string& name) const {
    auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : Median(it->second);
  }

 private:
  struct StepSpan {
    std::string name;
    int64_t t0, t1;
  };
  SpanLog* spans_;
  int64_t rep_start_ = 0;
  std::vector<StepSpan> steps_;
  std::vector<double> total_;
  std::map<std::string, std::vector<double>> seconds_;
};

// One setup's artifacts: the trained quantizer, the graph or coarse
// quantizer, the index, and the service that serves it.
struct Deployment {
  rpq::graph::ProximityGraph graph;
  std::unique_ptr<rpq::quant::PqQuantizer> quantizer;
  std::unique_ptr<rpq::core::MemoryIndex> memory;
  std::unique_ptr<rpq::disk::DiskIndex> disk;
  std::unique_ptr<rpq::ivf::IvfIndex> ivf;
  std::unique_ptr<rpq::serve::SearchService> service;
  Dataset residuals;  // ivf: training set of the residual codebooks
  rpq::serve::QuerySpec spec;  // the workload's per-query knobs

  size_t MemoryBytes() const {
    if (memory) return memory->MemoryBytes();
    if (disk) return disk->MemoryBytes();
    return ivf->MemoryBytes();
  }
  size_t Size() const {
    if (memory) return memory->num_vertices();
    if (disk) return disk->num_vertices();
    return ivf->size();
  }
};

rpq::graph::ProximityGraph BuildGraph(const Dataset& base) {
  rpq::graph::VamanaOptions vo;
  vo.degree = kGraphDegree;
  return rpq::graph::BuildVamana(base, vo);
}

std::unique_ptr<Deployment> SetupGraphMem(const Dataset& base,
                                          SetupClock* clock) {
  auto d = std::make_unique<Deployment>();
  d->graph = clock->Step("graph.build", [&] { return BuildGraph(base); });
  d->quantizer = clock->Step("core.train", [&] {
    rpq::core::RpqTrainOptions ro;
    ro.m = kRpqM;
    ro.k = 16;
    ro.epochs = kRpqEpochs;
    ro.triplets_per_epoch = kRpqTriplets;
    ro.routing_queries_per_epoch = kRpqRoutingQueries;
    return std::move(rpq::core::TrainRpq(base, d->graph, ro).quantizer);
  });
  d->memory = clock->Step("core.index_build", [&] {
    rpq::core::MemoryIndexOptions mo;
    mo.store_vectors = true;  // exact rerank
    return rpq::core::MemoryIndex::Build(base, d->graph, *d->quantizer, mo);
  });
  d->service = std::make_unique<rpq::serve::MemoryIndexService>(
      *d->memory, rpq::core::DistanceMode::kFastScan);
  d->spec.beam_width = kMemBeam;
  d->spec.rerank = kMemRerank;
  d->spec.rerank_mode = rpq::refine::RerankMode::kExact;
  return d;
}

std::unique_ptr<Deployment> SetupDiskHybrid(const Dataset& base,
                                            SetupClock* clock) {
  auto d = std::make_unique<Deployment>();
  d->graph = clock->Step("graph.build", [&] { return BuildGraph(base); });
  d->quantizer = clock->Step("quant.train", [&] {
    rpq::quant::PqOptions po;
    po.m = kDiskPqM;
    po.nbits = 8;
    return rpq::quant::PqQuantizer::Train(base, po);
  });
  d->disk = clock->Step("disk.build", [&] {
    rpq::disk::DiskIndexOptions dopt;
    dopt.ssd.queue_depth = kDiskQueueDepth;
    dopt.io_width = kDiskIoWidth;
    dopt.readahead = kDiskReadahead;
    return rpq::disk::DiskIndex::Build(base, d->graph, *d->quantizer, dopt);
  });
  d->service = std::make_unique<rpq::serve::DiskIndexService>(*d->disk);
  d->spec.beam_width = kDiskBeam;
  return d;
}

std::unique_ptr<Deployment> SetupIvf(const Dataset& base, SetupClock* clock) {
  auto d = std::make_unique<Deployment>();
  rpq::ivf::IvfOptions io;
  io.nlist = kIvfNlist;
  io.default_nprobe = kIvfNprobe;
  io.store_vectors = true;
  io.residual = true;
  std::vector<float> centroids = clock->Step(
      "ivf.build", [&] { return rpq::ivf::IvfIndex::TrainCoarse(base, io); });
  d->quantizer = clock->Step("quant.train", [&] {
    // Residual codebooks train on x - centroid(x), as rpq_tool build-ivf
    // --residual does.
    const size_t dim = base.dim();
    const size_t nlist = centroids.size() / dim;
    std::vector<float> resid(base.size() * dim);
    for (size_t i = 0; i < base.size(); ++i) {
      const uint32_t c = rpq::quant::NearestCentroid(base[i], centroids.data(),
                                                     nlist, dim);
      const float* cent = centroids.data() + size_t{c} * dim;
      for (size_t j = 0; j < dim; ++j) resid[i * dim + j] = base[i][j] - cent[j];
    }
    d->residuals = Dataset(base.size(), dim, std::move(resid));
    rpq::quant::PqOptions po;
    po.m = kIvfM;
    po.nbits = 8;
    return rpq::quant::TrainSplitPq(d->residuals, po);
  });
  d->ivf = clock->Step("ivf.build", [&] {
    return rpq::ivf::IvfIndex::BuildWithCentroids(base, centroids,
                                                  *d->quantizer, io);
  });
  d->service = std::make_unique<rpq::serve::IvfService>(
      *d->ivf, kIvfRerank, rpq::refine::RerankMode::kExact);
  d->spec.beam_width = kIvfNprobe;
  return d;
}

std::unique_ptr<Deployment> Setup(Workload w, const Dataset& base,
                                  SetupClock* clock) {
  clock->BeginRep();
  std::unique_ptr<Deployment> d;
  switch (w) {
    case Workload::kGraphMem: d = SetupGraphMem(base, clock); break;
    case Workload::kDiskHybrid: d = SetupDiskHybrid(base, clock); break;
    default: d = SetupIvf(base, clock); break;
  }
  clock->EndRep();
  d->spec.k = kK;
  return d;
}

// ---------------------------------------------------------------- answers ---
// k results, ids in range and unique, ascending by (distance, id).
bool WellFormed(const std::vector<Neighbor>& r, size_t n_ids) {
  if (r.size() != kK) return false;
  std::vector<uint32_t> ids;
  for (size_t j = 0; j < r.size(); ++j) {
    if (r[j].id >= n_ids) return false;
    if (j > 0 && r[j] < r[j - 1]) return false;
    ids.push_back(r[j].id);
  }
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

bool SameIds(const std::vector<Neighbor>& a, const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t j = 0; j < a.size(); ++j) {
    if (a[j].id != b[j].id) return false;
  }
  return true;
}

bool Failed(const rpq::serve::QueryResult& r) {
  return r.degraded || r.shed || r.deadline_exceeded;
}

// Exact work counts from one serial pass over every query. They repeat
// bit for bit at one seed (README.md: determinism self-check).
struct ExactCounts {
  double recall = 0;
  size_t queries = 0;
  size_t hops = 0, dist_comps = 0, visited_hits = 0;
  size_t reads = 0, io_waves = 0, prefetch_issued = 0, prefetch_hits = 0,
         prefetch_wasted = 0, retries = 0, io_errors = 0;
  uint64_t device_ns = 0;
  size_t lists_probed = 0, codes_scanned = 0;
  size_t mem_bytes = 0, corpus = 0;
};

struct VerifyResult {
  ExactCounts exact;
  std::vector<std::vector<Neighbor>> answers;
  size_t bad = 0;  // malformed, flagged, or service != index
  double refine_candidates = 0;  // per query (traced runs only)
};

// One direct call of the index's own Search with the workload's knobs (the
// call its service makes); adds the call's work counters to `e`.
std::vector<Neighbor> IndexSearch(const Deployment& d, const float* query,
                                  ExactCounts* e, bool* degraded) {
  const rpq::graph::BeamSearchOptions bopt{d.spec.beam_width, kK, {}};
  if (d.memory) {
    auto m = d.memory->Search(query, kK, bopt, rpq::core::DistanceMode::kFastScan,
                              {d.spec.rerank, d.spec.rerank_mode});
    e->hops += m.stats.hops;
    e->dist_comps += m.stats.dist_comps;
    e->visited_hits += m.stats.visited_hits;
    *degraded = m.stats.deadline_hit;
    return std::move(m.results);
  }
  if (d.disk) {
    auto m = d.disk->Search(query, kK, bopt);
    e->hops += m.stats.hops;
    e->dist_comps += m.stats.dist_comps;
    e->visited_hits += m.stats.visited_hits;
    e->reads += m.io.reads;
    e->io_waves += m.io.io_waves;
    e->prefetch_issued += m.io.prefetch_issued;
    e->prefetch_hits += m.io.prefetch_hits;
    e->prefetch_wasted += m.io.prefetch_wasted;
    e->retries += m.io.retries;
    e->io_errors += m.io.io_errors;
    e->device_ns +=
        static_cast<uint64_t>(std::llround(m.io.simulated_seconds * 1e9));
    *degraded = m.degraded;
    return std::move(m.results);
  }
  rpq::ivf::IvfSearchOptions so;
  so.nprobe = kIvfNprobe;
  so.rerank = kIvfRerank;
  so.rerank_mode = rpq::refine::RerankMode::kExact;
  auto m = d.ivf->Search(query, kK, so);
  e->lists_probed += m.stats.lists_probed;
  e->codes_scanned += m.stats.codes_scanned;
  *degraded = m.stats.deadline_hit;
  return std::move(m.results);
}

uint64_t CounterValue(const char* name) {
  const rpq::obs::Snapshot snap = rpq::obs::TakeSnapshot();
  const rpq::obs::CounterSnapshot* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

// Serves every query once through the service and once through the index's
// own Search; both must agree and be well formed. The index call supplies
// the work counters. `count_refine` (traced runs) also reads the refine
// stage's candidate counter from the program's metrics registry.
VerifyResult Verify(const Deployment& d, const Dataset& queries,
                    const std::vector<std::vector<Neighbor>>& gt,
                    bool count_refine) {
  VerifyResult v;
  ExactCounts& e = v.exact;
  const size_t n_ids = d.Size();
  uint64_t refine0 = 0;
  if (count_refine) {
    rpq::obs::SetMetricsEnabled(true);
    refine0 = CounterValue("refine.candidates");
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    rpq::serve::QuerySpec spec = d.spec;
    spec.query = queries[q];
    rpq::serve::QueryResult r = d.service->Search(spec);
    bool degraded = false;
    std::vector<Neighbor> direct = IndexSearch(d, spec.query, &e, &degraded);
    if (degraded || Failed(r) || !WellFormed(r.results, n_ids) ||
        !(r.results == direct)) {
      ++v.bad;
    }
    v.answers.push_back(std::move(r.results));
  }
  if (count_refine) {
    const uint64_t refine1 = CounterValue("refine.candidates");
    rpq::obs::SetMetricsEnabled(false);
    // Each query was refined twice: once by the service, once directly.
    v.refine_candidates =
        double(refine1 - refine0) / (2.0 * double(queries.size()));
  }
  e.queries = queries.size();
  e.recall = rpq::eval::MeanRecallAtK(v.answers, gt, kK);
  e.mem_bytes = d.MemoryBytes();
  e.corpus = n_ids;
  return v;
}

// Mean time of one direct index Search call: median over three serial
// passes through every query.
double IndexSearchUs(const Deployment& d, const Dataset& queries) {
  std::vector<double> pass_us;
  ExactCounts scratch;
  bool degraded = false;
  for (int pass = 0; pass < 3; ++pass) {
    const int64_t t0 = NowNs();
    for (size_t q = 0; q < queries.size(); ++q) {
      IndexSearch(d, queries[q], &scratch, &degraded);
    }
    pass_us.push_back(1e-3 * double(NowNs() - t0) / double(queries.size()));
  }
  return Median(pass_us);
}

// ------------------------------------------------------------ closed loop ---
// One client thread issuing requests back to back. Latency is service time;
// on disk_hybrid it adds the simulated device time the request waited for.
// Each ClosedLoop call adds one measured segment to the stats.
struct LoopStats {
  std::vector<double> latency_ms;  // untraced requests
  size_t completed = 0;            // all requests
  size_t failed = 0;               // flagged, malformed or wrong answers
  size_t wrong = 0;                // malformed or not the verified answer
  double wall_s = 0, device_s = 0, cpu_s = 0;
  // Traced runs: untraced vs traced slices for the tracing overhead.
  double untraced_s = 0, traced_s = 0;
  size_t untraced_n = 0, traced_n = 0;
  std::vector<double> service_us, queue_us;  // traced requests
};

// `expected` holds the verified answer per query, or is empty when the
// corpus changes during the run (ivf_stream). `corpus_limit` bounds ids.
// Traced runs alternate untraced and traced slices; traced requests become
// span trees named `root_name`.
void ClosedLoop(const Deployment& d, const Dataset& queries,
                const std::vector<std::vector<Neighbor>>& expected,
                size_t corpus_limit, double seconds, const char* root_name,
                SpanLog* spans, uint64_t* request_id, LoopStats* st) {
  const int64_t t_begin = NowNs();
  const int64_t t_end = t_begin + static_cast<int64_t>(seconds * 1e9);
  const int64_t slice = static_cast<int64_t>(kTraceSliceSeconds * 1e9);
  const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  st->latency_ms.reserve(1 << 20);
  rpq::obs::QueryTrace trace;
  size_t q = 0;
  int64_t slice_start = t_begin;
  size_t slice_n = 0;
  bool traced = false;
  for (int64_t now = t_begin; now < t_end; now = NowNs()) {
    if (spans != nullptr && now - slice_start >= slice) {
      (traced ? st->traced_s : st->untraced_s) += 1e-9 * double(now - slice_start);
      (traced ? st->traced_n : st->untraced_n) += slice_n;
      traced = !traced;
      slice_start = now;
      slice_n = 0;
    }
    const int64_t r0 = NowNs();
    rpq::serve::QuerySpec spec = d.spec;
    spec.query = queries[q];
    if (traced) {
      trace.Clear();
      spec.trace = &trace;
    }
    const int64_t s0 = NowNs();
    rpq::serve::QueryResult r = d.service->Search(spec);
    const int64_t s1 = NowNs();
    const double device_ns = r.simulated_io_seconds * 1e9;
    const bool wrong = !WellFormed(r.results, corpus_limit) ||
                       (!expected.empty() && !SameIds(r.results, expected[q]));
    st->wrong += wrong;
    st->failed += wrong || Failed(r);
    st->device_s += r.simulated_io_seconds;
    if (traced) {
      const int64_t r1 = NowNs();
      const uint64_t id = ++*request_id;
      const int64_t io_ns = static_cast<int64_t>(device_ns);
      const uint32_t root = spans->Add(root_name, SpanLog::kNoParent, id, r0,
                                       r1 + io_ns);
      const uint32_t svc = spans->Add("serve.search", root, id, s0, s1);
      AddStageSpans(spans, svc, id, s0, trace);
      if (io_ns > 0) spans->Add("disk.io", root, id, r1, r1 + io_ns);
      st->service_us.push_back(1e-3 * double(s1 - s0));
      st->queue_us.push_back(1e-3 * double(s0 - r0));
    } else {
      st->latency_ms.push_back(1e-6 * (double(s1 - s0) + device_ns));
    }
    ++st->completed;
    ++slice_n;
    q = (q + 1) % queries.size();
  }
  const int64_t t_done = NowNs();
  if (spans != nullptr) {
    (traced ? st->traced_s : st->untraced_s) += 1e-9 * double(t_done - slice_start);
    (traced ? st->traced_n : st->untraced_n) += slice_n;
  }
  st->cpu_s += CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  st->wall_s += 1e-9 * double(t_done - t_begin);
}

// --------------------------------------------------------- stream writer ---
struct WriterStats {
  std::vector<double> insert_us;  // under load
  std::vector<double> idle_us;    // before the load starts
  size_t attempted = 0, failed = 0;
};

// Inserts held_out[begin, end) on a fixed schedule over [t0, t0 + span_ns).
// Insert must return the next global id in sequence; anything else is an
// insert error (the id -> vector map would be wrong).
void WriteStream(rpq::ivf::IvfIndex* index, const Dataset& held_out,
                 size_t begin, size_t end, uint32_t first_id, int64_t t0,
                 int64_t span_ns, std::vector<double>* insert_us,
                 WriterStats* st, SpanLog* spans) {
  const size_t n = end - begin;
  for (size_t i = 0; i < n; ++i) {
    const int64_t due =
        span_ns > 0 ? t0 + static_cast<int64_t>(double(span_ns) * double(i) / double(n))
                    : NowNs();
    SleepUntilNs(due);
    const int64_t s0 = NowNs();
    const uint32_t id = index->Insert(held_out[begin + i]);
    const int64_t s1 = NowNs();
    ++st->attempted;
    if (id != first_id + i) ++st->failed;
    insert_us->push_back(1e-3 * double(s1 - s0));
    if (spans != nullptr) {
      const uint64_t rid = (uint64_t{1} << 32) + begin + i;
      const uint32_t root = spans->Add("insert", SpanLog::kNoParent, rid,
                                       std::min(due, s0), s1);
      spans->Add("ivf.insert", root, rid, s0, s1);
    }
  }
}

// ------------------------------------------------------------- open loop ---
// Per-request timestamps of the open loop (ns, steady clock).
struct OpenRequest {
  int64_t due = 0, submit = 0, start = 0, end = 0;
  size_t query = 0;
};

// Timing decorator: times SearchService::Search on the engine's workers.
// Each in-flight request owns a slot of `ring`, a private copy of its query,
// so the decorator finds the request's record from the query's address.
class TimedService : public rpq::serve::SearchService {
 public:
  explicit TimedService(const rpq::serve::SearchService& inner)
      : inner_(inner) {}

  void Arm(const float* ring, size_t dim, OpenRequest* reqs) {
    ring_ = ring;
    dim_ = dim;
    reqs_ = reqs;
  }

  rpq::serve::QueryResult Search(const rpq::serve::QuerySpec& q) const override {
    const int64_t s = NowNs();
    rpq::serve::QueryResult r = inner_.Search(q);
    const int64_t e = NowNs();
    OpenRequest& req = reqs_[static_cast<size_t>(q.query - ring_) / dim_];
    req.start = s;
    req.end = e;
    return r;
  }

 private:
  const rpq::serve::SearchService& inner_;
  const float* ring_ = nullptr;
  size_t dim_ = 1;
  OpenRequest* reqs_ = nullptr;
};

struct RungStats {
  double rate = 0;          // offered (nominal) arrivals per second
  double measured_qps = 0;  // completions / (last completion - rung start)
  size_t completed = 0, failed = 0, wrong = 0;  // as in LoopStats
  size_t backlog_end = 0;
  Percentiles latency_ms;
  std::vector<double> latency_list_ms, gen_late_us, queue_us, service_us;
  bool pass = false;
};

RungStats RunRung(const rpq::serve::ServingEngine& engine, TimedService* timed,
                  const Deployment& d, const Dataset& queries,
                  const std::vector<std::vector<Neighbor>>& expected,
                  double rate, double seconds, uint64_t seed,
                  SpanLog* spans, uint64_t* request_id) {
  RungStats rs;
  rs.rate = rate;
  const size_t dim = queries.dim();
  const size_t cap = static_cast<size_t>(rate * seconds * 1.5) + 64;
  std::vector<float> ring(cap * dim);
  std::vector<OpenRequest> reqs(cap);
  std::vector<rpq::obs::QueryTrace> traces(spans != nullptr ? cap : 0);
  std::vector<std::future<rpq::serve::QueryResult>> futures;
  futures.reserve(cap);
  timed->Arm(ring.data(), dim, reqs.data());

  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(rate));
  std::exponential_distribution<double> gap(rate);
  const int64_t t0 = NowNs() + 1000000;  // first arrival 1 ms from now
  const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);
  double due_s = 0;
  size_t n = 0;
  for (;;) {
    due_s += gap(rng);
    const int64_t due = t0 + static_cast<int64_t>(due_s * 1e9);
    if (due >= t_end || n == cap) break;
    SpinUntilNs(due);
    OpenRequest& req = reqs[n];
    req.due = due;
    req.query = (*request_id + n) % queries.size();
    std::memcpy(ring.data() + n * dim, queries[req.query], dim * sizeof(float));
    rpq::serve::QuerySpec spec = d.spec;
    spec.query = ring.data() + n * dim;
    if (spans != nullptr) spec.trace = &traces[n];
    req.submit = NowNs();
    futures.push_back(engine.Submit(spec));
    ++n;
  }
  SleepUntilNs(t_end);
  rs.backlog_end = engine.inflight();
  engine.WaitIdle();

  int64_t last_end = t0;
  const size_t corpus = d.Size();
  for (size_t i = 0; i < n; ++i) {
    rpq::serve::QueryResult r = futures[i].get();
    const OpenRequest& req = reqs[i];
    const bool wrong = !WellFormed(r.results, corpus) ||
                       !SameIds(r.results, expected[req.query]);
    rs.wrong += wrong;
    rs.failed += wrong || Failed(r);
    last_end = std::max(last_end, req.end);
    rs.latency_list_ms.push_back(1e-6 * double(req.end - req.due));
    rs.gen_late_us.push_back(1e-3 * double(req.submit - req.due));
    rs.queue_us.push_back(1e-3 * double(req.start - req.submit));
    rs.service_us.push_back(1e-3 * double(req.end - req.start));
    if (spans != nullptr) {
      const uint64_t id = *request_id + i + 1;
      const uint32_t root = spans->Add("request", SpanLog::kNoParent, id,
                                       req.due, req.end);
      spans->Add("serve.gen_late", root, id, req.due, req.submit);
      spans->Add("serve.queue_wait", root, id, req.submit, req.start);
      const uint32_t svc = spans->Add("serve.search", root, id, req.start, req.end);
      AddStageSpans(spans, svc, id, req.start, traces[i]);
    }
  }
  *request_id += n;
  rs.completed = n;
  rs.measured_qps = double(n) / (1e-9 * double(last_end - t0));
  rs.latency_ms = Summarize(rs.latency_list_ms);
  rs.pass = n > 0 && rs.failed == 0 &&
            rs.latency_ms.p99 <= kP99LimitMs && rs.backlog_end <= kBacklogLimit;
  return rs;
}

// ------------------------------------------------------------------- simd ---
// Standalone kernel timings on the workload's own codes (ns per call unit,
// median of repetitions).
template <typename F>
double NsPerUnit(F&& fn, double units) {
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    const int64_t t0 = NowNs();
    fn();
    reps.push_back(double(NowNs() - t0) / units);
  }
  return Median(reps);
}

volatile uint32_t g_sink = 0;

struct SimdStats {
  double fastscan_ns_per_code = 0;
  double adc_gather_ns_per_code = 0;
  double l2_ns = 0;
  double rotate_us = 0;
  double encode_us = 0;
};

SimdStats MeasureKernels(const Deployment& d, const Dataset& base,
                         const Dataset& queries) {
  SimdStats s;
  const rpq::quant::PqQuantizer& qz = *d.quantizer;
  const size_t m = qz.num_chunks(), k = qz.num_centroids();
  const size_t n_codes = std::min<size_t>(4096, base.size());
  // The workload's own codes: the index's codes (graph_mem), the base
  // encoded by the index quantizer (disk_hybrid), or the residual codes the
  // IVF lists hold (ivf_*).
  std::vector<uint8_t> codes;
  if (d.memory) {
    codes.assign(d.memory->codes().begin(),
                 d.memory->codes().begin() + n_codes * m);
  } else {
    const Dataset& src = d.ivf ? d.residuals : base;
    codes = qz.EncodeDataset(src.Slice(0, n_codes));
  }
  const float* query = queries[0];

  // FastScan: 4-bit codes through AdcFastScan, split codes through the
  // two-plane AdcFastScanSplit; 8-bit plain PQ has no FastScan path.
  if (k <= 16) {
    auto packed = rpq::quant::PackedCodes::Pack(codes.data(), n_codes, m);
    rpq::quant::FastScanTable table(qz, query);
    std::vector<uint16_t> sums(packed.num_blocks() * 32);
    s.fastscan_ns_per_code = NsPerUnit([&] {
      for (int it = 0; it < 20; ++it) {
        rpq::simd::AdcFastScan(table.lut8(), packed.m2, packed.data.data(),
                               packed.num_blocks(), sums.data());
        g_sink = g_sink + sums[it % sums.size()];
      }
    }, 20.0 * double(n_codes));
  } else if (qz.split_model() != nullptr) {
    std::vector<uint8_t> expanded(n_codes * 2 * m);
    for (size_t i = 0; i < n_codes; ++i) {
      rpq::quant::ExpandSplitCode(codes.data() + i * m, m,
                                  expanded.data() + i * 2 * m);
    }
    auto packed = rpq::quant::PackedCodes::Pack(expanded.data(), n_codes, 2 * m);
    rpq::quant::SplitFastScanTable table(qz, query);
    std::vector<uint16_t> sums(packed.num_blocks() * 32);
    s.fastscan_ns_per_code = NsPerUnit([&] {
      for (int it = 0; it < 20; ++it) {
        rpq::simd::AdcFastScanSplit(table.lut8(), m, packed.data.data(),
                                    packed.num_blocks(), sums.data());
        g_sink = g_sink + sums[it % sums.size()];
      }
    }, 20.0 * double(n_codes));
  }

  // Float-ADC gather over shuffled ids (the routing kernel of disk_hybrid).
  std::vector<float> lut(m * k);
  qz.BuildLookupTable(query, lut.data());
  std::vector<uint32_t> ids(n_codes);
  for (size_t i = 0; i < n_codes; ++i) ids[i] = static_cast<uint32_t>(i);
  std::shuffle(ids.begin(), ids.end(), std::mt19937_64(7));
  std::vector<float> out(n_codes);
  s.adc_gather_ns_per_code = NsPerUnit([&] {
    for (int it = 0; it < 10; ++it) {
      rpq::simd::AdcBatchGather(lut.data(), m, k, codes.data(), m, ids.data(),
                                n_codes, out.data());
      g_sink = g_sink + static_cast<uint32_t>(out[it]);
    }
  }, 10.0 * double(n_codes));

  // Exact L2 at the fixture's d = 128 (the rerank kernel).
  const size_t n_l2 = std::min<size_t>(2048, base.size());
  s.l2_ns = NsPerUnit([&] {
    float acc = 0;
    for (int it = 0; it < 10; ++it) {
      for (size_t i = 0; i < n_l2; ++i) {
        acc += rpq::simd::SquaredL2(query, base[i], base.dim());
      }
    }
    g_sink = g_sink + static_cast<uint32_t>(acc);
  }, 10.0 * double(n_l2));

  // Query rotation: only rotated models (RPQ) rotate on the query path.
  std::vector<float> rot(qz.dim());
  if (qz.has_rotation()) {
    s.rotate_us = 1e-3 * NsPerUnit([&] {
      for (size_t i = 0; i < queries.size(); ++i) qz.Rotate(queries[i], rot.data());
      g_sink = g_sink + static_cast<uint32_t>(rot[0]);
    }, double(queries.size()));
  }

  // Encode per vector (the per-vector step of index build and Insert).
  std::vector<uint8_t> code(m);
  const size_t n_enc = std::min<size_t>(500, base.size());
  s.encode_us = 1e-3 * NsPerUnit([&] {
    for (size_t i = 0; i < n_enc; ++i) qz.Encode(base[i], code.data());
    g_sink = g_sink + code[0];
  }, double(n_enc));
  return s;
}

// ----------------------------------------------------------------- output ---
struct Metric {
  std::string name, unit;
  double value;
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back({name, unit, value});
  }

  void PrintTable() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

  // JSON cannot carry NaN or infinity; AllFinite() flags such a run.
  void PrintResult(bool correct, size_t attempted, size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {", correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

void PrintExact(const char* workload, uint64_t seed, const ExactCounts& e) {
  std::printf("EXACT {\"workload\": \"%s\", \"seed\": %llu, "
              "\"recall_at_10\": %.17g, \"queries\": %zu, \"corpus\": %zu, "
              "\"mem_bytes\": %zu, \"hops\": %zu, \"dist_comps\": %zu, "
              "\"visited_hits\": %zu, \"reads\": %zu, \"io_waves\": %zu, "
              "\"prefetch_issued\": %zu, \"prefetch_hits\": %zu, "
              "\"retries\": %zu, \"io_errors\": %zu, \"device_ns\": %llu, "
              "\"lists_probed\": %zu, \"codes_scanned\": %zu}\n",
              workload, (unsigned long long)seed, e.recall, e.queries, e.corpus,
              e.mem_bytes, e.hops, e.dist_comps, e.visited_hits, e.reads,
              e.io_waves, e.prefetch_issued, e.prefetch_hits, e.retries,
              e.io_errors, (unsigned long long)e.device_ns, e.lists_probed,
              e.codes_scanned);
}

struct Args {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a->trace = val[0] == '1';
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

double PerQuery(double total, size_t queries) {
  return queries == 0 ? 0.0 : total / double(queries);
}

// Everything one invocation builds and measures.
struct Run {
  Args args;
  const WorkloadInfo* info = nullptr;
  int64_t origin = 0;
  std::unique_ptr<SpanLog> spans;  // traced runs only
  Fixture fx;
  std::unique_ptr<SetupClock> clock;
  std::unique_ptr<Deployment> dep;
  VerifyResult verified;
  uint64_t request_id = 0;  // setup spans use request 0
  LoopStats loop;
  WriterStats writer;
  std::vector<RungStats> rungs;  // ivf_open
  double open_cpu_s = 0, open_wall_s = 0;
};

// ivf_stream before its first segment: the idle inserts, with no reader
// contending for the lock.
void StartIvfStream(Run& r) {
  WriteStream(r.dep->ivf.get(), r.fx.held_out, 0, kIvfIdleInserts,
              static_cast<uint32_t>(r.fx.base.size()), 0, 0, &r.writer.idle_us,
              &r.writer, nullptr);
}

// One segment of ivf_stream: one reader through IvfService beside one writer
// inserting this segment's share of the held-out vectors on a fixed schedule.
void IvfStreamSegment(Run& r, int segment, double seconds) {
  const Fixture& fx = r.fx;
  Deployment& dep = *r.dep;
  const size_t n0 = fx.base.size();
  const size_t h = fx.held_out.size();
  const size_t per = (h - kIvfIdleInserts + kSetupReps - 1) / kSetupReps;
  const size_t begin = std::min(h, kIvfIdleInserts + per * size_t(segment));
  const size_t end = std::min(h, begin + per);
  std::unique_ptr<SpanLog> writer_spans;
  if (r.spans) writer_spans = std::make_unique<SpanLog>(r.origin);
  const int64_t t0 = NowNs();
  std::thread wt([&] {
    TightTimerSlack();
    WriteStream(dep.ivf.get(), fx.held_out, begin, end,
                static_cast<uint32_t>(n0 + begin), t0,
                static_cast<int64_t>(seconds * 1e9), &r.writer.insert_us,
                &r.writer, writer_spans.get());
  });
  ClosedLoop(dep, fx.queries, {}, n0 + h, seconds, "request", r.spans.get(),
             &r.request_id, &r.loop);
  wt.join();
  if (writer_spans) r.spans->Append(*writer_spans);
}

// ivf_stream after its last segment: verification over the final corpus,
// the base plus every held-out vector in id order (Insert returned n0,
// n0 + 1, ... — checked by WriteStream).
void FinishIvfStream(Run& r) {
  Dataset corpus = r.fx.base;
  for (size_t i = 0; i < r.fx.held_out.size(); ++i) {
    corpus.Append(r.fx.held_out[i], corpus.dim());
  }
  const auto gt = rpq::ComputeGroundTruth(corpus, r.fx.queries, kK);
  r.verified = Verify(*r.dep, r.fx.queries, gt, r.spans != nullptr);
}

// The open-loop rate ladder through a 2-worker ServingEngine.
void ServeIvfOpen(Run& r) {
  const Deployment& dep = *r.dep;
  TimedService timed(*dep.service);
  rpq::serve::EngineOptions eo;
  eo.threads = kOpenWorkers;
  rpq::serve::ServingEngine engine(timed, eo);
  TightTimerSlack();
  if (r.spans) {
    // Tracing overhead: the same service in a short closed loop, whose span
    // trees are kept apart from the open-loop requests.
    ClosedLoop(dep, r.fx.queries, r.verified.answers, dep.Size(),
               0.2 * r.args.seconds, "closed_request", r.spans.get(),
               &r.request_id, &r.loop);
  }
  const double ladder_s = r.spans ? 0.8 * r.args.seconds : r.args.seconds;
  const size_t n_rates = sizeof(kOpenRates) / sizeof(kOpenRates[0]);
  // CPU per read excludes the generator (this thread), which spins.
  const double cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
                      CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  const int64_t w0 = NowNs();
  for (size_t i = 0; i < n_rates; ++i) {
    const double rung_s =
        i == 0 ? kNominalShare * ladder_s
               : (1.0 - kNominalShare) * ladder_s / double(n_rates - 1);
    r.rungs.push_back(RunRung(engine, &timed, dep, r.fx.queries,
                              r.verified.answers, kOpenRates[i], rung_s,
                              r.args.seed + i, r.spans.get(), &r.request_id));
    if (!r.rungs.back().pass) break;
  }
  r.open_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) -
                 CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  r.open_wall_s = 1e-9 * double(NowNs() - w0);
}

size_t Reads(const Run& r) {
  size_t reads = r.loop.completed;
  for (const RungStats& rung : r.rungs) reads += rung.completed;
  return reads;
}

// Folds every check into the result's correct / attempted / failed fields,
// printing one line per failed check.
bool Check(const Run& r, size_t* attempted, size_t* failed) {
  std::vector<std::string> problems;
  const ExactCounts& e = r.verified.exact;
  if (r.verified.bad > 0) {
    problems.push_back(std::to_string(r.verified.bad) +
                       " verification answers malformed, flagged, or differing "
                       "between service and index");
  }
  if (e.recall < r.info->recall_floor) {
    problems.push_back("recall below the collapse floor");
  }
  size_t read_failed = r.loop.failed, wrong = r.loop.wrong;
  for (const RungStats& rung : r.rungs) {
    read_failed += rung.failed;
    wrong += rung.wrong;
  }
  if (wrong > 0) {
    problems.push_back(std::to_string(wrong) +
                       " answers malformed or not the verified answer");
  }
  if (r.writer.failed > 0) {
    problems.push_back("Insert returned out-of-sequence ids");
  }
  *attempted = Reads(r) + r.writer.attempted;
  *failed = read_failed + r.writer.failed;
  if (*attempted == 0) {
    problems.push_back("no operation completed");
    *attempted = 1;
  }
  for (const std::string& p : problems) std::printf("# FAIL: %s\n", p.c_str());
  return problems.empty();
}

// The end-to-end metrics of an untraced run.
void AddEndToEnd(const Run& r, Report* report) {
  const ExactCounts& e = r.verified.exact;
  const LoopStats& loop = r.loop;
  Percentiles lat;
  double qps = 0, cpu_us = 0;
  if (r.info->kind == Workload::kIvfOpen) {
    lat = r.rungs.front().latency_ms;  // the nominal rung
    for (const RungStats& rung : r.rungs) {
      if (rung.pass) qps = rung.measured_qps;
      std::printf("# rung %6.0f/s: measured %8.1f/s p50 %.4f ms p99 %.4f ms "
                  "(%zu samples) backlog_end %zu %s\n",
                  rung.rate, rung.measured_qps, rung.latency_ms.p50,
                  rung.latency_ms.p99, rung.latency_ms.samples,
                  rung.backlog_end, rung.pass ? "pass" : "FAIL");
    }
    cpu_us = 1e6 * PerQuery(r.open_cpu_s, Reads(r));
    std::printf("# ladder wall %.2f s\n", r.open_wall_s);
  } else {
    lat = Summarize(loop.latency_ms);
    qps = double(loop.completed) / (loop.wall_s + loop.device_s);
    cpu_us = 1e6 * PerQuery(loop.cpu_s, loop.completed);
    std::printf("# offcpu %.2f us/query; peak rss %.1f MB\n",
                1e6 * PerQuery(loop.wall_s - loop.cpu_s, loop.completed),
                PeakRssMb());
  }
  std::printf("# latency: %zu samples, p50 %.4f ms, p99 %.4f ms, "
              "p%.3f %.4f ms (highest percentile with >= 10 samples beyond)\n",
              lat.samples, lat.p50, lat.p99, lat.top_pct, lat.top);
  report->Add("recall_at_10", "ratio", e.recall);
  report->Add("qps", "1/s", qps);
  report->Add("p50_ms", "ms", lat.p50);
  report->Add("p99_ms", "ms", lat.p99);
  report->Add("cpu_us_per_query", "us", cpu_us);
  report->Add("mem_bytes_per_vector", "B", double(e.mem_bytes) / double(e.corpus));
  report->Add("setup_s", "s", r.clock->MedianTotal());
}

// The per-layer metrics of a traced run; also writes the span file.
void AddPerLayer(const Run& r, Report* report) {
  const Workload w = r.info->kind;
  const Deployment& dep = *r.dep;
  const ExactCounts& e = r.verified.exact;
  const LoopStats& loop = r.loop;
  const SetupClock& clock = *r.clock;
  const SimdStats k = MeasureKernels(dep, r.fx.base, r.fx.queries);
  const double index_us = IndexSearchUs(dep, r.fx.queries);

  size_t roots = 0;
  const auto self = r.spans->SelfNanos("request", &roots);
  auto self_us = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() || roots == 0 ? 0.0 : 1e-3 * it->second / double(roots);
  };
  double self_sum_us = 0, span_us = 0;
  std::printf("# traced requests: %zu; self time per request:\n", roots);
  for (const auto& [name, ns] : self) {
    std::printf("#   %-20s %10.3f us\n", name.c_str(), self_us(name));
    self_sum_us += self_us(name);
  }
  for (const SpanLog::Span& s : r.spans->spans()) {
    if (s.parent == SpanLog::kNoParent && r.spans->name(s.name) == "request") {
      span_us += 1e-3 * double(s.end - s.start);
    }
  }
  span_us = roots ? span_us / double(roots) : 0.0;
  std::printf("#   sum of self times %.3f us = mean request span %.3f us\n",
              self_sum_us, span_us);

  // Closed loops: the client's requests. ivf_open: the open-loop requests of
  // every rung (its closed loop only measures the tracing overhead).
  std::vector<double> service_us = loop.service_us, queue_us = loop.queue_us;
  std::vector<double> gen_late_us;
  size_t backlog_end = 0;
  if (w == Workload::kIvfOpen) {
    service_us.clear();
    queue_us.clear();
    for (const RungStats& rung : r.rungs) {
      service_us.insert(service_us.end(), rung.service_us.begin(),
                        rung.service_us.end());
      queue_us.insert(queue_us.end(), rung.queue_us.begin(), rung.queue_us.end());
      gen_late_us.insert(gen_late_us.end(), rung.gen_late_us.begin(),
                         rung.gen_late_us.end());
      backlog_end = std::max(backlog_end, rung.backlog_end);
    }
  }
  const Percentiles queue = Summarize(queue_us);
  const double untraced_qps =
      loop.untraced_s > 0 ? double(loop.untraced_n) / loop.untraced_s : 0.0;
  const double traced_qps =
      loop.traced_s > 0 ? double(loop.traced_n) / loop.traced_s : 0.0;
  const bool graph = w == Workload::kGraphMem || w == Workload::kDiskHybrid;
  const bool ivf = !graph;
  const double nq = double(e.queries);

  report->Add("serve.service_us", "us", Summarize(service_us).p50);
  report->Add("serve.queue_wait_us_p50", "us", queue.p50);
  report->Add("serve.queue_wait_us_p99", "us", queue.p99);
  if (w == Workload::kIvfOpen) {  // open-loop only; see README.md
    report->Add("serve.gen_late_us_p99", "us", Summarize(gen_late_us).p99);
    report->Add("serve.backlog_end", "count", double(backlog_end));
  }
  report->Add("core.train_s", "s", clock.MedianStep("core.train"));
  report->Add("core.index_build_s", "s", clock.MedianStep("core.index_build"));
  report->Add("core.search_us", "us", dep.memory ? index_us : 0.0);
  report->Add("quant.train_s", "s", clock.MedianStep("quant.train"));
  report->Add("quant.lut_build_us", "us", self_us("stage.lut_build"));
  report->Add("quant.rotate_us", "us", k.rotate_us);
  report->Add("quant.encode_us", "us", k.encode_us);
  report->Add("graph.build_s", "s", clock.MedianStep("graph.build"));
  report->Add("graph.hops_per_query", "count", graph ? e.hops / nq : 0.0);
  report->Add("graph.dist_comps_per_query", "count", graph ? e.dist_comps / nq : 0.0);
  report->Add("graph.visited_hits_per_query", "count",
              graph ? e.visited_hits / nq : 0.0);
  report->Add("graph.beam_us", "us", self_us("stage.beam"));
  report->Add("simd.fastscan_ns_per_code", "ns", k.fastscan_ns_per_code);
  report->Add("simd.adc_gather_ns_per_code", "ns", k.adc_gather_ns_per_code);
  report->Add("simd.l2_ns", "ns", k.l2_ns);
  report->Add("refine.us_per_query", "us", self_us("stage.refine"));
  report->Add("refine.candidates_per_query", "count", r.verified.refine_candidates);
  report->Add("disk.device_us_per_query", "us", 1e-3 * double(e.device_ns) / nq);
  report->Add("disk.reads_per_query", "count", e.reads / nq);
  report->Add("disk.io_waves_per_query", "count", e.io_waves / nq);
  report->Add("disk.prefetch_hit_ratio", "ratio",
              e.prefetch_issued ? double(e.prefetch_hits) / double(e.prefetch_issued)
                                : 0.0);
  report->Add("disk.prefetch_wasted_per_query", "count", e.prefetch_wasted / nq);
  report->Add("disk.retries", "count", double(e.retries));
  report->Add("disk.io_errors", "count", double(e.io_errors));
  report->Add("disk.cpu_us_per_query", "us", dep.disk ? Mean(loop.service_us) : 0.0);
  report->Add("disk.build_s", "s", clock.MedianStep("disk.build"));
  report->Add("disk.device_bytes_per_vector", "B",
              dep.disk ? double(dep.disk->DeviceBytes()) / double(e.corpus) : 0.0);
  report->Add("ivf.build_s", "s", clock.MedianStep("ivf.build"));
  report->Add("ivf.lists_probed_per_query", "count", ivf ? e.lists_probed / nq : 0.0);
  report->Add("ivf.codes_scanned_per_query", "count", ivf ? e.codes_scanned / nq : 0.0);
  report->Add("ivf.route_us", "us", self_us("stage.route"));
  report->Add("ivf.scan_us", "us", self_us("stage.scan"));
  report->Add("ivf.search_us", "us", ivf ? index_us : 0.0);
  const Percentiles ins = Summarize(r.writer.insert_us);
  report->Add("ivf.insert_p50_us", "us", ins.p50);
  report->Add("ivf.insert_p99_us", "us", ins.p99);
  report->Add("ivf.insert_us_idle", "us", Summarize(r.writer.idle_us).p50);
  report->Add("trace.request_us", "us", span_us);
  report->Add("trace.client_us", "us", self_us("request"));
  report->Add("trace.untraced_us", "us", self_us("serve.search"));
  report->Add("proc.offcpu_us_per_query", "us",
              1e6 * PerQuery(loop.wall_s - loop.cpu_s, loop.completed));
  report->Add("proc.peak_rss_mb", "MB", PeakRssMb());
  report->Add("proc.trace_overhead_pct", "%",
              traced_qps > 0 ? 100.0 * (untraced_qps / traced_qps - 1.0) : 0.0);

  if (r.args.trace_out.empty()) return;
  char header[256];
  std::snprintf(header, sizeof(header),
                "\"workload\": \"%s\", \"seed\": %llu, \"simd\": \"%s\", "
                "\"requests_written\": %zu",
                r.info->name, (unsigned long long)r.args.seed,
                rpq::simd::ActiveKernelName(), kSpanFileRequests);
  if (r.spans->Write(r.args.trace_out, header)) {
    std::printf("# spans written to %s\n", r.args.trace_out.c_str());
  } else {
    std::printf("# could not write %s\n", r.args.trace_out.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  if (!ParseArgs(argc, argv, &r.args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  for (const WorkloadInfo& w : kWorkloads) {
    if (r.args.workload == w.name) r.info = &w;
  }
  if (r.info == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", r.args.workload.c_str());
    return 2;
  }
  const Workload w = r.info->kind;
  r.origin = NowNs();
  if (r.args.trace) r.spans = std::make_unique<SpanLog>(r.origin);
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d simd=%s\n",
              r.info->name, (unsigned long long)r.args.seed, r.args.seconds,
              r.args.trace ? 1 : 0, rpq::simd::ActiveKernelName());

  // Inputs (not part of setup_s): generated data and exact ground truth.
  r.fx = MakeFixture(w, r.args.seed);

  // Setup, several times. The first setup's deployment is verified and
  // served; a measured segment follows every setup (see kSetupReps).
  r.clock = std::make_unique<SetupClock>(r.spans.get());
  const double segment_s = r.args.seconds / kSetupReps;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    std::unique_ptr<Deployment> d = Setup(w, r.fx.base, r.clock.get());
    if (rep == 0) {
      r.dep = std::move(d);
      if (w == Workload::kIvfStream) {
        StartIvfStream(r);
      } else {
        r.verified = Verify(*r.dep, r.fx.queries, r.fx.gt, r.args.trace);
      }
    }
    d.reset();
    if (w == Workload::kIvfStream) {
      IvfStreamSegment(r, rep, segment_s);
    } else if (w != Workload::kIvfOpen) {
      ClosedLoop(*r.dep, r.fx.queries, r.verified.answers, r.dep->Size(),
                 segment_s, "request", r.spans.get(), &r.request_id, &r.loop);
    }
  }
  std::printf("# setup: median of %d = %.3f s\n", kSetupReps,
              r.clock->MedianTotal());
  if (w == Workload::kIvfStream) FinishIvfStream(r);
  if (w == Workload::kIvfOpen) ServeIvfOpen(r);  // one ladder after the setups

  PrintExact(r.info->name, r.args.seed, r.verified.exact);
  size_t attempted = 0, failed = 0;
  bool correct = Check(r, &attempted, &failed);
  Report report;
  if (r.args.trace) {
    AddPerLayer(r, &report);
  } else {
    AddEndToEnd(r, &report);
  }
  if (!report.AllFinite()) {
    std::printf("# FAIL: a metric is not a finite number\n");
    correct = false;
  }
  report.PrintTable();
  std::fflush(stdout);
  report.PrintResult(correct, attempted, failed);
  return 0;
}
