// rpq_tool — command-line front end for the library, covering the full
// offline pipeline a deployment runs:
//
//   rpq_tool gen          --name sift --n 10000 --queries 100 --out data/
//   rpq_tool stats        --base data/base.fvecs
//   rpq_tool build-graph  --base data/base.fvecs --type vamana --out g.bin
//   rpq_tool train        --base data/base.fvecs --graph g.bin
//                         --method rpq --m 16 --k 256 [--nbits 4]
//                         --out model.rpqq
//   rpq_tool encode       --base data/base.fvecs --model model.rpqq
//                         --out codes.bin
//   rpq_tool build-ivf    --base data/base.fvecs --model model.rpqq
//                         --out ivf.bin [--nlist 64] [--nprobe 8]
//                         [--store-vectors] [--train-sample 0]
//                         [--residual [--nbits 8] [--m 16]]
//   rpq_tool search       --base data/base.fvecs --graph g.bin
//                         --model model.rpqq --queries data/queries.fvecs
//                         --k 10 --beam 64 [--mode adc|sdc|fastscan]
//                         [--rerank N] [--rerank-mode adc|exact|linkcode]
//                         [--store-vectors] [--hybrid] [--dump-top1 path]
//                         [--index memory|disk|ivf] [--ivf ivf.bin]
//                         [--nlist 64] [--nprobe 8] [--residual]
//                         [--sweep-nprobe 1,2,4,...] [--sweep-csv out.csv]
//                         [--queue-depth 8] [--io-width 1] [--readahead 0]
//                         [--trace]
//   rpq_tool serve-bench  --base data/base.fvecs --graph g.bin
//                         --model model.rpqq --queries data/queries.fvecs
//                         [--threads 4] [--shards 1] [--parallel-shards]
//                         [--k 10] [--beam 64] [--total 0] [--rate 0]
//                         [--batch 0] [--metrics-json out.json]
//                         [--index memory|disk|ivf] [--mode adc|sdc|fastscan]
//                         [--rerank N] [--rerank-mode adc|exact|linkcode]
//                         [--nlist 64] [--nprobe 8] [--residual]
//                         [--deadline-us 0] [--shed 0] [--brownout 0]
//                         [--faults "point=rate,...,seed=N"] [--fault-seed N]
//                         [--disk-error-rate 0] [--disk-spike-rate 0]
//                         [--queue-depth 8] [--io-width 1] [--readahead 0]
//                         [--shard-timeout-us 0] [--hedge-us 0] [--stall-ms 2]
//                         [--stats-port P] [--window-secs 5] [--slow-us 0]
//                         [--slow-capacity 256] [--slow-json out.json]
//   rpq_tool bench-diff   baseline.json candidate.json [--max-regress 10]
//                         [--max-recall-regress 10]
//   rpq_tool metrics-validate --json out.json [--require name1,name2,...]
//                         [--diff older.json [--interval-secs 1]]
//
// Observability (src/obs/): search --trace threads a per-query obs::QueryTrace
// through the backend and prints a per-stage time breakdown plus the search
// stats (hops, distance evals, visited-table hits) for the first few queries
// and in aggregate. serve-bench --metrics-json enables the process-wide
// metrics registry for the run and writes the obs::DumpJson() snapshot —
// per-stage latency histograms, backend counters, batcher occupancy — to the
// given path; --batch N routes the open-loop leg through a MicroBatcher of
// that size. metrics-validate parses such a snapshot with the in-repo JSON
// reader, checks the schema, and fails if any --require'd metric is absent
// (the CI smoke leg runs it against the serve-bench artifact);
// --diff older.json additionally prints the windowed delta between two
// snapshots (counter rates over --interval-secs, interval percentiles from
// histogram bucket deltas).
//
// Live introspection (see README "Live introspection"): serve-bench
// --stats-port P serves /metrics (Prometheus text), /metrics.json (DumpJson
// v1), /health (windowed QPS + degradation ratios; 503 when degraded past
// threshold), and /slow (flight-recorder dump) on 127.0.0.1:P for the whole
// run (port 0 picks an ephemeral one, printed at startup). --slow-us T arms
// the flight recorder's latency criterion (degraded/deadline/shed/hedged
// queries are always admitted); --slow-capacity sizes its ring; --slow-json
// writes the end-of-run dump for offline checks. bench-diff is the per-PR
// regression gate over checked-in bench summaries (BENCH_serve.json,
// BENCH_ivf.json): direction is inferred from metric names (recall/QPS must
// not drop, latency/percentiles must not rise past tolerance) and the exit
// code is non-zero on any regression, so CI turns red when the trajectory
// moves.
//
// --nbits 4 trains a 4-bit model (K = 16); searching such a model with
// --mode fastscan routes through the shuffle-kernel scan path with float-ADC
// rerank (--rerank candidates, 0 = auto). --dump-top1 writes one
// "query_id vertex_id" line per query (ids only — distance bits differ by
// ulps across SIMD backends); the CI smoke job compares the dump between
// RPQ_SIMD=scalar and the dispatched backend to catch FastScan kernel
// divergence end-to-end.
//
// --index ivf serves the non-graph backend: coarse k-means routing over
// --nlist cells, flat FastScan scans of the --nprobe nearest (requires a
// FastScan-capable model: 4-bit, or split-trained K = 256; --graph is
// unused). search builds the index in memory or loads one saved by build-ivf
// (--ivf); --sweep-nprobe prints a recall/QPS operating curve over the given
// comma-separated nprobe values, and --sweep-csv also writes it as
// `nprobe,recall@10,us_per_query` rows. serve-bench with --index ivf drives
// the same concurrent load tests over IvfService, where a query's beam_width
// slot carries its nprobe. --index memory is the in-memory graph backend
// (alias: graph); --index disk the hybrid one (alias: --hybrid).
//
// --residual selects residual IVFADC: codes quantize x - centroid of the
// owning cell. Because the PQ codebooks must be trained on the residual
// distribution (which only exists once the coarse quantizer is trained),
// build-ivf --residual trains BOTH in-process — the coarse centroids, then
// a residual model: the K = 256 split-table regime under --nbits 8 (the
// default here; scanned by the same shuffle kernels as two nibble planes)
// or a plain 4-bit model under --nbits 4 — and writes the model to --model
// as an OUTPUT. search/serve-bench --index ivf --residual either load
// (--ivf + --model) or rebuild deterministically: TrainCoarse is a pure
// function of (base, nlist, seed), so the same flags reproduce the same
// routing, with the model loaded from --model or retrained when absent.
//
// --rerank / --rerank-mode drive the shared refinement pipeline
// (src/refine/): how many candidates the estimate keeps and which stage
// re-scores them — adc (float lookup tables), exact (raw rows; implies
// --store-vectors for indexes built here), or linkcode (graph-regression
// reconstructions; memory backend only). The disk backend reranks every
// fetched vector exactly by construction: --rerank is ignored there,
// --rerank-mode exact/auto is accepted, and the other stages are rejected
// rather than silently serving something else.
//
// serve-bench drives the concurrent serving subsystem (src/serve/): a
// closed-loop load test with --threads clients (and, when --rate is given,
// an open-loop run at that arrival QPS), reporting QPS and p50/p95/p99
// latency. --shards S > 1 builds an S-shard in-memory deployment (per-shard
// Vamana graphs; --graph is then unused).
//
// Fault tolerance (see README "Fault tolerance"): --deadline-us gives every
// query a latency budget (late queries return partial results flagged
// degraded); --shed / --brownout set the open-loop engine's admission
// watermarks; --faults installs a seeded process-wide injection plan (same
// syntax as RPQ_FAULTS: "disk_read_error=0.01,shard_stall=0.05,seed=7");
// --disk-error-rate / --disk-spike-rate set the SSD simulator's own
// transient-failure and tail-spike rates (--index disk); --shard-timeout-us
// abandons shards that miss the cap (partial merge, shards_lost),
// --hedge-us sends a hedge to the shard's replica after that delay, and
// --stall-ms sizes the injected shard stall — the latter three imply
// --parallel-shards. Any degradation prints an extra report line (answered
// fraction, degraded %, shed / deadline / hedged / shards-lost counts), and
// the same tallies land in --metrics-json as serve.shed,
// serve.deadline_exceeded, serve.hedges, serve.shard_lost, disk.retries,
// disk.io_errors, and fault.* counters.
//
// Every artifact is a documented binary format (see quant/serialize.h and
// graph/graph.h), so stages can run on different machines.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/fault.h"
#include "common/timer.h"
#include "core/rpq.h"
#include "data/ground_truth.h"
#include "data/io_vecs.h"
#include "data/lid.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "eval/harness.h"
#include "eval/recall.h"
#include "graph/hnsw.h"
#include "ivf/ivf_index.h"
#include "graph/nsg.h"
#include "graph/vamana.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "quant/kmeans.h"
#include "quant/linkcode.h"
#include "quant/opq.h"
#include "quant/serialize.h"
#include "quant/split.h"
#include "refine/refine.h"
#include "serve/engine.h"
#include "serve/ivf_service.h"
#include "serve/loadgen.h"
#include "serve/sharded.h"

namespace {

using rpq::Dataset;

// Strict numeric parsing: the whole string must be the number. A plain
// strtoull/strtod would turn "junk" into 0 and "64x" into 64.
bool ParseSize(const char* s, size_t* out) {
  if (*s < '0' || *s > '9') return false;  // empty, sign, or whitespace
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool ParseDouble(const char* s, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

[[noreturn]] void BadFlag(const std::string& key, const char* value,
                          const char* expected) {
  std::fprintf(stderr, "error: --%s expects %s, got '%s'\n", key.c_str(),
               expected, value);
  std::exit(1);
}

struct Flags {
  std::map<std::string, std::string> kv;

  const char* Get(const std::string& key, const char* fallback = nullptr) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second.c_str();
  }
  /// The flag as a non-negative integer, or `fallback` when absent; any
  /// other text exits with an error naming the flag.
  size_t GetSize(const std::string& key, size_t fallback) const {
    const char* v = Get(key);
    size_t out = fallback;
    if (v != nullptr && !ParseSize(v, &out)) {
      BadFlag(key, v, "a non-negative integer");
    }
    return out;
  }
  /// The flag as a finite number, or `fallback` when absent; any other text
  /// exits with an error naming the flag.
  double GetDouble(const std::string& key, double fallback) const {
    const char* v = Get(key);
    double out = fallback;
    if (v != nullptr && !ParseDouble(v, &out)) BadFlag(key, v, "a number");
    return out;
  }
  bool Has(const std::string& key) const { return kv.count(key) > 0; }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      f.kv[key] = argv[++i];
    } else {
      f.kv[key] = "1";  // boolean flag
    }
  }
  return f;
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

rpq::Result<Dataset> LoadBase(const Flags& flags) {
  const char* path = flags.Get("base");
  if (path == nullptr) return rpq::Status::InvalidArgument("--base is required");
  return rpq::io::ReadFvecs(path);
}

int CmdGen(const Flags& flags) {
  std::string name = flags.Get("name", "sift");
  size_t n = flags.GetSize("n", 10000);
  size_t nq = flags.GetSize("queries", 100);
  uint64_t seed = flags.GetSize("seed", 7);
  std::string out = flags.Get("out", ".");
  Dataset base, queries;
  rpq::synthetic::MakeBaseAndQueries(name, n, nq, seed, &base, &queries);
  auto s1 = rpq::io::WriteFvecs(out + "/base.fvecs", base);
  if (!s1.ok()) return Fail(s1.ToString());
  auto s2 = rpq::io::WriteFvecs(out + "/queries.fvecs", queries);
  if (!s2.ok()) return Fail(s2.ToString());
  std::printf("wrote %zu base + %zu query vectors (%zu dims) to %s\n",
              base.size(), queries.size(), base.dim(), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const Dataset& d = base.value();
  double lid = rpq::EstimateLid(d, 20, std::min<size_t>(200, d.size() / 2));
  std::printf("vectors: %zu\ndims:    %zu\nLID:     %.1f\nraw MB:  %.2f\n",
              d.size(), d.dim(), lid, d.size() * d.dim() * 4 / 1e6);
  return 0;
}

int CmdBuildGraph(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  std::string type = flags.Get("type", "vamana");
  const char* out = flags.Get("out");
  if (out == nullptr) return Fail("--out is required");

  rpq::graph::ProximityGraph g;
  if (type == "vamana") {
    rpq::graph::VamanaOptions opt;
    opt.degree = flags.GetSize("degree", 32);
    opt.build_beam = flags.GetSize("build-beam", 64);
    g = rpq::graph::BuildVamana(base.value(), opt);
  } else if (type == "hnsw") {
    rpq::graph::HnswOptions opt;
    opt.m = flags.GetSize("degree", 16);
    opt.ef_construction = flags.GetSize("build-beam", 120);
    g = rpq::graph::HnswIndex::Build(base.value(), opt)->Flatten();
  } else if (type == "nsg") {
    rpq::graph::NsgOptions opt;
    opt.degree = flags.GetSize("degree", 32);
    g = rpq::graph::BuildNsg(base.value(), opt);
  } else {
    return Fail("unknown graph type: " + type + " (vamana|hnsw|nsg)");
  }
  auto stats = g.ComputeDegreeStats();
  std::printf("%s graph: %zu vertices, avg degree %.1f, reachable %.4f\n",
              type.c_str(), g.num_vertices(), stats.avg_degree,
              g.ReachableFraction());
  auto s = g.Save(out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdTrain(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  std::string method = flags.Get("method", "rpq");
  const char* out = flags.Get("out");
  if (out == nullptr) return Fail("--out is required");

  // --nbits 4 restricts K to 16 across every method, making the model
  // eligible for the FastScan search path; an explicit larger --k is a flag
  // error rather than a silent cap.
  const size_t nbits = flags.GetSize("nbits", 8);
  if (nbits != 8 && nbits != 4) return Fail("--nbits must be 8 or 4");
  const size_t default_k = nbits == 4 ? 16 : 256;
  if (nbits == 4 && flags.GetSize("k", 16) > 16) {
    return Fail("--nbits 4 codes hold K <= 16 centroids; for K = 256 on the "
                "FastScan path use --nbits 8 with the split regime "
                "(train --method pq --split, or build-ivf --residual)");
  }

  std::unique_ptr<rpq::quant::PqQuantizer> model;
  if (method == "pq") {
    rpq::quant::PqOptions opt;
    opt.m = flags.GetSize("m", 16);
    opt.k = flags.GetSize("k", default_k);
    opt.nbits = nbits;
    if (flags.Has("split")) {
      // K = 256 additive split regime (quant/split.h): FastScan-capable
      // 8-bit codes, serializable (v2) like any other model.
      if (nbits != 4 && opt.k == 256) {
        model = rpq::quant::TrainSplitPq(base.value(), opt);
      } else {
        return Fail("--split trains the K = 256 regime; use --nbits 8 "
                    "(default K 256)");
      }
    } else {
      model = rpq::quant::PqQuantizer::Train(base.value(), opt);
    }
  } else if (method == "opq") {
    rpq::quant::OpqOptions opt;
    opt.pq.m = flags.GetSize("m", 16);
    opt.pq.k = flags.GetSize("k", default_k);
    opt.pq.nbits = nbits;
    opt.outer_iters = flags.GetSize("iters", 4);
    model = rpq::quant::TrainOpq(base.value(), opt);
  } else if (method == "rpq") {
    const char* gpath = flags.Get("graph");
    if (gpath == nullptr) return Fail("--graph is required for rpq training");
    auto g = rpq::graph::ProximityGraph::Load(gpath);
    if (!g.ok()) return Fail(g.status().ToString());
    rpq::core::RpqTrainOptions opt;
    opt.m = flags.GetSize("m", 16);
    opt.k = std::min(flags.GetSize("k", default_k),
                     nbits == 4 ? size_t{16} : size_t{256});
    opt.epochs = flags.GetSize("epochs", 3);
    opt.triplets_per_epoch = flags.GetSize("triplets", 1024);
    opt.routing_queries_per_epoch = flags.GetSize("routing-queries", 48);
    auto res = rpq::core::TrainRpq(base.value(), g.value(), opt);
    std::printf("trained RPQ in %.1fs, final loss %.4f\n",
                res.training_seconds,
                res.epoch_loss.empty() ? 0.0 : res.epoch_loss.back());
    model = std::move(res.quantizer);
  } else {
    return Fail("unknown method: " + method + " (pq|opq|rpq)");
  }
  std::printf("distortion: %.4g, model %.1f KB\n",
              model->Distortion(base.value()), model->ModelSizeBytes() / 1024.0);
  auto s = rpq::quant::SaveQuantizer(*model, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdEncode(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const char* mpath = flags.Get("model");
  const char* out = flags.Get("out");
  if (mpath == nullptr || out == nullptr) {
    return Fail("--model and --out are required");
  }
  auto model = rpq::quant::LoadQuantizer(mpath);
  if (!model.ok()) return Fail(model.status().ToString());
  auto codes = model.value()->EncodeDataset(base.value());
  auto s = rpq::quant::SaveCodes(codes, model.value()->code_size(), out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("encoded %zu vectors at %zu bytes each (%.1fx compression)\n",
              base.value().size(), model.value()->code_size(),
              static_cast<double>(base.value().dim() * 4) /
                  model.value()->code_size());
  return 0;
}

// Parses --rerank-mode (absent = auto); false on unknown names.
bool GetRerankMode(const Flags& flags, rpq::refine::RerankMode* mode) {
  return rpq::refine::ParseRerankMode(flags.Get("rerank-mode", "auto"), mode);
}

// Builds a Link&Code refinement model shaped like `model` (same m/K, its
// own least-squares neighbor weights) for --rerank-mode linkcode.
std::unique_ptr<rpq::quant::LinkCodeIndex> BuildLinkCode(
    const Dataset& base, const rpq::graph::ProximityGraph& graph,
    const rpq::quant::PqQuantizer& model) {
  rpq::quant::LinkCodeOptions opt;
  opt.pq.m = model.num_chunks();
  opt.pq.k = model.num_centroids();
  opt.pq.nbits = model.num_centroids() <= 16 ? 4 : 8;
  return rpq::quant::LinkCodeIndex::Build(base, graph, opt);
}

// The memory (graph) backend with its refinement epilogue configured from
// the flags — one implementation shared by search and serve-bench so the
// two commands cannot drift: distance-mode parse, the rerank-mode-requires-
// fastscan rule, --rerank-mode exact implying retained rows, and Link&Code
// model wiring.
struct MemoryBackend {
  std::unique_ptr<rpq::core::MemoryIndex> index;
  std::unique_ptr<rpq::quant::LinkCodeIndex> linkcode;  ///< kLinkCode only
  rpq::core::DistanceMode mode = rpq::core::DistanceMode::kAdc;
};

rpq::Result<MemoryBackend> MakeMemoryBackend(
    const Flags& flags, const Dataset& base,
    const rpq::graph::ProximityGraph& graph,
    const rpq::quant::PqQuantizer& model, rpq::refine::RerankMode rmode) {
  MemoryBackend b;
  const std::string mode_name = flags.Get("mode", "adc");
  if (mode_name == "sdc") {
    b.mode = rpq::core::DistanceMode::kSdc;
  } else if (mode_name == "fastscan") {
    b.mode = rpq::core::DistanceMode::kFastScan;
  } else if (mode_name != "adc") {
    // A typo'd mode must not silently benchmark plain ADC.
    return rpq::Status::InvalidArgument("unknown --mode: " + mode_name +
                                        " (adc|sdc|fastscan)");
  }
  if (rmode != rpq::refine::RerankMode::kAuto &&
      b.mode != rpq::core::DistanceMode::kFastScan) {
    return rpq::Status::InvalidArgument(
        "--rerank-mode applies to --mode fastscan (the mode with a "
        "refinement epilogue)");
  }
  rpq::core::MemoryIndexOptions mopt;
  mopt.store_vectors = flags.Has("store-vectors") ||
                       rmode == rpq::refine::RerankMode::kExact;
  b.index = rpq::core::MemoryIndex::Build(base, graph, model, mopt);
  if (b.mode == rpq::core::DistanceMode::kFastScan) {
    if (!b.index->fastscan_capable()) {
      return rpq::Status::InvalidArgument(
          "--mode fastscan needs a 4-bit model (train with --nbits 4)");
    }
    b.index->set_fastscan_rerank(flags.GetSize("rerank", 0));
    b.index->set_rerank_mode(rmode);
    if (rmode == rpq::refine::RerankMode::kLinkCode) {
      rpq::Timer lc_timer;
      b.linkcode = BuildLinkCode(base, graph, model);
      b.index->set_linkcode(b.linkcode.get());
      std::printf("linkcode model fit in %.1fs\n", lc_timer.ElapsedSeconds());
    }
  }
  return rpq::Result<MemoryBackend>(std::move(b));
}

// IVF refinement-stage validation shared by search, serve-bench, and
// build-ivf. Called with index == nullptr before any index work (the
// stages IVF can never serve) and again with the built/loaded index
// (exact needs the raw rows this particular index retains).
rpq::Status CheckIvfRerankMode(rpq::refine::RerankMode rmode,
                               const rpq::ivf::IvfIndex* index) {
  if (rmode == rpq::refine::RerankMode::kLinkCode) {
    return rpq::Status::InvalidArgument(
        "--rerank-mode linkcode needs a graph backend "
        "(IVF cells have no adjacency to regress over)");
  }
  if (index != nullptr && rmode == rpq::refine::RerankMode::kExact &&
      !index->stores_vectors()) {
    return rpq::Status::InvalidArgument(
        "--rerank-mode exact needs an IVF index with raw rows "
        "(rebuild with --store-vectors)");
  }
  return rpq::Status::OK();
}

// The disk backend's exact-on-fetch rerank is inherent; any other requested
// stage is a flag error (shared by search and serve-bench).
rpq::Status CheckDiskRerankMode(rpq::refine::RerankMode rmode) {
  if (rmode == rpq::refine::RerankMode::kAuto ||
      rmode == rpq::refine::RerankMode::kExact) {
    return rpq::Status::OK();
  }
  return rpq::Status::InvalidArgument(
      "the disk backend reranks every fetched vector exactly; --rerank-mode " +
      std::string(rpq::refine::RerankModeName(rmode)) + " does not apply");
}

// IVF build knobs shared by build-ivf, search --index ivf, serve-bench.
// --rerank-mode exact implies --store-vectors: the exact stage needs the
// raw rows resident.
rpq::ivf::IvfOptions IvfOptionsFrom(const Flags& flags) {
  rpq::ivf::IvfOptions opt;
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  GetRerankMode(flags, &rmode);
  opt.nlist = flags.GetSize("nlist", 64);
  opt.default_nprobe = flags.GetSize("nprobe", 8);
  opt.store_vectors = flags.Has("store-vectors") ||
                      rmode == rpq::refine::RerankMode::kExact;
  opt.train_sample = flags.GetSize("train-sample", 0);
  opt.residual = flags.Has("residual");
  return opt;
}

// Residual-regime model training: the PQ codebooks must see the residual
// distribution (x - centroid), which only exists once the coarse quantizer
// is trained — so the residual flow derives the training set here instead of
// loading a model trained on the raw corpus. --nbits 8 (the default in this
// flow) trains the K = 256 split-table regime; --nbits 4 a plain 4-bit model.
rpq::Result<std::unique_ptr<rpq::quant::PqQuantizer>> TrainResidualModel(
    const Dataset& base, const std::vector<float>& centroids,
    const Flags& flags) {
  const size_t nbits = flags.GetSize("nbits", 8);
  if (nbits != 8 && nbits != 4) {
    return rpq::Status::InvalidArgument("--nbits must be 8 or 4");
  }
  const size_t dim = base.dim();
  const size_t nlist = centroids.size() / dim;
  std::vector<float> resid(base.size() * dim);
  for (size_t i = 0; i < base.size(); ++i) {
    const uint32_t c =
        rpq::quant::NearestCentroid(base[i], centroids.data(), nlist, dim);
    const float* cent = centroids.data() + size_t{c} * dim;
    for (size_t d = 0; d < dim; ++d) {
      resid[i * dim + d] = base[i][d] - cent[d];
    }
  }
  Dataset residual_set(base.size(), dim, std::move(resid));
  rpq::quant::PqOptions opt;
  opt.m = flags.GetSize("m", 16);
  opt.nbits = nbits;
  if (nbits == 8) {
    return rpq::quant::TrainSplitPq(residual_set, opt);
  }
  return rpq::quant::PqQuantizer::Train(residual_set, opt);
}

// An IVF deployment assembled from the flags. The index borrows its
// quantizer, so the backend owns both; `model` is the loaded --model or, in
// the in-process residual flow, the freshly trained one.
struct IvfBackend {
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  std::unique_ptr<rpq::ivf::IvfIndex> index;
};

// Loads a saved IVF index (--ivf + --model), or builds one over the base in
// memory: the plain flow encodes raw rows with the loaded --model; the
// --residual flow trains the coarse quantizer first (or re-derives it — the
// k-means is deterministic in the flags) and encodes per-cell residuals with
// --model when given, a freshly trained residual model otherwise.
rpq::Result<IvfBackend> MakeIvfBackend(const Flags& flags,
                                       const Dataset& base) {
  IvfBackend b;
  const char* mpath = flags.Get("model");
  if (const char* path = flags.Get("ivf")) {
    if (mpath == nullptr) {
      return rpq::Status::InvalidArgument(
          "--ivf needs --model (the quantizer the index was built with)");
    }
    auto model = rpq::quant::LoadQuantizer(mpath);
    if (!model.ok()) return model.status();
    b.model = std::move(model.value());
    auto loaded = rpq::ivf::IvfIndex::Load(path, *b.model);
    if (!loaded.ok()) return loaded.status();
    b.index = std::move(loaded.value());
    return rpq::Result<IvfBackend>(std::move(b));
  }
  rpq::ivf::IvfOptions opt = IvfOptionsFrom(flags);
  if (opt.residual) {
    std::vector<float> centroids = rpq::ivf::IvfIndex::TrainCoarse(base, opt);
    if (mpath != nullptr) {
      auto model = rpq::quant::LoadQuantizer(mpath);
      if (!model.ok()) return model.status();
      b.model = std::move(model.value());
    } else {
      auto trained = TrainResidualModel(base, centroids, flags);
      if (!trained.ok()) return trained.status();
      b.model = std::move(trained.value());
    }
    b.index = rpq::ivf::IvfIndex::BuildWithCentroids(base, std::move(centroids),
                                                     *b.model, opt);
    return rpq::Result<IvfBackend>(std::move(b));
  }
  if (mpath == nullptr) {
    return rpq::Status::InvalidArgument("--model is required");
  }
  auto model = rpq::quant::LoadQuantizer(mpath);
  if (!model.ok()) return model.status();
  b.model = std::move(model.value());
  if (b.model->num_centroids() > 16 && b.model->split_model() == nullptr) {
    return rpq::Status::InvalidArgument(
        "--index ivf needs a FastScan-capable model: 4-bit (--nbits 4) or "
        "split-trained K = 256 (train --split / build-ivf --residual)");
  }
  b.index = rpq::ivf::IvfIndex::Build(base, *b.model, opt);
  return rpq::Result<IvfBackend>(std::move(b));
}

std::vector<std::string> ParseStringList(const char* s) {
  std::vector<std::string> out;
  while (s != nullptr && *s != '\0') {
    const char* comma = std::strchr(s, ',');
    if (comma == nullptr) {
      if (*s != '\0') out.emplace_back(s);
      break;
    }
    if (comma != s) out.emplace_back(s, comma);
    s = comma + 1;
  }
  return out;
}

// Accumulates --trace output across the search replay: per-query lines for
// the first few queries, totals for the whole run. Shared by the three
// backends, but each names its own stat columns — the graph backends report
// hops / distance evals / visited-table hits, while the IVF backend reports
// lists probed / codes scanned (a nullptr label drops the column entirely),
// so the printout no longer overloads graph terms for flat-scan stats.
struct TraceAccumulator {
  static constexpr size_t kPerQueryLines = 8;
  static constexpr size_t kStatColumns = 4;

  // Column labels; the graph default matches SearchStats' field names. The
  // fourth column is nullptr (dropped) except for the disk backend, which
  // reports injected latency spikes next to its traversal stats.
  const char* labels[kStatColumns] = {"hops", "dist", "visited-hits", nullptr};

  rpq::obs::QueryTrace totals;
  size_t stats[kStatColumns] = {0, 0, 0, 0};
  size_t queries = 0;
  std::vector<std::string> lines;

  static TraceAccumulator ForIvf() {
    TraceAccumulator t;
    t.labels[0] = "lists-probed";
    t.labels[1] = "codes-scanned";
    t.labels[2] = nullptr;  // IVF has no visited table
    return t;
  }

  static TraceAccumulator ForDisk() {
    TraceAccumulator t;
    t.labels[3] = "spikes";
    return t;
  }

  void Note(size_t q, const rpq::obs::QueryTrace& trace, size_t s0, size_t s1,
            size_t s2, size_t s3 = 0) {
    ++queries;
    const size_t row[kStatColumns] = {s0, s1, s2, s3};
    for (size_t c = 0; c < kStatColumns; ++c) stats[c] += row[c];
    for (size_t s = 0; s < rpq::obs::kNumStages; ++s) {
      const auto stage = static_cast<rpq::obs::Stage>(s);
      const auto& t = trace.total(stage);
      if (t.spans > 0) totals.AddSpan(stage, t.nanos);
    }
    if (q < kPerQueryLines) {
      char head[128];
      int off = std::snprintf(head, sizeof(head), "  q%-4zu", q);
      for (size_t c = 0; c < kStatColumns; ++c) {
        if (labels[c] == nullptr) continue;
        off += std::snprintf(head + off, sizeof(head) - off, " %s %-9zu",
                             labels[c], row[c]);
      }
      std::snprintf(head + off, sizeof(head) - off, "  ");
      lines.push_back(std::string(head) + trace.Format());
    }
  }

  void Print() const {
    if (queries == 0) return;
    for (const std::string& line : lines) std::printf("%s\n", line.c_str());
    if (queries > lines.size()) {
      std::printf("  ... (%zu more queries)\n", queries - lines.size());
    }
    const double n = static_cast<double>(queries);
    std::printf("trace totals (%zu queries): %s\n", queries,
                totals.Format().c_str());
    std::printf("stats:");
    for (size_t c = 0; c < kStatColumns; ++c) {
      if (labels[c] == nullptr) continue;
      std::printf("  %s %zu (%.1f/q)", labels[c], stats[c], stats[c] / n);
    }
    std::printf("\n");
  }
};

// "n1,n2,..." with every item a strict non-negative integer; empty on any
// malformed item (the caller reports the flag).
std::vector<size_t> ParseSizeList(const char* s) {
  std::vector<size_t> out;
  std::string item;
  for (const char* p = s;; ++p) {
    if (*p != ',' && *p != '\0') {
      item.push_back(*p);
      continue;
    }
    size_t v = 0;
    if (!ParseSize(item.c_str(), &v)) return {};
    out.push_back(v);
    item.clear();
    if (*p == '\0') return out;
  }
}

int CmdBuildIvf(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const char* mpath = flags.Get("model");
  const char* out = flags.Get("out");
  if (mpath == nullptr || out == nullptr) {
    return Fail("--model and --out are required");
  }
  // Validate up front: a typo'd --rerank-mode must not silently build an
  // index without the raw rows the intended exact stage needs.
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  if (!GetRerankMode(flags, &rmode)) {
    return Fail("--rerank-mode must be adc, exact, or linkcode");
  }
  auto mode_ok = CheckIvfRerankMode(rmode, nullptr);
  if (!mode_ok.ok()) return Fail(mode_ok.ToString());
  rpq::Timer timer;
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  std::unique_ptr<rpq::ivf::IvfIndex> index;
  const rpq::ivf::IvfOptions opt = IvfOptionsFrom(flags);
  if (opt.residual) {
    // Residual flow: coarse centroids first, then a model trained on the
    // per-cell residuals; --model is the OUTPUT path for that model (search
    // and serve-bench load it back next to --ivf).
    std::vector<float> centroids =
        rpq::ivf::IvfIndex::TrainCoarse(base.value(), opt);
    auto trained = TrainResidualModel(base.value(), centroids, flags);
    if (!trained.ok()) return Fail(trained.status().ToString());
    model = std::move(trained.value());
    index = rpq::ivf::IvfIndex::BuildWithCentroids(
        base.value(), std::move(centroids), *model, opt);
    auto ms = rpq::quant::SaveQuantizer(*model, mpath);
    if (!ms.ok()) return Fail(ms.ToString());
    std::printf("trained residual model (m=%zu, K=%zu%s), saved to %s\n",
                model->num_chunks(), model->num_centroids(),
                model->split_model() != nullptr ? ", split" : "", mpath);
  } else {
    auto loaded = rpq::quant::LoadQuantizer(mpath);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    model = std::move(loaded.value());
    if (model->num_centroids() > 16 && model->split_model() == nullptr) {
      return Fail("build-ivf needs a FastScan-capable model: 4-bit "
                  "(--nbits 4) or split-trained K = 256 (train --split)");
    }
    index = rpq::ivf::IvfIndex::Build(base.value(), *model, opt);
  }
  std::printf("ivf index: %zu lists over %zu vectors in %.1fs (%.1f MB)\n",
              index->nlist(), index->size(), timer.ElapsedSeconds(),
              index->MemoryBytes() / 1e6);
  auto s = index->Save(out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdSearch(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  std::string index_kind = flags.Get("index", "graph");
  if (index_kind == "memory") index_kind = "graph";  // alias
  const bool use_ivf = index_kind == "ivf";
  const bool use_disk = index_kind == "disk" || flags.Has("hybrid");
  if (!use_ivf && !use_disk && index_kind != "graph") {
    return Fail("unknown --index: " + index_kind + " (memory|disk|ivf)");
  }
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  if (!GetRerankMode(flags, &rmode)) {
    return Fail("--rerank-mode must be adc, exact, or linkcode");
  }
  const char* gpath = flags.Get("graph");
  const char* mpath = flags.Get("model");
  const char* qpath = flags.Get("queries");
  // The IVF backend resolves --model itself (the --residual flow can train
  // one in-process); the graph backends always need it loaded here.
  if (qpath == nullptr || (!use_ivf && (mpath == nullptr || gpath == nullptr))) {
    return Fail(use_ivf ? "--queries is required"
                        : "--graph, --model, --queries are required");
  }
  rpq::graph::ProximityGraph graph;
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  if (!use_ivf) {
    auto g = rpq::graph::ProximityGraph::Load(gpath);
    if (!g.ok()) return Fail(g.status().ToString());
    graph = std::move(g.value());
    auto loaded = rpq::quant::LoadQuantizer(mpath);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    model = std::move(loaded.value());
  }
  auto queries = rpq::io::ReadFvecs(qpath);
  if (!queries.ok()) return Fail(queries.status().ToString());

  size_t k = flags.GetSize("k", 10);
  size_t beam = flags.GetSize("beam", 64);
  auto gt = rpq::ComputeGroundTruth(base.value(), queries.value(), k);

  // The IVF index is assembled (or loaded) before the timed loop, like the
  // graph artifacts; --sweep-nprobe prints its recall/QPS curve first. The
  // backend owns the quantizer the index borrows, so both live to the end.
  std::unique_ptr<rpq::quant::PqQuantizer> ivf_model;
  std::unique_ptr<rpq::ivf::IvfIndex> ivf_index;
  rpq::ivf::IvfSearchOptions ivf_opt;
  if (use_ivf) {
    // Impossible stages are rejected before the (potentially expensive)
    // index build; exact-needs-rows is re-checked against the built index.
    auto mode_ok = CheckIvfRerankMode(rmode, nullptr);
    if (!mode_ok.ok()) return Fail(mode_ok.ToString());
    auto made = MakeIvfBackend(flags, base.value());
    if (!made.ok()) return Fail(made.status().ToString());
    ivf_model = std::move(made.value().model);
    ivf_index = std::move(made.value().index);
    mode_ok = CheckIvfRerankMode(rmode, ivf_index.get());
    if (!mode_ok.ok()) return Fail(mode_ok.ToString());
    ivf_opt.nprobe = flags.GetSize("nprobe", 0);
    ivf_opt.rerank = flags.GetSize("rerank", 0);
    ivf_opt.rerank_mode = rmode;
    if (const char* sweep = flags.Get("sweep-nprobe")) {
      auto nprobes = ParseSizeList(sweep);
      if (nprobes.empty()) return Fail("--sweep-nprobe expects n1,n2,...");
      const rpq::ivf::IvfIndex& ix = *ivf_index;
      // The sweep axis is nprobe; the refinement request rides inside the
      // closure so every operating point reranks the same way.
      const rpq::ivf::IvfSearchOptions base_opt = ivf_opt;
      rpq::eval::SearchFn fn = [&ix, base_opt](const float* q, size_t kk,
                                               size_t nprobe) {
        rpq::ivf::IvfSearchOptions opt = base_opt;
        opt.nprobe = nprobe;
        rpq::eval::SearchOutcome out;
        auto res = ix.Search(q, kk, opt);
        out.results = std::move(res.results);
        out.hops = res.stats.lists_probed;
        return out;
      };
      auto curve = rpq::eval::SweepNprobe(fn, queries.value(), gt, k, nprobes);
      rpq::eval::PrintCurve("ivf", curve);
      if (const char* csv = flags.Get("sweep-csv")) {
        auto s = rpq::eval::WriteCurveCsv(csv, "nprobe", curve);
        if (!s.ok()) return Fail(s.ToString());
        std::printf("wrote sweep CSV to %s\n", csv);
      }
    }
  }

  // --trace: thread a per-query obs::QueryTrace through the backend (also
  // enabling the registry so the stage histograms fill) and print the
  // per-stage breakdown + search stats after the replay. The trace lines are
  // accumulated inside the timed loop, so the QPS on a traced run includes
  // the (small) tracing overhead — it measures what it ran.
  const bool trace_on = flags.Has("trace");
  if (trace_on) rpq::obs::SetMetricsEnabled(true);
  TraceAccumulator tacc = use_ivf    ? TraceAccumulator::ForIvf()
                          : use_disk ? TraceAccumulator::ForDisk()
                                     : TraceAccumulator{};

  // Graph backends are built here, like the IVF one above: the timer below
  // covers the query replay only, never index construction.
  std::unique_ptr<rpq::disk::DiskIndex> disk_index;
  rpq::disk::DiskIndexOptions dopt;
  MemoryBackend backend;
  if (use_disk) {
    auto mode_ok = CheckDiskRerankMode(rmode);
    if (!mode_ok.ok()) return Fail(mode_ok.ToString());
    dopt.ssd.queue_depth = flags.GetSize("queue-depth", dopt.ssd.queue_depth);
    dopt.io_width = flags.GetSize("io-width", dopt.io_width);
    dopt.readahead = flags.GetSize("readahead", dopt.readahead);
    disk_index = rpq::disk::DiskIndex::Build(base.value(), graph, *model, dopt);
  } else if (!use_ivf) {
    auto made = MakeMemoryBackend(flags, base.value(), graph, *model, rmode);
    if (!made.ok()) return Fail(made.status().ToString());
    backend = std::move(made.value());
  }

  std::vector<std::vector<rpq::Neighbor>> results(queries.value().size());
  rpq::Timer timer;
  if (use_ivf) {
    for (size_t q = 0; q < queries.value().size(); ++q) {
      rpq::obs::QueryTrace trace;
      ivf_opt.trace = trace_on ? &trace : nullptr;
      auto out = ivf_index->Search(queries.value()[q], k, ivf_opt);
      results[q] = std::move(out.results);
      if (trace_on) {
        tacc.Note(q, trace, out.stats.lists_probed, out.stats.codes_scanned, 0);
      }
    }
  } else if (use_disk) {
    rpq::disk::IoStats io_total;
    double io_seconds = 0;
    for (size_t q = 0; q < queries.value().size(); ++q) {
      rpq::obs::QueryTrace trace;
      auto out = disk_index->Search(queries.value()[q], k, {beam, k},
                                    trace_on ? &trace : nullptr);
      results[q] = std::move(out.results);
      io_seconds += out.io.simulated_seconds;
      io_total.reads += out.io.reads;
      io_total.io_waves += out.io.io_waves;
      io_total.prefetch_issued += out.io.prefetch_issued;
      io_total.prefetch_hits += out.io.prefetch_hits;
      io_total.prefetch_wasted += out.io.prefetch_wasted;
      if (trace_on) {
        tacc.Note(q, trace, out.stats.hops, out.stats.dist_comps,
                  out.stats.visited_hits, out.io.latency_spikes);
      }
    }
    const double nq = std::max<double>(1.0, queries.value().size());
    std::printf(
        "disk-io us/query = %.1f (qd %zu, io-width %zu, readahead %zu; "
        "%.1f reads/q, %.1f waves/q, prefetch %zu issued / %zu hits / "
        "%zu wasted)\n",
        io_seconds * 1e6 / nq, dopt.ssd.queue_depth, dopt.io_width,
        dopt.readahead, io_total.reads / nq, io_total.io_waves / nq,
        io_total.prefetch_issued, io_total.prefetch_hits,
        io_total.prefetch_wasted);
  } else {
    for (size_t q = 0; q < queries.value().size(); ++q) {
      rpq::obs::QueryTrace trace;
      auto out = backend.index->Search(queries.value()[q], k, {beam, k},
                                       backend.mode, {},
                                       trace_on ? &trace : nullptr);
      results[q] = std::move(out.results);
      if (trace_on) {
        tacc.Note(q, trace, out.stats.hops, out.stats.dist_comps,
                  out.stats.visited_hits);
      }
    }
  }
  // Wall-clock QPS of the replay. Simulated device time is not folded in:
  // the disk backend reports it on its own `disk-io us/query` line.
  const double wall = timer.ElapsedSeconds();
  std::printf("queries: %zu  recall@%zu: %.4f  QPS: %.1f\n",
              queries.value().size(), k,
              rpq::eval::MeanRecallAtK(results, gt, k),
              queries.value().size() / std::max(wall, 1e-12));
  if (trace_on) tacc.Print();

  if (const char* dump = flags.Get("dump-top1")) {
    // One line per query: the top result's vertex id. Ids (not distances)
    // are the cross-backend invariant: the integer FastScan scan is
    // bit-identical everywhere, while the float lookup tables it quantizes
    // are only 1e-4-relative across SIMD backends, so distance BITS may
    // differ in the last ulps even when every ranking decision agrees.
    std::FILE* fp = std::fopen(dump, "w");
    if (fp == nullptr) return Fail(std::string("cannot write ") + dump);
    for (size_t q = 0; q < results.size(); ++q) {
      if (results[q].empty()) {
        std::fprintf(fp, "%zu -\n", q);
      } else {
        std::fprintf(fp, "%zu %u\n", q, results[q][0].id);
      }
    }
    std::fclose(fp);
    std::printf("wrote top-1 dump to %s\n", dump);
  }
  return 0;
}

int CmdServeBench(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const char* mpath = flags.Get("model");
  const char* qpath = flags.Get("queries");
  if (qpath == nullptr) return Fail("--queries is required");
  auto queries = rpq::io::ReadFvecs(qpath);
  if (!queries.ok()) return Fail(queries.status().ToString());

  rpq::serve::LoadgenOptions opt;
  opt.k = flags.GetSize("k", 10);
  opt.beam_width = flags.GetSize("beam", 64);
  opt.threads = flags.GetSize("threads", 4);
  opt.total_queries = flags.GetSize("total", 0);
  opt.batch = flags.GetSize("batch", 0);  // open-loop leg only
  opt.deadline_us = flags.GetSize("deadline-us", 0);
  const size_t shards = flags.GetSize("shards", 1);
  const double rate = flags.GetDouble("rate", 0);
  // --metrics-json turns the registry on for the whole run (index build
  // included) and writes the snapshot at the end.
  const char* metrics_json = flags.Get("metrics-json");
  if (metrics_json != nullptr) rpq::obs::SetMetricsEnabled(true);

  // --stats-port / --slow-us arm the live-introspection layer: the flight
  // recorder admits degraded queries always and slow ones past --slow-us,
  // and --stats-port additionally serves /metrics, /metrics.json, /health,
  // and /slow over HTTP for the whole run (index build included). Both imply
  // metrics so the windowed /health summary has counters to diff.
  const bool stats_server = flags.Has("stats-port");
  if (stats_server || flags.Has("slow-us")) {
    rpq::obs::SetMetricsEnabled(true);
    rpq::obs::FlightRecorderOptions fopt;
    fopt.capacity = flags.GetSize("slow-capacity", 256);
    fopt.slow_us = flags.GetSize("slow-us", 0);
    rpq::obs::FlightRecorder& recorder = rpq::obs::GlobalFlightRecorder();
    recorder.Configure(fopt);
    recorder.SetEnabled(true);
  }
  rpq::obs::HttpExporter exporter([&flags] {
    rpq::obs::HttpExporterOptions hopt;
    hopt.port = static_cast<uint16_t>(flags.GetSize("stats-port", 0));
    hopt.window_seconds = flags.GetDouble("window-secs", 5);
    return hopt;
  }());
  if (stats_server) {
    auto started = exporter.Start();
    if (!started.ok()) return Fail(started.ToString());
    std::printf("stats endpoint: http://127.0.0.1:%u  "
                "(/metrics /metrics.json /health /slow)\n",
                exporter.port());
  }

  // --faults installs a process-wide injection plan (same syntax as the
  // RPQ_FAULTS environment variable, which it overrides); --fault-seed
  // replaces just the seed. Installed before the backend is built so the
  // SSD simulator's own injector merges it in at construction.
  {
    rpq::fault::Plan plan = rpq::fault::GlobalInjector().plan();
    bool have_plan = false;
    if (const char* spec = flags.Get("faults"); spec != nullptr) {
      std::string err;
      if (!rpq::fault::ParsePlan(spec, &plan, &err)) return Fail(err);
      have_plan = true;
    }
    if (flags.Has("fault-seed")) {
      plan.seed = flags.GetSize("fault-seed", 1);
      have_plan = true;
    }
    if (have_plan) rpq::fault::SetGlobalPlan(plan);
  }
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  if (!GetRerankMode(flags, &rmode)) {
    return Fail("--rerank-mode must be adc, exact, or linkcode");
  }

  // Assemble the backend: IVF flat-scan, sharded in-memory, hybrid disk, or
  // single-shard in-memory over a prebuilt graph. --rerank/--rerank-mode
  // configure the refinement pipeline uniformly across memory|disk|ivf (the
  // disk backend's exact-on-fetch rerank is inherent, so they are no-ops
  // there).
  // Declaration order is destruction order in reverse, and it matters: the
  // sharded deployment's destructor drains abandoned fan-out tasks that may
  // still touch the shard backends AND what those borrow (the quantizer, the
  // graph, the base rows) — so everything borrowed is declared BEFORE the
  // service objects, outliving them.
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  rpq::graph::ProximityGraph graph;
  std::unique_ptr<rpq::core::MemoryIndex> mem_index;
  std::unique_ptr<rpq::quant::LinkCodeIndex> linkcode;
  std::unique_ptr<rpq::disk::DiskIndex> disk_index;
  std::unique_ptr<rpq::quant::PqQuantizer> ivf_model;
  std::unique_ptr<rpq::ivf::IvfIndex> ivf_index;
  std::unique_ptr<rpq::serve::SearchService> owned_service;
  rpq::serve::ShardedMemoryIndex sharded;
  const rpq::serve::SearchService* service = nullptr;

  std::string index_kind = flags.Get("index", "graph");
  if (index_kind == "memory") index_kind = "graph";  // alias
  const bool use_disk = index_kind == "disk" || flags.Has("hybrid");
  if (use_disk) index_kind = "graph";

  // Graph backends always need the model loaded here; the IVF backend
  // resolves --model itself (--residual can train one in-process).
  if (index_kind != "ivf") {
    if (mpath == nullptr) return Fail("--model and --queries are required");
    auto loaded = rpq::quant::LoadQuantizer(mpath);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    model = std::move(loaded.value());
  }
  // The sharded deployment builds plain ADC memory shards; flags it cannot
  // honor must fail loudly, not silently benchmark something else.
  // (--mode adc is what it serves anyway, so an explicit request passes.)
  const std::string shard_mode = flags.Get("mode", "adc");
  if (shards > 1 && index_kind == "graph" &&
      (use_disk || shard_mode != "adc" || flags.Has("rerank") ||
       flags.Has("rerank-mode") || flags.Has("store-vectors"))) {
    return Fail("--shards > 1 serves plain ADC memory shards; --index disk, "
                "--mode sdc|fastscan, --rerank, --rerank-mode, and "
                "--store-vectors are not supported there");
  }
  if (index_kind == "ivf") {
    // Impossible stages are rejected before the (potentially expensive)
    // index build; exact-needs-rows is re-checked against the built index.
    auto mode_ok = CheckIvfRerankMode(rmode, nullptr);
    if (!mode_ok.ok()) return Fail(mode_ok.ToString());
    rpq::Timer build;
    auto made = MakeIvfBackend(flags, base.value());
    if (!made.ok()) return Fail(made.status().ToString());
    ivf_model = std::move(made.value().model);
    ivf_index = std::move(made.value().index);
    mode_ok = CheckIvfRerankMode(rmode, ivf_index.get());
    if (!mode_ok.ok()) return Fail(mode_ok.ToString());
    // For IVF backends the QuerySpec beam_width slot carries nprobe.
    opt.beam_width = flags.GetSize("nprobe", 8);
    std::printf("built ivf index: %zu lists, %zu vectors in %.1fs (%.1f MB)\n",
                ivf_index->nlist(), ivf_index->size(), build.ElapsedSeconds(),
                ivf_index->MemoryBytes() / 1e6);
    owned_service = std::make_unique<rpq::serve::IvfService>(
        *ivf_index, flags.GetSize("rerank", 0), rmode);
    service = owned_service.get();
  } else if (shards > 1) {
    rpq::graph::VamanaOptions vopt;
    vopt.degree = flags.GetSize("degree", 32);
    vopt.build_beam = flags.GetSize("build-beam", 64);
    rpq::serve::ShardedOptions sopt;
    sopt.parallel_shards = flags.Has("parallel-shards");
    sopt.shard_timeout_us = flags.GetSize("shard-timeout-us", 0);
    sopt.hedge_delay_us = flags.GetSize("hedge-us", 0);
    sopt.injected_stall_us = flags.GetSize("stall-ms", 2) * 1000;
    // Timeouts and hedging are properties of the parallel fan-out.
    if (sopt.shard_timeout_us > 0 || sopt.hedge_delay_us > 0) {
      sopt.parallel_shards = true;
    }
    rpq::Timer build;
    sharded = rpq::serve::BuildShardedMemoryIndex(base.value(), *model,
                                                  shards, vopt, sopt);
    std::printf("built %zu shards in %.1fs (%.1f MB resident%s)\n",
                sharded.shards.size(), build.ElapsedSeconds(),
                sharded.MemoryBytes() / 1e6,
                sopt.parallel_shards ? ", parallel fan-out" : "");
    service = sharded.service.get();
  } else {
    const char* gpath = flags.Get("graph");
    if (gpath == nullptr) return Fail("--graph is required when --shards 1");
    auto g = rpq::graph::ProximityGraph::Load(gpath);
    if (!g.ok()) return Fail(g.status().ToString());
    graph = std::move(g.value());
    if (use_disk) {
      auto mode_ok = CheckDiskRerankMode(rmode);
      if (!mode_ok.ok()) return Fail(mode_ok.ToString());
      rpq::disk::DiskIndexOptions dopt;
      dopt.ssd.transient_error_rate =
          flags.GetDouble("disk-error-rate", 0);
      dopt.ssd.latency_spike_rate =
          flags.GetDouble("disk-spike-rate", 0);
      dopt.ssd.fault_seed = flags.GetSize("fault-seed", 1);
      dopt.ssd.queue_depth = flags.GetSize("queue-depth", dopt.ssd.queue_depth);
      dopt.io_width = flags.GetSize("io-width", dopt.io_width);
      dopt.readahead = flags.GetSize("readahead", dopt.readahead);
      disk_index =
          rpq::disk::DiskIndex::Build(base.value(), graph, *model, dopt);
      owned_service =
          std::make_unique<rpq::serve::DiskIndexService>(*disk_index);
    } else {
      auto made = MakeMemoryBackend(flags, base.value(), graph, *model, rmode);
      if (!made.ok()) return Fail(made.status().ToString());
      MemoryBackend backend = std::move(made.value());
      mem_index = std::move(backend.index);
      linkcode = std::move(backend.linkcode);
      owned_service = std::make_unique<rpq::serve::MemoryIndexService>(
          *mem_index, backend.mode);
    }
    service = owned_service.get();
  }

  // Recall sanity line (serial replay, k results against exact GT).
  auto gt = rpq::ComputeGroundTruth(base.value(), queries.value(), opt.k);
  rpq::serve::ServingEngine serial(*service, {1});
  auto outcomes = serial.SearchAll(queries.value(), opt.k, opt.beam_width);
  std::vector<std::vector<rpq::Neighbor>> results(outcomes.size());
  for (size_t q = 0; q < outcomes.size(); ++q) {
    results[q] = std::move(outcomes[q].results);
  }
  std::printf("recall@%zu = %.4f (beam %zu, %zu shards)\n", opt.k,
              rpq::eval::MeanRecallAtK(results, gt, opt.k), opt.beam_width,
              std::max<size_t>(shards, 1));
  if (use_disk && !outcomes.empty()) {
    // Simulated device time per query from the serial replay — the honest
    // "disk I/O" number (wall-clock QPS above excludes simulated latency).
    // run_serve.sh parses this line into BENCH_serve.json so bench-diff
    // gates the async-submission speedup per PR.
    double io_sum = 0;
    for (const auto& o : outcomes) io_sum += o.simulated_io_seconds;
    std::printf("disk-io us/query = %.1f (serial replay)\n",
                io_sum * 1e6 / static_cast<double>(outcomes.size()));
  }

  auto closed = rpq::serve::RunClosedLoop(*service, queries.value(), opt);
  char label[64];
  std::snprintf(label, sizeof(label), "closed-loop x%zu", opt.threads);
  rpq::serve::PrintReport(label, closed);

  if (rate > 0) {
    rpq::serve::EngineOptions eopt;
    eopt.threads = opt.threads;
    eopt.shed_watermark = flags.GetSize("shed", 0);
    eopt.brownout_watermark = flags.GetSize("brownout", 0);
    rpq::serve::ServingEngine engine(*service, eopt);
    rpq::serve::LoadgenOptions oopt = opt;
    oopt.arrival_qps = rate;
    auto open = rpq::serve::RunOpenLoop(engine, queries.value(), oopt);
    std::snprintf(label, sizeof(label), "open-loop @%.0f/s%s", rate,
                  opt.batch > 1 ? " (batched)" : "");
    rpq::serve::PrintReport(label, open);
  }

  // Shard-wait distribution (fan-out start -> shard result available): the
  // histogram hedge_delay_us / shard_timeout_us should be tuned against.
  if (rpq::obs::MetricsEnabled() && shards > 1) {
    const rpq::obs::Snapshot snap = rpq::obs::TakeSnapshot();
    if (const rpq::obs::HistogramSnapshot* waits =
            snap.FindHistogram("serve.shard_wait_ns");
        waits != nullptr && waits->data.count > 0) {
      std::printf("shard-wait ms: p50 %7.3f  p95 %7.3f  p99 %7.3f  "
                  "max %7.3f  (%llu shard results)\n",
                  waits->data.Percentile(0.50) / 1e6,
                  waits->data.Percentile(0.95) / 1e6,
                  waits->data.Percentile(0.99) / 1e6,
                  static_cast<double>(waits->data.max) / 1e6,
                  static_cast<unsigned long long>(waits->data.count));
    }
  }
  {
    const rpq::obs::FlightRecorder& recorder = rpq::obs::GlobalFlightRecorder();
    if (recorder.enabled()) {
      std::printf("flight recorder: %llu observed, %llu admitted "
                  "(capacity %zu)\n",
                  static_cast<unsigned long long>(recorder.observed()),
                  static_cast<unsigned long long>(recorder.recorded()),
                  recorder.options().capacity);
    }
  }

  if (metrics_json != nullptr) {
    const std::string json = rpq::obs::DumpJson();
    std::FILE* fp = std::fopen(metrics_json, "w");
    if (fp == nullptr) {
      return Fail(std::string("cannot write ") + metrics_json);
    }
    std::fwrite(json.data(), 1, json.size(), fp);
    std::fputc('\n', fp);
    if (std::fclose(fp) != 0) {
      return Fail(std::string(metrics_json) + ": close failed");
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_json);
  }
  // --slow-json: the end-of-run flight-recorder dump, for offline checks
  // (CI verifies every deadline_exceeded query of a seeded run landed here).
  if (const char* slow_json = flags.Get("slow-json")) {
    const std::string json = rpq::obs::GlobalFlightRecorder().DumpJson();
    std::FILE* fp = std::fopen(slow_json, "w");
    if (fp == nullptr) return Fail(std::string("cannot write ") + slow_json);
    std::fwrite(json.data(), 1, json.size(), fp);
    std::fputc('\n', fp);
    if (std::fclose(fp) != 0) {
      return Fail(std::string(slow_json) + ": close failed");
    }
    std::printf("wrote flight-recorder dump to %s\n", slow_json);
  }
  return 0;
}

// Validates a --metrics-json snapshot: parses it with the in-repo JSON
// reader, checks the stable schema (version, counters / histograms objects,
// the summary fields on every histogram), and fails if any --require'd
// metric name — counter or histogram — is absent. The CI smoke leg runs
// this against the serve-bench artifact so a schema regression or a metric
// that silently stopped being emitted fails the build, not a dashboard.
bool ReadFileToString(const char* path, std::string* out) {
  std::FILE* fp = std::fopen(path, "rb");
  if (fp == nullptr) return false;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0) out->append(buf, n);
  std::fclose(fp);
  return true;
}

bool ParseJsonFile(const char* path, rpq::obs::JsonValue* root,
                   std::string* err) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *err = std::string("cannot read ") + path;
    return false;
  }
  if (!rpq::obs::ParseJson(text, root, err)) {
    *err = std::string(path) + ": " + *err;
    return false;
  }
  return true;
}

int CmdMetricsValidate(const Flags& flags) {
  const char* path = flags.Get("json");
  if (path == nullptr) return Fail("--json is required");
  rpq::obs::JsonValue root;
  std::string err;
  if (!ParseJsonFile(path, &root, &err)) return Fail(err);
  if (!root.is_object()) return Fail("top-level value is not an object");
  const rpq::obs::JsonValue* version = root.Find("version");
  if (version == nullptr || !version->is_number()) {
    return Fail("missing numeric \"version\"");
  }
  const rpq::obs::JsonValue* counters = root.Find("counters");
  const rpq::obs::JsonValue* histograms = root.Find("histograms");
  if (counters == nullptr || !counters->is_object()) {
    return Fail("missing \"counters\" object");
  }
  if (histograms == nullptr || !histograms->is_object()) {
    return Fail("missing \"histograms\" object");
  }
  for (const auto& [name, h] : histograms->object) {
    for (const char* field :
         {"count", "sum", "max", "mean", "p50", "p95", "p99", "buckets"}) {
      if (h.Find(field) == nullptr) {
        return Fail("histogram \"" + name + "\" missing \"" + field + "\"");
      }
    }
    if (!h.Find("buckets")->is_array()) {
      return Fail("histogram \"" + name + "\": \"buckets\" is not an array");
    }
  }
  size_t missing = 0;
  for (const std::string& key : ParseStringList(flags.Get("require"))) {
    if (counters->Find(key) == nullptr && histograms->Find(key) == nullptr) {
      std::fprintf(stderr, "missing required metric: %s\n", key.c_str());
      ++missing;
    }
  }
  if (missing > 0) {
    return Fail(std::to_string(missing) + " required metric(s) missing");
  }
  std::printf("%s: valid metrics snapshot (%zu counters, %zu histograms)\n",
              path, counters->object.size(), histograms->object.size());

  // --diff <older.json>: reconstruct both snapshots (buckets included) and
  // print the windowed view between them — what moved, and at what rate over
  // --interval-secs — the offline twin of the live /health computation.
  if (const char* older_path = flags.Get("diff")) {
    rpq::obs::JsonValue older_root;
    if (!ParseJsonFile(older_path, &older_root, &err)) return Fail(err);
    rpq::obs::Snapshot older, newer;
    if (!rpq::obs::SnapshotFromJson(older_root, &older, &err)) {
      return Fail(std::string(older_path) + ": " + err);
    }
    if (!rpq::obs::SnapshotFromJson(root, &newer, &err)) {
      return Fail(std::string(path) + ": " + err);
    }
    const double interval =
        flags.GetDouble("interval-secs", 1);
    const rpq::obs::WindowedView view =
        rpq::obs::DiffSnapshots(older, newer, interval);
    std::printf("diff %s -> %s over %.3gs:\n", older_path, path, interval);
    for (const auto& c : view.counters) {
      if (c.delta == 0) continue;
      std::printf("  %-28s +%-10llu %10.1f/s\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.delta), c.rate);
    }
    for (const auto& h : view.histograms) {
      if (h.interval.count == 0) continue;
      std::printf("  %-28s %8llu samples  p50 %11.0f  p95 %11.0f  "
                  "p99 %11.0f\n",
                  h.name.c_str(),
                  static_cast<unsigned long long>(h.interval.count),
                  h.interval.Percentile(0.50), h.interval.Percentile(0.95),
                  h.interval.Percentile(0.99));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// bench-diff: the per-PR regression gate. Compares two bench summary JSONs
// (BENCH_serve.json, BENCH_ivf.json) leaf by leaf and exits non-zero when a
// gated metric moved past tolerance. Direction is inferred from the metric
// name: recall/QPS/throughput must not DROP more than --max-recall-regress
// percent; latency/percentile/cost keys must not RISE more than
// --max-regress percent; any other numeric leaf is informational. Gated
// metrics present in the baseline but missing from the candidate also fail
// (a silently vanished metric must not read as "no regression").

enum class BenchDirection { kHigherBetter, kLowerBetter, kInfo };

BenchDirection ClassifyBenchKey(const std::string& key) {
  std::string k;
  k.reserve(key.size());
  for (char c : key) k += static_cast<char>(std::tolower(c));
  auto has = [&k](const char* s) { return k.find(s) != std::string::npos; };
  if (has("recall") || has("qps") || has("items_per_second") ||
      has("throughput")) {
    return BenchDirection::kHigherBetter;
  }
  if (has("p50") || has("p95") || has("p99") || has("latency") ||
      has("us_per") || has("ms_per") || has("ns_per") || has("mean_ms") ||
      has("wall") || has("cost") || has("seconds")) {
    return BenchDirection::kLowerBetter;
  }
  return BenchDirection::kInfo;
}

struct BenchDiffReport {
  double max_regress = 10.0;         // % tolerance for lower-better keys
  double max_recall_regress = 10.0;  // % tolerance for higher-better keys
  size_t compared = 0;
  size_t gated = 0;
  std::vector<std::string> failures;

  void CompareLeaf(const std::string& path, const std::string& key,
                   double old_v, double new_v) {
    ++compared;
    const BenchDirection dir = ClassifyBenchKey(key);
    if (dir == BenchDirection::kInfo) return;
    ++gated;
    if (old_v <= 0) return;  // no meaningful relative change from zero
    char line[256];
    if (dir == BenchDirection::kLowerBetter) {
      const double pct = (new_v - old_v) / old_v * 100.0;
      if (pct > max_regress) {
        std::snprintf(line, sizeof(line),
                      "%s: %.6g -> %.6g (+%.1f%%, tolerance +%.1f%%)",
                      path.c_str(), old_v, new_v, pct, max_regress);
        failures.emplace_back(line);
      }
    } else {
      const double pct = (old_v - new_v) / old_v * 100.0;
      if (pct > max_recall_regress) {
        std::snprintf(line, sizeof(line),
                      "%s: %.6g -> %.6g (-%.1f%%, tolerance -%.1f%%)",
                      path.c_str(), old_v, new_v, pct, max_recall_regress);
        failures.emplace_back(line);
      }
    }
  }

  void Missing(const std::string& path) {
    failures.push_back(path + ": gated metric missing from candidate");
  }
};

// The sweep-table convention (BENCH_ivf.json): an object holding
// "columns": ["nprobe", "recall@10", ...] plus sibling arrays of rows,
// each row one array of numbers. Rows are matched between baseline and
// candidate by their first cell (the sweep axis), and each remaining cell
// is gated under its column name.
void DiffBenchTable(const std::string& path,
                    const std::vector<rpq::obs::JsonValue>& columns,
                    const rpq::obs::JsonValue& old_rows,
                    const rpq::obs::JsonValue& new_rows,
                    BenchDiffReport* report) {
  auto row_ok = [](const rpq::obs::JsonValue& r) {
    return r.is_array() && !r.array.empty() && r.array[0].is_number();
  };
  for (const rpq::obs::JsonValue& old_row : old_rows.array) {
    if (!row_ok(old_row)) continue;
    const double axis = old_row.array[0].number;
    const rpq::obs::JsonValue* new_row = nullptr;
    for (const rpq::obs::JsonValue& candidate : new_rows.array) {
      if (row_ok(candidate) && candidate.array[0].number == axis) {
        new_row = &candidate;
        break;
      }
    }
    char axis_buf[48];
    std::snprintf(axis_buf, sizeof(axis_buf), "%.6g", axis);
    const std::string row_path = path + "[" + axis_buf + "]";
    if (new_row == nullptr) {
      report->Missing(row_path);
      continue;
    }
    const size_t cells =
        std::min(old_row.array.size(), new_row->array.size());
    for (size_t j = 1; j < cells; ++j) {
      if (!old_row.array[j].is_number() || !new_row->array[j].is_number()) {
        continue;
      }
      const std::string col =
          j < columns.size() &&
                  columns[j].type == rpq::obs::JsonValue::Type::kString
              ? columns[j].string
              : "col" + std::to_string(j);
      report->CompareLeaf(row_path + "." + col, col, old_row.array[j].number,
                          new_row->array[j].number);
    }
  }
}

void DiffBenchValues(const std::string& path, const std::string& key,
                     const rpq::obs::JsonValue& old_v,
                     const rpq::obs::JsonValue& new_v,
                     BenchDiffReport* report) {
  if (old_v.is_number() && new_v.is_number()) {
    report->CompareLeaf(path, key, old_v.number, new_v.number);
    return;
  }
  if (old_v.is_object() && new_v.is_object()) {
    const rpq::obs::JsonValue* old_cols = old_v.Find("columns");
    const bool is_table = old_cols != nullptr && old_cols->is_array();
    for (const auto& [name, old_child] : old_v.object) {
      const std::string child_path =
          path.empty() ? name : path + "." + name;
      const rpq::obs::JsonValue* new_child = new_v.Find(name);
      if (new_child == nullptr) {
        // A vanished subtree fails only if it held gated leaves; probe it
        // against itself to find out without duplicating the walk.
        BenchDiffReport probe;
        DiffBenchValues(child_path, name, old_child, old_child, &probe);
        if (probe.gated > 0) report->Missing(child_path);
        continue;
      }
      if (is_table && name != "columns" && old_child.is_array() &&
          new_child->is_array()) {
        DiffBenchTable(child_path, old_cols->array, old_child, *new_child,
                       report);
      } else {
        DiffBenchValues(child_path, name, old_child, *new_child, report);
      }
    }
    return;
  }
  if (old_v.is_array() && new_v.is_array()) {
    const size_t n = std::min(old_v.array.size(), new_v.array.size());
    for (size_t i = 0; i < n; ++i) {
      DiffBenchValues(path + "[" + std::to_string(i) + "]", key,
                      old_v.array[i], new_v.array[i], report);
    }
  }
  // Strings, bools, and type mismatches (dates, descriptions) are not gated.
}

int CmdBenchDiff(const std::vector<std::string>& positional,
                 const Flags& flags) {
  if (positional.size() != 2) {
    return Fail("usage: rpq_tool bench-diff <baseline.json> <candidate.json> "
                "[--max-regress pct] [--max-recall-regress pct]");
  }
  rpq::obs::JsonValue old_root, new_root;
  std::string err;
  if (!ParseJsonFile(positional[0].c_str(), &old_root, &err)) return Fail(err);
  if (!ParseJsonFile(positional[1].c_str(), &new_root, &err)) return Fail(err);

  BenchDiffReport report;
  report.max_regress = flags.GetDouble("max-regress", 10);
  report.max_recall_regress =
      flags.GetDouble("max-recall-regress", report.max_regress);
  DiffBenchValues("", "", old_root, new_root, &report);

  std::printf("bench-diff %s -> %s: %zu numeric leaves compared, %zu gated "
              "(tolerance +%.1f%% / recall -%.1f%%)\n",
              positional[0].c_str(), positional[1].c_str(), report.compared,
              report.gated, report.max_regress, report.max_recall_regress);
  if (report.failures.empty()) {
    std::printf("no regressions past tolerance\n");
    return 0;
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "REGRESSION %s\n", f.c_str());
  }
  return Fail(std::to_string(report.failures.size()) +
              " regression(s) past tolerance");
}

int Usage() {
  std::fprintf(stderr,
               "usage: rpq_tool <gen|stats|build-graph|train|encode|build-ivf|"
               "search|serve-bench|bench-diff|metrics-validate> [--flags]\n"
               "see the header of tools/rpq_tool.cc for the full pipeline\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Flags flags = ParseFlags(argc, argv, 2);
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "build-graph") return CmdBuildGraph(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "encode") return CmdEncode(flags);
  if (cmd == "build-ivf") return CmdBuildIvf(flags);
  if (cmd == "search") return CmdSearch(flags);
  if (cmd == "serve-bench") return CmdServeBench(flags);
  if (cmd == "bench-diff") {
    // bench-diff takes its two files positionally; skip over flag values so
    // "--max-regress 10" does not read as a file.
    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) ++i;
        continue;
      }
      positional.emplace_back(argv[i]);
    }
    return CmdBenchDiff(positional, flags);
  }
  if (cmd == "metrics-validate") return CmdMetricsValidate(flags);
  return Usage();
}
