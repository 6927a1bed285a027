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
//   rpq_tool search       <backend flags> --queries data/queries.fvecs
//                         [--k 10] [--dump-top1 path] [--trace]
//                         [--sweep-nprobe 1,2,4,...] [--sweep-csv out.csv]
//   rpq_tool serve-bench  <backend flags> --queries data/queries.fvecs
//                         [--k 10] [--threads 4] [--total 0] [--rate 0]
//                         [--batch 0] [--metrics-json out.json]
//                         [--deadline-us 0] [--shed 0] [--brownout 0]
//                         [--faults "point=rate,...,seed=N"]
//                         [--stats-port P] [--window-secs 5] [--slow-us 0]
//                         [--slow-capacity 256] [--slow-json out.json]
//   rpq_tool metrics-validate --json out.json [--require name1,name2,...]
//                         [--diff older.json [--interval-secs 1]]
//
// Every command takes flags only, and only the flags it reads (the table in
// Commands()): an unknown flag, a flag missing its value, or a bare word
// exits 1 with an error naming it before any work. --hybrid, --residual,
// --split, --store-vectors, --parallel-shards and --trace are switches and
// take no value.
//
// Backend flags. search and serve-bench build their backend with one builder
// (MakeBackend), so every backend flag means the same thing in both, and a
// flag the selected backend cannot honour is an error in both:
//
//   --base data/base.fvecs --model model.rpqq [--index memory|disk|ivf]
//   memory (the default; alias graph):
//       --graph g.bin --beam 64 [--mode adc|sdc|fastscan] [--rerank N]
//       [--rerank-mode adc|exact|linkcode] [--store-vectors]
//     or plain ADC shards: --shards S [--parallel-shards]
//       [--shard-timeout-us 0] [--hedge-us 0] [--stall-ms 2]
//   disk (alias --hybrid):
//       --graph g.bin --beam 64 [--queue-depth 8] [--io-width 1]
//       [--readahead 0] [--disk-error-rate 0] [--disk-spike-rate 0]
//       [--fault-seed N]
//   ivf: [--ivf ivf.bin] [--nlist 64] [--nprobe 8] [--residual [--m 16]]
//       [--rerank N] [--rerank-mode adc|exact] [--store-vectors]
//
// Both commands then replay the queries serially through the backend's
// serve::SearchService (search times that replay for its QPS; serve-bench
// prints its recall line from it) and print the disk backend's simulated
// device time as `disk-io us/query`.
//
// Observability (src/obs/): search --trace threads a per-query obs::QueryTrace
// through the backend and prints a per-stage time breakdown plus the search
// stats (hops, distance evals, visited-table hits) for the first few queries
// and in aggregate. With the registry on (search --trace, or serve-bench with
// --metrics-json, --stats-port or --slow-us) the replay also prints the
// per-query mean of every disk.* I/O counter that moved during it.
// serve-bench --metrics-json enables the process-wide
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
// writes the end-of-run dump for offline checks.
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
// unused). The index is built in memory or loaded from a build-ivf file
// (--ivf) and probes --nprobe cells per query (default 8); --sweep-nprobe
// prints a recall/QPS operating curve over the given
// comma-separated nprobe values, and --sweep-csv also writes it as
// `nprobe,recall@10,us_per_query` rows. serve-bench with --index ivf drives
// the same concurrent load tests over IvfService, where a query's beam_width
// slot carries its nprobe.
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
// latency.
//
// Fault tolerance (see README "Fault tolerance"): --deadline-us gives every
// query a latency budget (late queries return partial results flagged
// degraded); --shed / --brownout set the open-loop engine's admission
// watermarks; --faults installs a seeded process-wide injection plan (same
// syntax as RPQ_FAULTS: "disk_read_error=0.01,shard_stall=0.05,seed=7");
// --disk-error-rate / --disk-spike-rate / --fault-seed set the SSD
// simulator's own transient-failure and tail-spike rates and their seed
// (--index disk, search too); --shard-timeout-us
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
#include <array>
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

// Switches take no value: `--hybrid 0` is a stray word, not "off".
bool IsSwitch(const std::string& name) {
  return name == "hybrid" || name == "parallel-shards" || name == "residual" ||
         name == "split" || name == "store-vectors" || name == "trace";
}

// Parses the arguments after the command name against the flags it reads.
// Every argument must be a declared flag, and a non-switch flag must be
// followed by its value; anything else is an error naming the argument.
rpq::Status ParseFlags(int argc, char** argv,
                       const std::vector<std::string>& accepted, Flags* f) {
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return rpq::Status::InvalidArgument(std::string("unexpected argument '") +
                                          argv[i] + "' (flags only)");
    }
    const std::string key = argv[i] + 2;
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      return rpq::Status::InvalidArgument("unknown flag --" + key);
    }
    if (IsSwitch(key)) {
      f->kv[key] = "1";
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      f->kv[key] = argv[++i];
    } else {
      return rpq::Status::InvalidArgument("--" + key + " expects a value");
    }
  }
  return rpq::Status::OK();
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

// The fvecs file named by the required flag --<key> (--base, --queries).
rpq::Result<Dataset> LoadVectors(const Flags& flags, const char* key) {
  const char* path = flags.Get(key);
  if (path == nullptr) {
    return rpq::Status::InvalidArgument(std::string("--") + key +
                                        " is required");
  }
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
  auto base = LoadVectors(flags, "base");
  if (!base.ok()) return Fail(base.status().ToString());
  const Dataset& d = base.value();
  double lid = rpq::EstimateLid(d, 20, std::min<size_t>(200, d.size() / 2));
  std::printf("vectors: %zu\ndims:    %zu\nLID:     %.1f\nraw MB:  %.2f\n",
              d.size(), d.dim(), lid, d.size() * d.dim() * 4 / 1e6);
  return 0;
}

int CmdBuildGraph(const Flags& flags) {
  auto base = LoadVectors(flags, "base");
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
  auto base = LoadVectors(flags, "base");
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
  auto base = LoadVectors(flags, "base");
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

// Parses --rerank-mode (absent = auto); unknown names are a flag error.
rpq::Status GetRerankMode(const Flags& flags, rpq::refine::RerankMode* mode) {
  if (rpq::refine::ParseRerankMode(flags.Get("rerank-mode", "auto"), mode)) {
    return rpq::Status::OK();
  }
  return rpq::Status::InvalidArgument(
      "--rerank-mode must be adc, exact, or linkcode");
}

// IVF refinement-stage validation. Called with index == nullptr before any
// index work (the stages IVF can never serve) and again with the built or
// loaded index (exact needs the raw rows this particular index retains).
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

// A backend assembled from the flags by MakeBackend: the one place search
// and serve-bench build what they serve, so a backend flag means the same
// thing in both. `service` is the front end every query goes through, and
// `width` its per-query knob (the beam, or nprobe for IVF).
//
// Declaration order is destruction order in reverse, and it matters: the
// sharded deployment's destructor drains abandoned fan-out tasks that may
// still touch the shard backends AND what those borrow (the quantizer, the
// graph, the caller's base rows) — so everything borrowed is declared
// BEFORE the service objects, outliving them.
struct Backend {
  Backend() = default;
  // Pinned in place: the indexes hold references to `graph` and `model`.
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// --model, or the residual model the IVF flow trained in-process.
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  rpq::graph::ProximityGraph graph;
  std::unique_ptr<rpq::core::MemoryIndex> mem_index;
  std::unique_ptr<rpq::quant::LinkCodeIndex> linkcode;  ///< kLinkCode only
  std::unique_ptr<rpq::disk::DiskIndex> disk_index;
  std::unique_ptr<rpq::ivf::IvfIndex> ivf_index;
  std::unique_ptr<rpq::serve::SearchService> owned_service;
  rpq::serve::ShardedMemoryIndex sharded;
  const rpq::serve::SearchService* service = nullptr;
  size_t width = 64;
  size_t shards = 1;
};

// The memory (graph) backend with its refinement epilogue configured from
// the flags: distance-mode parse, the rerank-mode-requires-fastscan rule,
// --rerank-mode exact implying retained rows, and Link&Code model wiring.
rpq::Status MakeMemoryBackend(const Flags& flags, const Dataset& base,
                              rpq::refine::RerankMode rmode, Backend* b) {
  rpq::core::DistanceMode mode = rpq::core::DistanceMode::kAdc;
  const std::string mode_name = flags.Get("mode", "adc");
  if (mode_name == "sdc") {
    mode = rpq::core::DistanceMode::kSdc;
  } else if (mode_name == "fastscan") {
    mode = rpq::core::DistanceMode::kFastScan;
  } else if (mode_name != "adc") {
    // A typo'd mode must not silently benchmark plain ADC.
    return rpq::Status::InvalidArgument("unknown --mode: " + mode_name +
                                        " (adc|sdc|fastscan)");
  }
  if (rmode != rpq::refine::RerankMode::kAuto &&
      mode != rpq::core::DistanceMode::kFastScan) {
    return rpq::Status::InvalidArgument(
        "--rerank-mode applies to --mode fastscan (the mode with a "
        "refinement epilogue)");
  }
  rpq::core::MemoryIndexOptions mopt;
  mopt.store_vectors = flags.Has("store-vectors") ||
                       rmode == rpq::refine::RerankMode::kExact;
  b->mem_index = rpq::core::MemoryIndex::Build(base, b->graph, *b->model, mopt);
  if (mode == rpq::core::DistanceMode::kFastScan) {
    if (!b->mem_index->fastscan_capable()) {
      return rpq::Status::InvalidArgument(
          "--mode fastscan needs a 4-bit model (train with --nbits 4)");
    }
    b->mem_index->set_fastscan_rerank(flags.GetSize("rerank", 0));
    b->mem_index->set_rerank_mode(rmode);
    if (rmode == rpq::refine::RerankMode::kLinkCode) {
      // A Link&Code model shaped like --model (same m/K, its own
      // least-squares neighbor weights).
      rpq::Timer lc_timer;
      rpq::quant::LinkCodeOptions lopt;
      lopt.pq.m = b->model->num_chunks();
      lopt.pq.k = b->model->num_centroids();
      lopt.pq.nbits = lopt.pq.k <= 16 ? 4 : 8;
      b->linkcode = rpq::quant::LinkCodeIndex::Build(base, b->graph, lopt);
      b->mem_index->set_linkcode(b->linkcode.get());
      std::printf("linkcode model fit in %.1fs\n", lc_timer.ElapsedSeconds());
    }
  }
  b->owned_service =
      std::make_unique<rpq::serve::MemoryIndexService>(*b->mem_index, mode);
  return rpq::Status::OK();
}

// Builds an IVF index over the base into `b`. The plain flow encodes raw
// rows with `b->model` (required); the --residual flow trains the coarse
// quantizer first (deterministic in the flags, so the same flags reproduce
// the same routing) and encodes per-cell residuals with `b->model` when set,
// a freshly trained residual model otherwise. Impossible refinement stages
// are rejected before the (potentially expensive) build, and --rerank-mode
// exact implies --store-vectors: the exact stage needs the raw rows resident.
rpq::Status BuildIvfIndex(const Flags& flags, const Dataset& base,
                          rpq::refine::RerankMode rmode, Backend* b) {
  RPQ_RETURN_NOT_OK(CheckIvfRerankMode(rmode, nullptr));
  rpq::ivf::IvfOptions opt;
  opt.nlist = flags.GetSize("nlist", 64);
  opt.default_nprobe = flags.GetSize("nprobe", 8);
  opt.store_vectors = flags.Has("store-vectors") ||
                      rmode == rpq::refine::RerankMode::kExact;
  opt.train_sample = flags.GetSize("train-sample", 0);
  opt.residual = flags.Has("residual");
  if (b->model == nullptr && !opt.residual) {
    return rpq::Status::InvalidArgument("--model is required");
  }
  std::vector<float> centroids;
  if (opt.residual) centroids = rpq::ivf::IvfIndex::TrainCoarse(base, opt);
  if (b->model == nullptr) {
    // The residual model's codebooks must see the residual distribution
    // (x - centroid), which only exists once the coarse quantizer is
    // trained, so the training set is derived here. --nbits 8 (the default
    // in this flow) trains the K = 256 split-table regime; --nbits 4 a plain
    // 4-bit model.
    const size_t nbits = flags.GetSize("nbits", 8);
    if (nbits != 8 && nbits != 4) {
      return rpq::Status::InvalidArgument("--nbits must be 8 or 4");
    }
    const size_t dim = base.dim();
    std::vector<float> resid(base.size() * dim);
    for (size_t i = 0; i < base.size(); ++i) {
      const uint32_t c = rpq::quant::NearestCentroid(
          base[i], centroids.data(), centroids.size() / dim, dim);
      const float* cent = centroids.data() + size_t{c} * dim;
      for (size_t d = 0; d < dim; ++d) {
        resid[i * dim + d] = base[i][d] - cent[d];
      }
    }
    const Dataset residual_set(base.size(), dim, std::move(resid));
    rpq::quant::PqOptions popt;
    popt.m = flags.GetSize("m", 16);
    popt.nbits = nbits;
    b->model = nbits == 8 ? rpq::quant::TrainSplitPq(residual_set, popt)
                          : rpq::quant::PqQuantizer::Train(residual_set, popt);
  }
  if (b->model->num_centroids() > 16 && b->model->split_model() == nullptr) {
    return rpq::Status::InvalidArgument(
        "the IVF index needs a FastScan-capable model: 4-bit (--nbits 4) or "
        "split-trained K = 256 (train --split / build-ivf --residual)");
  }
  if (opt.residual) {
    b->ivf_index = rpq::ivf::IvfIndex::BuildWithCentroids(
        base, std::move(centroids), *b->model, opt);
  } else {
    b->ivf_index = rpq::ivf::IvfIndex::Build(base, *b->model, opt);
  }
  return rpq::Status::OK();
}

// Assembles the backend the flags select, over `base` (borrowed; it must
// outlive the backend):
//   --index memory (alias graph)  one in-memory graph index over --graph, or
//                                 an S-shard deployment with --shards S > 1
//                                 (per-shard Vamana graphs, plain ADC)
//   --index disk   (alias --hybrid)  the hybrid SSD index over --graph
//   --index ivf    a saved index (--ivf + --model) or one built here
// Flags a backend cannot honour are errors, never silently ignored.
rpq::Result<std::unique_ptr<Backend>> MakeBackend(const Flags& flags,
                                                  const Dataset& base) {
  auto b = std::make_unique<Backend>();
  const char* index_flag = flags.Get("index");
  std::string kind = index_flag != nullptr ? index_flag : "memory";
  if (kind == "graph") kind = "memory";  // alias
  if (flags.Has("hybrid")) {
    if (index_flag != nullptr && kind != "disk") {
      return rpq::Status::InvalidArgument(
          "--hybrid selects the disk backend; it conflicts with --index " +
          kind);
    }
    kind = "disk";
  }
  if (kind != "memory" && kind != "disk" && kind != "ivf") {
    return rpq::Status::InvalidArgument("unknown --index: " + kind +
                                        " (memory|disk|ivf)");
  }
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  RPQ_RETURN_NOT_OK(GetRerankMode(flags, &rmode));
  // The sharded deployment builds plain ADC memory shards; flags it cannot
  // honor must fail loudly, not silently benchmark something else.
  // (--mode adc is what it serves anyway, so an explicit request passes.)
  b->shards = std::max<size_t>(flags.GetSize("shards", 1), 1);
  if (b->shards > 1 &&
      (kind != "memory" || std::string(flags.Get("mode", "adc")) != "adc" ||
       flags.Has("rerank") || flags.Has("rerank-mode") ||
       flags.Has("store-vectors"))) {
    return rpq::Status::InvalidArgument(
        "--shards > 1 serves plain ADC memory shards; --index disk|ivf, "
        "--mode sdc|fastscan, --rerank, --rerank-mode, and --store-vectors "
        "are not supported there");
  }
  if (const char* mpath = flags.Get("model")) {
    auto loaded = rpq::quant::LoadQuantizer(mpath);
    if (!loaded.ok()) return loaded.status();
    b->model = std::move(loaded.value());
  }
  // The IVF flow may train its model in-process; every other backend needs
  // --model.
  if (b->model == nullptr && kind != "ivf") {
    return rpq::Status::InvalidArgument("--model is required");
  }
  // The per-query knob: nprobe for IVF, the beam width otherwise.
  b->width = kind == "ivf" ? flags.GetSize("nprobe", 8)
                           : flags.GetSize("beam", 64);
  // One index over --graph: the memory and disk backends (the sharded
  // deployment builds its own per-shard graphs).
  if (kind != "ivf" && b->shards == 1) {
    const char* gpath = flags.Get("graph");
    if (gpath == nullptr) {
      return rpq::Status::InvalidArgument(
          "--graph is required (unless --shards > 1)");
    }
    auto g = rpq::graph::ProximityGraph::Load(gpath);
    if (!g.ok()) return g.status();
    b->graph = std::move(g.value());
  }

  if (kind == "ivf") {
    rpq::Timer build;
    if (const char* path = flags.Get("ivf")) {
      if (b->model == nullptr) {
        return rpq::Status::InvalidArgument(
            "--ivf needs --model (the quantizer the index was built with)");
      }
      auto loaded = rpq::ivf::IvfIndex::Load(path, *b->model);
      if (!loaded.ok()) return loaded.status();
      b->ivf_index = std::move(loaded.value());
    } else {
      RPQ_RETURN_NOT_OK(BuildIvfIndex(flags, base, rmode, b.get()));
    }
    // Linkcode and exact-without-rows, checked against the index served.
    RPQ_RETURN_NOT_OK(CheckIvfRerankMode(rmode, b->ivf_index.get()));
    std::printf("built ivf index: %zu lists, %zu vectors in %.1fs (%.1f MB)\n",
                b->ivf_index->nlist(), b->ivf_index->size(),
                build.ElapsedSeconds(), b->ivf_index->MemoryBytes() / 1e6);
    b->owned_service = std::make_unique<rpq::serve::IvfService>(
        *b->ivf_index, flags.GetSize("rerank", 0), rmode);
  } else if (b->shards > 1) {
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
    b->sharded = rpq::serve::BuildShardedMemoryIndex(base, *b->model,
                                                     b->shards, vopt, sopt);
    std::printf("built %zu shards in %.1fs (%.1f MB resident%s)\n",
                b->sharded.shards.size(), build.ElapsedSeconds(),
                b->sharded.MemoryBytes() / 1e6,
                sopt.parallel_shards ? ", parallel fan-out" : "");
  } else if (kind == "disk") {
    // The disk backend's exact-on-fetch rerank is inherent; any other
    // requested stage is a flag error.
    if (rmode != rpq::refine::RerankMode::kAuto &&
        rmode != rpq::refine::RerankMode::kExact) {
      return rpq::Status::InvalidArgument(
          "the disk backend reranks every fetched vector exactly; "
          "--rerank-mode " +
          std::string(rpq::refine::RerankModeName(rmode)) + " does not apply");
    }
    rpq::disk::DiskIndexOptions dopt;
    dopt.ssd.transient_error_rate = flags.GetDouble("disk-error-rate", 0);
    dopt.ssd.latency_spike_rate = flags.GetDouble("disk-spike-rate", 0);
    dopt.ssd.fault_seed = flags.GetSize("fault-seed", 1);
    dopt.ssd.queue_depth = flags.GetSize("queue-depth", dopt.ssd.queue_depth);
    dopt.io_width = flags.GetSize("io-width", dopt.io_width);
    dopt.readahead = flags.GetSize("readahead", dopt.readahead);
    b->disk_index =
        rpq::disk::DiskIndex::Build(base, b->graph, *b->model, dopt);
    b->owned_service =
        std::make_unique<rpq::serve::DiskIndexService>(*b->disk_index);
  } else {
    RPQ_RETURN_NOT_OK(MakeMemoryBackend(flags, base, rmode, b.get()));
  }
  b->service = b->shards > 1 ? b->sharded.service.get()
                             : b->owned_service.get();
  return b;
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
// the first few queries, totals for the whole run. The stat columns are a
// query's graph::SearchStats; the graph backends report hops / distance
// evals / visited-table hits, while IvfService carries lists probed / codes
// scanned in the first two (a nullptr label drops the column entirely), so
// the printout does not overload graph terms for flat-scan stats.
struct TraceAccumulator {
  static constexpr size_t kPerQueryLines = 8;
  static constexpr size_t kStatColumns = 3;

  std::array<const char*, kStatColumns> labels = {"hops", "dist",
                                                  "visited-hits"};

  rpq::obs::QueryTrace totals;
  size_t stats[kStatColumns] = {0, 0, 0};
  size_t queries = 0;
  std::vector<std::string> lines;

  void Note(size_t q, const rpq::obs::QueryTrace& trace,
            const rpq::graph::SearchStats& s) {
    ++queries;
    const size_t row[kStatColumns] = {s.hops, s.dist_comps, s.visited_hits};
    for (size_t c = 0; c < kStatColumns; ++c) stats[c] += row[c];
    for (size_t st = 0; st < rpq::obs::kNumStages; ++st) {
      const auto stage = static_cast<rpq::obs::Stage>(st);
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

// The disk I/O counters the replay's per-query breakdown reports — the same
// names /metrics exports.
bool IsDiskIoCounter(const std::string& name) {
  return name == "disk.block_reads" || name == "disk.io_waves" ||
         name == "disk.latency_spikes" || name.rfind("disk.prefetch_", 0) == 0;
}

struct Replay {
  std::vector<std::vector<rpq::Neighbor>> results;
  double seconds = 0;  ///< wall time of the query loop alone
};

// Serial replay of every query through the backend's SearchService: the
// timed loop of search and the recall line of serve-bench. With `trace` set,
// each query carries an obs::QueryTrace that is noted into it. The disk
// backend's simulated device time per query is printed on its own
// `disk-io us/query` line (wall-clock QPS excludes it). With the registry
// on, the per-query mean of every disk I/O counter that moved during the
// replay is printed from a diff of snapshots taken around it.
Replay ReplayQueries(const Backend& b, const Dataset& queries, size_t k,
                     TraceAccumulator* trace) {
  Replay out;
  out.results.resize(queries.size());
  const bool registry = rpq::obs::MetricsEnabled();
  const rpq::obs::Snapshot before =
      registry ? rpq::obs::TakeSnapshot() : rpq::obs::Snapshot{};
  double io_seconds = 0;
  rpq::Timer timer;
  for (size_t q = 0; q < queries.size(); ++q) {
    // Registry only: each query's whole service call, stage.service_ns.
    rpq::obs::ScopedStage span(rpq::obs::Stage::kService, nullptr);
    rpq::obs::QueryTrace qtrace;
    rpq::serve::QuerySpec spec{queries[q], k, b.width};
    spec.trace = trace != nullptr ? &qtrace : nullptr;
    rpq::serve::QueryResult r = b.service->Search(spec);
    io_seconds += r.simulated_io_seconds;
    if (trace != nullptr) trace->Note(q, qtrace, r.stats);
    out.results[q] = std::move(r.results);
  }
  out.seconds = timer.ElapsedSeconds();

  const double nq = std::max<double>(1.0, queries.size());
  if (b.disk_index != nullptr) {
    std::printf("disk-io us/query = %.1f (serial replay)\n",
                io_seconds * 1e6 / nq);
  }
  if (registry) {
    const rpq::obs::WindowedView moved = rpq::obs::DiffSnapshots(
        before, rpq::obs::TakeSnapshot(), out.seconds);
    std::string line;
    for (const auto& c : moved.counters) {
      if (c.delta == 0 || !IsDiskIoCounter(c.name)) continue;
      char item[96];
      std::snprintf(item, sizeof(item), "  %s %.1f", c.name.c_str(),
                    c.delta / nq);
      line += item;
    }
    if (!line.empty()) std::printf("disk-io per query:%s\n", line.c_str());
  }
  return out;
}

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
  auto base = LoadVectors(flags, "base");
  if (!base.ok()) return Fail(base.status().ToString());
  const char* mpath = flags.Get("model");
  const char* out = flags.Get("out");
  if (mpath == nullptr || out == nullptr) {
    return Fail("--model and --out are required");
  }
  // Validate up front: a typo'd --rerank-mode must not silently build an
  // index without the raw rows the intended exact stage needs.
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  auto mode_ok = GetRerankMode(flags, &rmode);
  if (!mode_ok.ok()) return Fail(mode_ok.ToString());
  rpq::Timer timer;
  // The residual flow trains its model from the per-cell residuals, so
  // --model is the OUTPUT path for that model there (search and serve-bench
  // load it back next to --ivf); the plain flow reads it.
  const bool residual = flags.Has("residual");
  Backend b;
  if (!residual) {
    auto loaded = rpq::quant::LoadQuantizer(mpath);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    b.model = std::move(loaded.value());
  }
  auto built = BuildIvfIndex(flags, base.value(), rmode, &b);
  if (!built.ok()) return Fail(built.ToString());
  if (residual) {
    auto ms = rpq::quant::SaveQuantizer(*b.model, mpath);
    if (!ms.ok()) return Fail(ms.ToString());
    std::printf("trained residual model (m=%zu, K=%zu%s), saved to %s\n",
                b.model->num_chunks(), b.model->num_centroids(),
                b.model->split_model() != nullptr ? ", split" : "", mpath);
  }
  const rpq::ivf::IvfIndex& index = *b.ivf_index;
  std::printf("ivf index: %zu lists over %zu vectors in %.1fs (%.1f MB)\n",
              index.nlist(), index.size(), timer.ElapsedSeconds(),
              index.MemoryBytes() / 1e6);
  auto s = index.Save(out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdSearch(const Flags& flags) {
  auto base = LoadVectors(flags, "base");
  if (!base.ok()) return Fail(base.status().ToString());
  auto queries = LoadVectors(flags, "queries");
  if (!queries.ok()) return Fail(queries.status().ToString());
  // The backend is built before the timed loop: the timer below covers the
  // query replay only, never index construction.
  auto made = MakeBackend(flags, base.value());
  if (!made.ok()) return Fail(made.status().ToString());
  const Backend& b = *made.value();

  const size_t k = flags.GetSize("k", 10);
  auto gt = rpq::ComputeGroundTruth(base.value(), queries.value(), k);

  // --sweep-nprobe prints the IVF recall/QPS curve through the same service;
  // its refinement defaults ride inside the service, so every operating
  // point reranks the same way.
  if (const char* sweep = flags.Get("sweep-nprobe");
      sweep != nullptr && b.ivf_index != nullptr) {
    auto nprobes = ParseSizeList(sweep);
    if (nprobes.empty()) return Fail("--sweep-nprobe expects n1,n2,...");
    rpq::eval::SearchFn fn = [&b](const float* q, size_t kk, size_t nprobe) {
      rpq::serve::QueryResult r = b.service->Search({q, kk, nprobe});
      rpq::eval::SearchOutcome out;
      out.results = std::move(r.results);
      out.hops = r.stats.hops;  // lists probed
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

  // --trace: thread a per-query obs::QueryTrace through the backend (also
  // enabling the registry so the stage histograms fill and the disk I/O
  // breakdown prints) and print the per-stage breakdown + search stats after
  // the replay. The trace lines are accumulated inside the timed loop, so
  // the QPS on a traced run includes the (small) tracing overhead — it
  // measures what it ran.
  const bool trace_on = flags.Has("trace");
  if (trace_on) rpq::obs::SetMetricsEnabled(true);
  TraceAccumulator tacc;
  if (b.ivf_index != nullptr) {  // IVF has no visited table
    tacc.labels = {"lists-probed", "codes-scanned", nullptr};
  }
  const Replay replay =
      ReplayQueries(b, queries.value(), k, trace_on ? &tacc : nullptr);
  std::printf("queries: %zu  recall@%zu: %.4f  QPS: %.1f\n",
              queries.value().size(), k,
              rpq::eval::MeanRecallAtK(replay.results, gt, k),
              queries.value().size() / std::max(replay.seconds, 1e-12));
  if (trace_on) tacc.Print();

  if (const char* dump = flags.Get("dump-top1")) {
    // One line per query: the top result's vertex id. Ids (not distances)
    // are the cross-backend invariant: the integer FastScan scan is
    // bit-identical everywhere, while the float lookup tables it quantizes
    // are only 1e-4-relative across SIMD backends, so distance BITS may
    // differ in the last ulps even when every ranking decision agrees.
    std::FILE* fp = std::fopen(dump, "w");
    if (fp == nullptr) return Fail(std::string("cannot write ") + dump);
    for (size_t q = 0; q < replay.results.size(); ++q) {
      if (replay.results[q].empty()) {
        std::fprintf(fp, "%zu -\n", q);
      } else {
        std::fprintf(fp, "%zu %u\n", q, replay.results[q][0].id);
      }
    }
    std::fclose(fp);
    std::printf("wrote top-1 dump to %s\n", dump);
  }
  return 0;
}

// Writes `json` plus a trailing newline to `path`.
rpq::Status WriteJsonFile(const char* path, const std::string& json) {
  std::FILE* fp = std::fopen(path, "w");
  if (fp == nullptr) {
    return rpq::Status::IOError(std::string("cannot write ") + path);
  }
  std::fwrite(json.data(), 1, json.size(), fp);
  std::fputc('\n', fp);
  if (std::fclose(fp) != 0) {
    return rpq::Status::IOError(std::string(path) + ": close failed");
  }
  return rpq::Status::OK();
}

int CmdServeBench(const Flags& flags) {
  auto base = LoadVectors(flags, "base");
  if (!base.ok()) return Fail(base.status().ToString());
  auto queries = LoadVectors(flags, "queries");
  if (!queries.ok()) return Fail(queries.status().ToString());

  rpq::serve::LoadgenOptions opt;
  opt.k = flags.GetSize("k", 10);
  opt.threads = flags.GetSize("threads", 4);
  opt.total_queries = flags.GetSize("total", 0);
  opt.batch = flags.GetSize("batch", 0);  // open-loop leg only
  opt.deadline_us = flags.GetSize("deadline-us", 0);
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

  auto made = MakeBackend(flags, base.value());
  if (!made.ok()) return Fail(made.status().ToString());
  const Backend& b = *made.value();
  opt.beam_width = b.width;

  // Recall sanity line (serial replay, k results against exact GT).
  auto gt = rpq::ComputeGroundTruth(base.value(), queries.value(), opt.k);
  const Replay replay = ReplayQueries(b, queries.value(), opt.k, nullptr);
  std::printf("recall@%zu = %.4f (beam %zu, %zu shards)\n", opt.k,
              rpq::eval::MeanRecallAtK(replay.results, gt, opt.k),
              opt.beam_width, b.shards);

  auto closed = rpq::serve::RunClosedLoop(*b.service, queries.value(), opt);
  char label[64];
  std::snprintf(label, sizeof(label), "closed-loop x%zu", opt.threads);
  rpq::serve::PrintReport(label, closed);

  if (rate > 0) {
    rpq::serve::EngineOptions eopt;
    eopt.threads = opt.threads;
    eopt.shed_watermark = flags.GetSize("shed", 0);
    eopt.brownout_watermark = flags.GetSize("brownout", 0);
    rpq::serve::ServingEngine engine(*b.service, eopt);
    rpq::serve::LoadgenOptions oopt = opt;
    oopt.arrival_qps = rate;
    auto open = rpq::serve::RunOpenLoop(engine, queries.value(), oopt);
    std::snprintf(label, sizeof(label), "open-loop @%.0f/s%s", rate,
                  opt.batch > 1 ? " (batched)" : "");
    rpq::serve::PrintReport(label, open);
  }

  // Shard-wait distribution (fan-out start -> shard result available): the
  // histogram hedge_delay_us / shard_timeout_us should be tuned against.
  if (rpq::obs::MetricsEnabled() && b.shards > 1) {
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
    auto s = WriteJsonFile(metrics_json, rpq::obs::DumpJson());
    if (!s.ok()) return Fail(s.ToString());
    std::printf("wrote metrics snapshot to %s\n", metrics_json);
  }
  // --slow-json: the end-of-run flight-recorder dump, for offline checks
  // (CI verifies every deadline_exceeded query of a seeded run landed here).
  if (const char* slow_json = flags.Get("slow-json")) {
    auto s = WriteJsonFile(slow_json,
                           rpq::obs::GlobalFlightRecorder().DumpJson());
    if (!s.ok()) return Fail(s.ToString());
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

struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;  ///< every flag the command reads
};

// The command table: main accepts exactly these flags per command.
std::vector<Command> Commands() {
  // The query set, k and MakeBackend's flags: shared by search and
  // serve-bench.
  const std::vector<std::string> backend = {
      "base", "queries", "k", "index", "hybrid", "model", "graph", "beam",
      "mode", "rerank", "rerank-mode", "store-vectors", "shards",
      "parallel-shards", "shard-timeout-us", "hedge-us", "stall-ms",
      "degree", "build-beam", "queue-depth", "io-width", "readahead",
      "disk-error-rate", "disk-spike-rate", "fault-seed", "ivf", "nlist",
      "nprobe", "train-sample", "residual", "nbits", "m"};
  auto with_backend = [&backend](std::vector<std::string> own) {
    own.insert(own.end(), backend.begin(), backend.end());
    return own;
  };
  return {
      {"gen", CmdGen, {"name", "n", "queries", "seed", "out"}},
      {"stats", CmdStats, {"base"}},
      {"build-graph", CmdBuildGraph,
       {"base", "type", "out", "degree", "build-beam"}},
      {"train", CmdTrain,
       {"base", "method", "out", "nbits", "m", "k", "split", "iters", "graph",
        "epochs", "triplets", "routing-queries"}},
      {"encode", CmdEncode, {"base", "model", "out"}},
      {"build-ivf", CmdBuildIvf,
       {"base", "model", "out", "rerank-mode", "residual", "nlist", "nprobe",
        "store-vectors", "train-sample", "nbits", "m"}},
      {"search", CmdSearch,
       with_backend({"sweep-nprobe", "sweep-csv", "trace", "dump-top1"})},
      {"serve-bench", CmdServeBench,
       with_backend({"threads", "total", "rate", "batch", "deadline-us",
                     "shed", "brownout", "faults", "metrics-json",
                     "stats-port", "window-secs", "slow-us", "slow-capacity",
                     "slow-json"})},
      {"metrics-validate", CmdMetricsValidate,
       {"json", "require", "diff", "interval-secs"}},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: rpq_tool <gen|stats|build-graph|train|encode|build-ivf|"
               "search|serve-bench|metrics-validate> [--flags]\n"
               "see the header of tools/rpq_tool.cc for the full pipeline\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string name = argv[1];
  for (const Command& cmd : Commands()) {
    if (name != cmd.name) continue;
    Flags flags;
    auto parsed = ParseFlags(argc, argv, cmd.flags, &flags);
    if (!parsed.ok()) return Fail(name + ": " + parsed.message());
    return cmd.run(flags);
  }
  return Usage();
}
