// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload uni_index|real_overlap|serve_mixed|serve_overlap
//             --seed N --seconds S --trace 0|1 --tmp_dir DIR [--revision R]
//
// Every input is generated from --seed; the library sees only the generated
// databases and query matrices. Each run sets the program up several times
// (setup_s is their median), runs a closed loop of whole rounds for
// --seconds, and checks every answer against a reference computed apart
// from the timed path. The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. perfbench/README.md documents the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "answer_check.h"
#include "bench/bench_common.h"
#include "core/engine.h"
#include "core/query_engine.h"
#include "datagen/query_gen.h"
#include "datagen/synthetic.h"
#include "inference/grn_inference.h"
#include "matrix/simd_ops.h"
#include "query/linear_scan.h"
#include "service/partitioner.h"
#include "service/query_service.h"
#include "service/sharded_engine.h"
#include "service/thread_pool.h"

namespace imgrn {
namespace perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workload make-up. README.md explains each choice.

constexpr size_t kQueryGenes = 5;         // n_Q.
constexpr double kGamma = 0.5;
constexpr double kAlpha = 0.2;            // Most queries return a match.
constexpr size_t kMonteCarloSamples = 1024;  // S, inference and refinement.
constexpr size_t kSetupRepeats = 3;       // setup_s is their median.
// Shape of the source every workload's update operations add and remove.
constexpr size_t kExtraGenes = 75;
constexpr size_t kExtraSamples = 40;

// uni_index: Uni synthetic database, gene universe growing with N (2.5 N),
// disk-backed store with the default 128-page buffer pool.
constexpr size_t kUniSources = 400;
constexpr size_t kUniQueryPool = 256;
// uni_index and real_overlap: one AddMatrix/RemoveMatrix pair per this
// many queries.
constexpr size_t kEngineQueriesPerUpdate = 64;
constexpr size_t kEngineWarmupQueries = 64;

// real_overlap: DREAM5-like combined set sharing a few-hundred-gene
// universe; memory store with a pool larger than the tree.
constexpr size_t kRealSources = 400;
constexpr double kRealOrganismScale = 0.03;
constexpr size_t kRealQueryPool = 256;
constexpr size_t kRealBufferPoolPages = 1 << 16;

// serve_mixed and serve_overlap: ShardedEngine + QueryService; serve_mixed
// over Zipf-sized sources, serve_overlap over real_overlap's database.
constexpr size_t kServeSources = 400;
constexpr size_t kServeGenesMax = 300;
constexpr double kServeSizeSkew = 0.5;  // Source i has 300/(i+1)^0.5 genes.
constexpr size_t kServeShards = 3;
constexpr size_t kServePoolThreads = 3;  // Plus the driver: nproc = 4.
constexpr size_t kServeWindow = 4;       // Requests in flight.
constexpr size_t kServeCacheCapacity = 32;
constexpr size_t kServeQueryPool = 256;
constexpr double kServeQuerySkew = 1.0;  // Zipf exponent over the pool.
// A round of 4096 ops: an AddSource at op 2047, a RemoveSource of the same
// source at op 4095, queries elsewhere.
constexpr size_t kServeRoundOps = 4096;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Millis(double seconds) { return seconds * 1e3; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

// ---------------------------------------------------------------------------
// Arguments and output.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir = ".";
  std::string revision = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--tmp_dir") {
      args.tmp_dir = value;
    } else if (key == "--revision") {
      args.revision = value;
    } else {
      Die("unknown argument " + key);
    }
  }
  if (argc % 2 != 1) Die("arguments come in --key value pairs");
  if (!(args.seconds > 0)) Die("--seconds must be positive");
  return args;
}

// Nearest-rank quantile of the samples (sorted on a copy).
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

double Mean(const std::vector<double>& samples) {
  double total = 0;
  for (double v : samples) total += v;
  return Ratio(total, static_cast<double>(samples.size()));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Metrics in insertion order, rendered as the result object's "metrics".
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// What a run measures.

// Per-stage sums over the fresh (not cache-served) query evaluations whose
// QueryStats the traced run collected.
struct StageTotals {
  double queries = 0;
  double traversal_s = 0, refinement_s = 0, fill_s = 0;
  double page_accesses = 0, page_fetches = 0;
  double node_pairs = 0, node_pruned_signature = 0, node_pruned_lemma6 = 0;
  double leaf_pairs = 0, leaf_pruned_pivot = 0, leaf_pruned_lemma3 = 0;
  double candidate_pairs = 0, candidate_matrices = 0, pruned_lemma5 = 0;
  double answers = 0, shard_retries = 0;

  void Add(const QueryStats& s) {
    queries += 1;
    traversal_s += s.traversal_seconds;
    refinement_s += s.refinement_seconds;
    fill_s += s.permutation_fill_seconds;
    page_accesses += static_cast<double>(s.page_accesses);
    page_fetches += static_cast<double>(s.page_fetches);
    node_pairs += static_cast<double>(s.node_pairs_examined);
    node_pruned_signature += static_cast<double>(s.node_pairs_pruned_signature);
    node_pruned_lemma6 += static_cast<double>(s.node_pairs_pruned_index);
    leaf_pairs += static_cast<double>(s.leaf_pairs_examined);
    leaf_pruned_pivot += static_cast<double>(s.leaf_pairs_pruned_pivot);
    leaf_pruned_lemma3 += static_cast<double>(s.leaf_pairs_pruned_edge);
    candidate_pairs += static_cast<double>(s.candidate_pairs);
    candidate_matrices += static_cast<double>(s.candidate_matrices);
    pruned_lemma5 += static_cast<double>(s.matrices_pruned_graph);
    answers += static_cast<double>(s.answers);
    shard_retries += static_cast<double>(s.shard_retries);
  }
};

// Service-layer figures; zero on the workloads that bypass src/service.
struct ServiceFigures {
  double overhead_ms = 0, shard_max_ms = 0, shard_sum_ms = 0;
  double sub_queries = 0, cache_hit_ratio = 0, cache_evictions = 0;
  double add_ms = 0, remove_ms = 0;
  double imbalance = 0, measured_imbalance = 0;
};

struct RunFigures {
  // End to end.
  std::vector<double> query_ms;  // Client-observed latency per query.
  double timed_s = 0;            // Wall-clock of the timed loop.
  double peak_rss_mib = 0;       // Read when the timed loop ends.
  std::vector<double> setup_s, load_s, build_s;
  std::vector<double> add_ms, remove_ms;  // AddMatrix / RemoveMatrix.
  size_t attempted = 0, failed = 0;
  // Per layer (traced run only, except the index shape).
  StageTotals stages;
  double tree_pages = 0, tree_height = 0;
  std::vector<double> inference_ms;
  double pairs_estimated = 0, pairs_pruned = 0, query_edges = 0;
  double inference_calls = 0;
  std::vector<double> linear_scan_ms;
  double read_us = 0;
  ServiceFigures service;
};

void EmitEndToEnd(const RunFigures& f, MetricSet* out) {
  out->Add("query_p50_ms", Quantile(f.query_ms, 0.50), "ms");
  out->Add("query_p99_ms", Quantile(f.query_ms, 0.99), "ms");
  out->Add("qps", Ratio(static_cast<double>(f.query_ms.size()), f.timed_s),
           "1/s");
  out->Add("setup_s", Median(f.setup_s), "s");
  out->Add("peak_rss_mb", f.peak_rss_mib, "MiB");
}

void EmitPerLayer(const RunFigures& f, MetricSet* out) {
  const StageTotals& s = f.stages;
  const double n = s.queries;
  out->Add("core.load_s", Median(f.load_s), "s");
  out->Add("core.build_s", Median(f.build_s), "s");
  out->Add("index.tree_pages", f.tree_pages, "count");
  out->Add("index.height", f.tree_height, "count");
  // Only the single-client workloads call ImGrnEngine::AddMatrix and
  // RemoveMatrix in their timed loop; the serving ones report
  // service.add_ms and service.remove_ms instead.
  if (!f.add_ms.empty()) {
    out->Add("index.add_ms", Median(f.add_ms), "ms");
    out->Add("index.remove_ms", Median(f.remove_ms), "ms");
  }
  out->Add("inference.ms", Mean(f.inference_ms), "ms");
  out->Add("inference.pairs_estimated",
           Ratio(f.pairs_estimated, f.inference_calls), "count");
  out->Add("inference.pairs_pruned_lemma3",
           Ratio(f.pairs_pruned, f.inference_calls), "count");
  out->Add("inference.query_edges", Ratio(f.query_edges, f.inference_calls),
           "count");
  out->Add("query.traversal_ms", Millis(Ratio(s.traversal_s, n)), "ms");
  out->Add("query.node_pairs", Ratio(s.node_pairs, n), "count");
  out->Add("query.node_pairs_pruned_signature",
           Ratio(s.node_pruned_signature, n), "count");
  out->Add("query.node_pairs_pruned_lemma6", Ratio(s.node_pruned_lemma6, n),
           "count");
  out->Add("query.leaf_pairs", Ratio(s.leaf_pairs, n), "count");
  out->Add("query.leaf_pairs_pruned_pivot", Ratio(s.leaf_pruned_pivot, n),
           "count");
  out->Add("query.leaf_pairs_pruned_lemma3", Ratio(s.leaf_pruned_lemma3, n),
           "count");
  out->Add("query.candidate_pairs", Ratio(s.candidate_pairs, n), "count");
  out->Add("query.node_pair_survival",
           Ratio(s.node_pairs - s.node_pruned_signature - s.node_pruned_lemma6,
                 s.node_pairs),
           "ratio");
  out->Add("query.linear_scan_ms", Mean(f.linear_scan_ms), "ms");
  out->Add("query.refine_ms", Millis(Ratio(s.refinement_s, n)), "ms");
  out->Add("query.permutation_fill_ms", Millis(Ratio(s.fill_s, n)), "ms");
  out->Add("query.candidate_matrices", Ratio(s.candidate_matrices, n),
           "count");
  out->Add("query.pruned_lemma5", Ratio(s.pruned_lemma5, n), "count");
  out->Add("query.answers", Ratio(s.answers, n), "count");
  out->Add("query.answer_yield", Ratio(s.answers, s.candidate_matrices),
           "ratio");
  out->Add("storage.page_misses", Ratio(s.page_accesses, n), "count");
  out->Add("storage.page_fetches", Ratio(s.page_fetches, n), "count");
  out->Add("storage.pool_hit_ratio",
           s.page_fetches == 0 ? 0.0 : 1.0 - s.page_accesses / s.page_fetches,
           "ratio");
  out->Add("storage.read_us", f.read_us, "us");
  const ServiceFigures& v = f.service;
  out->Add("service.overhead_ms", v.overhead_ms, "ms");
  out->Add("service.shard_max_ms", v.shard_max_ms, "ms");
  out->Add("service.shard_sum_ms", v.shard_sum_ms, "ms");
  out->Add("service.sub_queries", v.sub_queries, "count");
  out->Add("service.cache_hit_ratio", v.cache_hit_ratio, "ratio");
  out->Add("service.cache_evictions", v.cache_evictions, "count");
  out->Add("service.add_ms", v.add_ms, "ms");
  out->Add("service.remove_ms", v.remove_ms, "ms");
  out->Add("service.imbalance", v.imbalance, "ratio");
  out->Add("service.measured_imbalance", v.measured_imbalance, "ratio");
  out->Add("service.shard_retries", s.shard_retries, "count");
}

// ---------------------------------------------------------------------------
// Inputs shared by the workloads.

QueryParams MakeParams(uint64_t seed) {
  QueryParams params;
  params.gamma = kGamma;
  params.alpha = kAlpha;
  params.query_num_samples = kMonteCarloSamples;
  params.refine_num_samples = kMonteCarloSamples;
  params.seed = seed;
  return params;
}

// Inference options identical to the ones the engines use for M_Q.
GrnInferenceOptions QueryInferenceOptions(const QueryParams& params) {
  GrnInferenceOptions options;
  options.num_samples = params.query_num_samples;
  options.seed = params.seed;
  return options;
}

// `count` distinct connected query matrices extracted from `database`.
std::vector<GeneMatrix> MakeQueryPool(const GeneDatabase& database,
                                      size_t count, uint64_t seed) {
  Rng rng(seed ^ 0x51CEu);
  QueryGenConfig config;
  config.num_genes = kQueryGenes;
  config.gamma = kGamma;
  std::vector<GeneMatrix> pool;
  std::vector<std::vector<GeneId>> seen;
  for (size_t attempt = 0; pool.size() < count && attempt < 8 * count;
       ++attempt) {
    Result<GeneMatrix> query = ExtractQueryMatrix(database, config, &rng);
    if (!query.ok()) continue;
    std::vector<GeneId> genes = query->gene_ids();
    std::sort(genes.begin(), genes.end());
    if (std::find(seen.begin(), seen.end(), genes) != seen.end()) continue;
    seen.push_back(std::move(genes));
    pool.push_back(std::move(*query));
  }
  if (pool.size() < count) Die("could not extract the query pool");
  return pool;
}

std::vector<std::vector<GeneId>> SourceGenes(const GeneDatabase& database) {
  std::vector<std::vector<GeneId>> genes;
  for (const GeneMatrix& matrix : database.matrices()) {
    genes.push_back(matrix.gene_ids());
  }
  return genes;
}

// The distinct gene ids over all sources, ascending.
std::vector<GeneId> DistinctGenes(const GeneDatabase& database) {
  std::vector<GeneId> genes;
  for (const GeneMatrix& matrix : database.matrices()) {
    genes.insert(genes.end(), matrix.gene_ids().begin(),
                 matrix.gene_ids().end());
  }
  std::sort(genes.begin(), genes.end());
  genes.erase(std::unique(genes.begin(), genes.end()), genes.end());
  return genes;
}

std::vector<GeneId> SortedLabels(const ProbGraph& graph) {
  std::vector<GeneId> labels = graph.labels();
  std::sort(labels.begin(), labels.end());
  return labels;
}

// The source every update operation adds (under a fresh id) and removes
// again: a kExtraGenes x kExtraSamples Uni synthetic matrix relabelled with
// genes drawn from the database, so it overlaps the database like its own
// sources. Re-adding one matrix makes every add cost the same, so the
// median update latency does not land between the costs of different
// matrices.
GeneMatrix MakeExtraSource(const GeneDatabase& database, uint64_t seed) {
  std::vector<GeneId> genes = DistinctGenes(database);
  Rng rng(seed ^ 0xADD5u);
  const GeneMatrix values = GenerateSyntheticMatrix(
      0, kExtraGenes, kExtraSamples, SyntheticConfig(), &rng);
  rng.Shuffle(&genes);
  genes.resize(kExtraGenes);
  GeneMatrix extra(0, kExtraSamples, std::move(genes));
  for (size_t c = 0; c < kExtraGenes; ++c) {
    std::copy(values.Column(c).begin(), values.Column(c).end(),
              extra.MutableColumn(c).begin());
  }
  return extra;
}

// What the benchmark keeps of a generated database. The database itself is
// dropped once the program has been set up, so through the timed loop only
// the program holds a copy and peak_rss_mb is the program's memory.
struct Inputs {
  std::vector<GeneMatrix> pool;
  std::vector<std::vector<GeneId>> source_genes;
  GeneMatrix extra_source;
  size_t sources = 0, distinct_genes = 0, largest_source_genes = 0;
};

Inputs MakeInputs(const GeneDatabase& database, size_t pool_size,
                  uint64_t seed) {
  Inputs inputs;
  inputs.pool = MakeQueryPool(database, pool_size, seed);
  inputs.source_genes = SourceGenes(database);
  inputs.extra_source = MakeExtraSource(database, seed);
  inputs.sources = database.size();
  inputs.distinct_genes = DistinctGenes(database).size();
  for (const GeneMatrix& matrix : database.matrices()) {
    inputs.largest_source_genes =
        std::max(inputs.largest_source_genes, matrix.num_genes());
  }
  return inputs;
}

// Times InferGrn on every pool matrix (the inference layer alone).
void ProbeInference(const std::vector<GeneMatrix>& pool,
                    const QueryParams& params, RunFigures* f) {
  const GrnInferenceOptions options = QueryInferenceOptions(params);
  for (int round = 0; round < 3; ++round) {
    for (const GeneMatrix& matrix : pool) {
      GrnInferenceStats stats;
      const Clock::time_point start = Clock::now();
      const ProbGraph graph = InferGrn(matrix, params.gamma, options, &stats);
      f->inference_ms.push_back(Millis(SecondsSince(start)));
      f->pairs_estimated += static_cast<double>(stats.pairs_estimated);
      f->pairs_pruned += static_cast<double>(stats.pairs_pruned);
      f->query_edges += static_cast<double>(graph.num_edges());
      f->inference_calls += 1;
    }
  }
}

// Times StorageManager::Read over every live page of `engine`'s store
// (ScrubPages reads each page through the store, bypassing the pool).
double ProbeStorageReadMicros(const ImGrnEngine& engine) {
  size_t pages = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < 3; ++pass) {
    size_t cursor = 0;
    size_t scrubbed = 0;
    CheckOk(engine.ScrubPages(&cursor, SIZE_MAX, &scrubbed), "ScrubPages");
    pages += scrubbed;
  }
  return Ratio(SecondsSince(start) * 1e6, static_cast<double>(pages));
}

// The same over the stores of the shards that serve the queries: one
// unbounded ScrubStep walks every shard's store once.
double ProbeShardReadMicros(const ShardedEngine& engine) {
  size_t pages = 0;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < 3; ++pass) {
    ScrubCursor cursor;
    ScrubReport report;
    CheckOk(engine.ScrubStep(&cursor, SIZE_MAX, /*reclaim=*/false, &report),
            "ScrubStep");
    pages += report.pages_scrubbed;
  }
  return Ratio(SecondsSince(start) * 1e6, static_cast<double>(pages));
}

// The reference engine's answers to graphs[q] for every q in `queries`,
// spread over the pool's workers (the const query path is thread-safe).
std::vector<std::vector<QueryMatch>> ReferenceAnswers(
    const ImGrnEngine& engine, const std::vector<ProbGraph>& graphs,
    const std::vector<size_t>& queries, const QueryParams& params,
    ThreadPool* pool) {
  std::vector<std::future<Result<std::vector<QueryMatch>>>> pending;
  for (size_t q : queries) {
    pending.push_back(pool->Submit(
        [&engine, &graph = graphs[q], &params] {
          return engine.QueryWithGraph(graph, params);
        }));
  }
  std::vector<std::vector<QueryMatch>> answers;
  for (auto& future : pending) {
    Result<std::vector<QueryMatch>> answer = future.get();
    CheckOk(answer.status(), "reference query");
    answers.push_back(std::move(*answer));
  }
  return answers;
}

// Runs the corruption self-test on `good`, the reference answer with the
// most matches; returns the number of corruptions `check` let through.
int SelfTest(const std::vector<QueryMatch>& good, const AnswerContext& context,
             const AnswerChecker& check) {
  if (good.empty()) {
    std::fprintf(stderr, "self-test: no query has a match to corrupt\n");
    return 1;
  }
  if (!check(good).empty()) {
    std::fprintf(stderr, "self-test: checker rejects the reference answer\n");
    return 1;
  }
  const int undetected = CountUndetectedCorruptions(good, context, check);
  std::fprintf(stderr, "self-test: %d of 4 corrupted answers accepted\n",
               undetected);
  return undetected;
}

struct Outcome {
  bool correct = true;
  MetricSet end_to_end;
  MetricSet per_layer;
  std::string info;  // Workload make-up, one JSON object.
};

// ---------------------------------------------------------------------------
// uni_index and real_overlap: one client, a closed loop of
// ImGrnEngine::Query over the query pool.

struct EngineWorkload {
  std::function<GeneDatabase()> make_database;
  EngineOptions options;
  std::string disk_prefix;  // Non-empty: a disk store per setup repeat.
  size_t pool_size = 0;
};

Outcome RunEngineWorkload(EngineWorkload w, const Args& args,
                          RunFigures* f) {
  Outcome outcome;
  const QueryParams params = MakeParams(args.seed);
  std::optional<GeneDatabase> database = w.make_database();
  const Inputs inputs = MakeInputs(*database, w.pool_size, args.seed);
  const std::vector<GeneMatrix>& pool = inputs.pool;

  // Set-up, repeated; the last engine serves the run.
  std::unique_ptr<ImGrnEngine> engine;
  for (size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    engine.reset();
    EngineOptions options = w.options;
    if (!w.disk_prefix.empty()) {
      options.storage.path = w.disk_prefix + std::to_string(repeat) + ".pages";
    }
    GeneDatabase copy = *database;
    engine = std::make_unique<ImGrnEngine>(options);
    const Clock::time_point start = Clock::now();
    engine->LoadDatabase(std::move(copy));
    const double loaded = SecondsSince(start);
    CheckOk(engine->BuildIndex(), "BuildIndex");
    const double total = SecondsSince(start);
    f->load_s.push_back(loaded);
    f->build_s.push_back(total - loaded);
    f->setup_s.push_back(total);
  }
  database.reset();
  if (!w.disk_prefix.empty()) {
    // BuildIndex leaves the tree pages uncommitted in the store, so a
    // buffer-pool miss would read an empty slot; the snapshot commits them
    // and every miss then reads and verifies a real page from the file.
    CheckOk(engine->SaveSnapshot(), "SaveSnapshot");
  }
  f->tree_pages = static_cast<double>(engine->index().rtree().num_nodes());
  f->tree_height = static_cast<double>(engine->index().rtree().height());

  // Reference answers: LinearScanProcessor (no R*-tree traversal) on the
  // same inferred query graph.
  const LinearScanProcessor scan(&engine->index());
  std::vector<std::vector<QueryMatch>> expected;
  std::vector<AnswerContext> contexts;
  size_t non_empty = 0, answers = 0;
  for (const GeneMatrix& matrix : pool) {
    const ProbGraph graph =
        InferGrn(matrix, params.gamma, QueryInferenceOptions(params));
    const Clock::time_point start = Clock::now();
    expected.push_back(scan.QueryWithGraph(graph, params));
    f->linear_scan_ms.push_back(Millis(SecondsSince(start)));
    contexts.push_back(
        {&inputs.source_genes, SortedLabels(graph), params.alpha});
    non_empty += expected.back().empty() ? 0 : 1;
    answers += expected.back().size();
  }

  const size_t richest = static_cast<size_t>(
      std::max_element(expected.begin(), expected.end(),
                       [](const auto& a, const auto& b) {
                         return a.size() < b.size();
                       }) -
      expected.begin());
  outcome.correct =
      SelfTest(expected[richest], contexts[richest],
               [&](const std::vector<QueryMatch>& answer) {
                 return CheckAnswer(answer, expected[richest],
                                    contexts[richest]);
               }) == 0;

  // Warm-up (buffer pool, allocator), untimed and uncounted.
  for (size_t q = 0; q < kEngineWarmupQueries; ++q) {
    CheckOk(engine->Query(pool[q], params).status(), "warm-up query");
  }

  const Clock::time_point run_start = Clock::now();
  size_t reported = 0, next_query = 0;
  do {
    // Each round opens with an AddMatrix/RemoveMatrix pair. The source is
    // gone again before the next query, so the references stay valid and
    // the answers show that the pair left the index unchanged.
    GeneMatrix extra = inputs.extra_source;
    const SourceId added = static_cast<SourceId>(engine->database().size());
    extra.set_source_id(added);
    Clock::time_point start = Clock::now();
    CheckOk(engine->AddMatrix(std::move(extra)), "AddMatrix");
    f->add_ms.push_back(Millis(SecondsSince(start)));
    start = Clock::now();
    CheckOk(engine->RemoveMatrix(added), "RemoveMatrix");
    f->remove_ms.push_back(Millis(SecondsSince(start)));
    f->attempted += 2;

    for (size_t i = 0; i < kEngineQueriesPerUpdate; ++i) {
      const size_t q = next_query++ % pool.size();
      QueryStats stats;
      start = Clock::now();
      Result<std::vector<QueryMatch>> result =
          engine->Query(pool[q], params, args.trace ? &stats : nullptr);
      f->query_ms.push_back(Millis(SecondsSince(start)));
      ++f->attempted;
      std::string problem = result.ok()
                                ? CheckAnswer(*result, expected[q], contexts[q])
                                : result.status().ToString();
      if (!problem.empty()) {
        ++f->failed;
        if (reported++ < 5) {
          std::fprintf(stderr, "query %zu failed: %s\n", q, problem.c_str());
        }
      }
      if (args.trace) f->stages.Add(stats);
    }
  } while (next_query % pool.size() != 0 ||
           SecondsSince(run_start) < args.seconds);
  f->timed_s = SecondsSince(run_start);
  f->peak_rss_mib = PeakRssMiB();

  if (args.trace) {
    ProbeInference(pool, params, f);
    f->read_us = ProbeStorageReadMicros(*engine);
  }
  char info[512];
  std::snprintf(info, sizeof(info),
                "{\"sources\": %zu, \"distinct_genes\": %zu, "
                "\"query_pool\": %zu, \"queries_with_match\": %zu, "
                "\"reference_answers\": %zu, \"tree_pages\": %.0f, "
                "\"tree_height\": %.0f, \"buffer_pool_pages\": %zu}",
                inputs.sources, inputs.distinct_genes, pool.size(), non_empty,
                answers, f->tree_pages, f->tree_height,
                w.options.index.buffer_pool_pages);
  outcome.info = info;
  return outcome;
}

Outcome RunUniIndex(const Args& args, RunFigures* f) {
  bench::BenchDefaults defaults;
  defaults.num_matrices = kUniSources;
  defaults.seed = args.seed;
  EngineWorkload w;
  w.make_database = [defaults] {
    return bench::BuildSyntheticDatabase("Uni", defaults);
  };
  w.options.storage.backend = StorageBackend::kDisk;
  w.options.storage.unlink_on_close = true;
  w.disk_prefix = args.tmp_dir + "/uni_index-";
  w.pool_size = kUniQueryPool;
  return RunEngineWorkload(std::move(w), args, f);
}

Outcome RunRealOverlap(const Args& args, RunFigures* f) {
  bench::BenchDefaults defaults;
  defaults.num_matrices = kRealSources;
  defaults.seed = args.seed;
  EngineWorkload w;
  w.make_database = [defaults] {
    return bench::BuildRealCombinedDatabase(defaults, kRealOrganismScale);
  };
  w.options.index.buffer_pool_pages = kRealBufferPoolPages;
  w.pool_size = kRealQueryPool;
  Outcome outcome = RunEngineWorkload(std::move(w), args, f);
  if (f->tree_pages > static_cast<double>(kRealBufferPoolPages)) {
    Die("real_overlap tree outgrew its buffer pool");
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// serve_mixed: ShardedEngine behind QueryService, a closed loop with a
// fixed window of requests in flight, a skewed repeating query stream and
// AddSource/RemoveSource pairs at fixed positions.

// The traced run serves through this wrapper: it times each call from the
// service into the sharded engine and keeps the stats of fresh evaluations.
class TracedEngine : public QueryEngine {
 public:
  explicit TracedEngine(ShardedEngine* engine) : engine_(engine) {}

  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats, const QueryControl* control) const override {
    QueryStats local;
    const Clock::time_point start = Clock::now();
    Result<std::vector<QueryMatch>> result =
        engine_->Query(query_matrix, params, &local, control);
    Record(SecondsSince(start), local);
    if (stats != nullptr) *stats = std::move(local);
    return result;
  }

  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats, const QueryControl* control) const override {
    return engine_->QueryWithGraph(query_graph, params, stats, control);
  }

  Status AddSource(GeneMatrix matrix) override {
    return engine_->AddSource(std::move(matrix));
  }
  Status RemoveSource(SourceId source) override {
    return engine_->RemoveSource(source);
  }
  size_t num_sources() const override { return engine_->num_sources(); }

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    engine_seconds_ = 0;
    calls_ = 0;
    fresh_ = StageTotals{};
  }
  double engine_seconds() const { return engine_seconds_; }
  double calls() const { return calls_; }
  const StageTotals& fresh() const { return fresh_; }

 private:
  void Record(double seconds, const QueryStats& stats) const {
    std::lock_guard<std::mutex> lock(mutex_);
    engine_seconds_ += seconds;
    calls_ += 1;
    if (!stats.cache_hit) fresh_.Add(stats);
  }

  ShardedEngine* engine_;
  mutable std::mutex mutex_;
  mutable double engine_seconds_ = 0;
  mutable double calls_ = 0;
  mutable StageTotals fresh_;
};

// Zipf(s) draws over {0, ..., n-1}.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += std::pow(static_cast<double>(i + 1), -exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->UniformDouble();
    const size_t i = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// The distinct answers served for one (database version, query) pair, with
// how many operations returned each.
struct ServedAnswers {
  std::vector<std::pair<std::vector<QueryMatch>, size_t>> distinct;

  void Add(std::vector<QueryMatch> answer) {
    for (auto& [seen, count] : distinct) {
      if (CompareAnswers(answer, seen).empty()) {
        ++count;
        return;
      }
    }
    distinct.emplace_back(std::move(answer), 1);
  }
};

// serve_mixed and serve_overlap: the database `make_database` builds,
// behind the serving stack.
Outcome RunServe(const std::function<GeneDatabase()>& make_database,
                 const Args& args, RunFigures* f) {
  Outcome outcome;
  const QueryParams params = MakeParams(args.seed);
  std::optional<GeneDatabase> database = make_database();
  Inputs inputs = MakeInputs(*database, kServeQueryPool, args.seed);
  const std::vector<GeneMatrix>& pool = inputs.pool;

  ThreadPool thread_pool(kServePoolThreads);
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = kServeShards;
  sharded_options.num_replicas = 1;
  sharded_options.partitioner = MakePartitioner("calibrated");
  sharded_options.cache.capacity = kServeCacheCapacity;
  std::unique_ptr<ShardedEngine> sharded;
  for (size_t repeat = 0; repeat < kSetupRepeats; ++repeat) {
    sharded.reset();
    GeneDatabase copy = *database;
    sharded = std::make_unique<ShardedEngine>(sharded_options, &thread_pool);
    const Clock::time_point start = Clock::now();
    sharded->LoadDatabase(std::move(copy));
    const double loaded = SecondsSince(start);
    CheckOk(sharded->BuildIndex(), "sharded BuildIndex");
    const double total = SecondsSince(start);
    f->load_s.push_back(loaded);
    f->build_s.push_back(total - loaded);
    f->setup_s.push_back(total);
  }
  database.reset();

  std::vector<ProbGraph> graphs;
  std::vector<AnswerContext> contexts;
  for (const GeneMatrix& matrix : pool) {
    graphs.push_back(
        InferGrn(matrix, params.gamma, QueryInferenceOptions(params)));
    contexts.push_back(
        {&inputs.source_genes, SortedLabels(graphs.back()), params.alpha});
  }

  TracedEngine traced(sharded.get());
  QueryEngine* served = args.trace ? static_cast<QueryEngine*>(&traced)
                                   : static_cast<QueryEngine*>(sharded.get());
  QueryService service(served, &thread_pool);

  // Warm-up: every pool query once, untimed and uncounted.
  for (const GeneMatrix& matrix : pool) {
    CheckOk(service.SubmitQuery(matrix, params).result.get().status(),
            "warm-up query");
  }
  traced.Reset();
  const ResultCacheStats cache_before = sharded->CacheStats();
  uint64_t sub_queries_before = 0;
  for (const ShardStats& shard : sharded->StatsSnapshot().shards) {
    sub_queries_before += shard.sub_queries;
  }

  struct InFlight {
    size_t query;
    Clock::time_point start;
    std::future<QueryService::QueryResult> result;
  };
  std::vector<std::optional<InFlight>> slots(kServeWindow);
  std::map<std::pair<size_t, size_t>, ServedAnswers> served_answers;
  std::vector<double> add_ms, remove_ms;
  size_t version = 0;
  size_t reported = 0;
  size_t in_flight = 0;
  const ZipfSampler zipf(pool.size(), kServeQuerySkew);
  Rng stream_rng(args.seed ^ 0x57EAu);

  auto complete = [&](std::optional<InFlight>& slot) {
    Result<std::vector<QueryMatch>> result = slot->result.get();
    f->query_ms.push_back(Millis(SecondsSince(slot->start)));
    ++f->attempted;
    const size_t q = slot->query;
    slot.reset();
    --in_flight;
    std::string problem = result.ok()
                              ? CheckProperties(*result, contexts[q])
                              : result.status().ToString();
    if (problem.empty()) {
      served_answers[{version, q}].Add(std::move(*result));
    } else {
      ++f->failed;
      if (reported++ < 5) {
        std::fprintf(stderr, "query %zu failed: %s\n", q, problem.c_str());
      }
    }
  };
  auto poll = [&] {
    bool any = false;
    for (std::optional<InFlight>& slot : slots) {
      if (slot.has_value() && slot->result.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready) {
        complete(slot);
        any = true;
      }
    }
    if (!any) std::this_thread::yield();
  };

  const Clock::time_point run_start = Clock::now();
  for (size_t op = 0;; ++op) {
    if (op % (kServeRoundOps / 2) != kServeRoundOps / 2 - 1) {
      auto is_free = [](const std::optional<InFlight>& s) {
        return !s.has_value();
      };
      auto free_slot = std::find_if(slots.begin(), slots.end(), is_free);
      while (free_slot == slots.end()) {
        poll();
        free_slot = std::find_if(slots.begin(), slots.end(), is_free);
      }
      const size_t q = zipf.Draw(&stream_rng);
      GeneMatrix matrix = pool[q];
      const Clock::time_point start = Clock::now();
      QueryService::PendingQuery pending =
          service.SubmitQuery(std::move(matrix), params);
      *free_slot = InFlight{q, start, std::move(pending.result)};
      ++in_flight;
      continue;
    }
    // An update: every query before it completes first, so each answer
    // belongs to exactly one database version. Version v follows v
    // updates; update k adds source N + k/2 when k is even (mid-round) and
    // removes it again when k is odd (round end).
    while (in_flight > 0) poll();
    const bool add = version % 2 == 0;
    const SourceId source =
        static_cast<SourceId>(inputs.sources + version / 2);
    Status status;
    if (add) {
      GeneMatrix matrix = inputs.extra_source;
      matrix.set_source_id(source);
      inputs.source_genes.push_back(matrix.gene_ids());
      const Clock::time_point start = Clock::now();
      status = service.AddMatrix(std::move(matrix));
      add_ms.push_back(Millis(SecondsSince(start)));
    } else {
      const Clock::time_point start = Clock::now();
      status = service.RemoveMatrix(source);
      remove_ms.push_back(Millis(SecondsSince(start)));
    }
    CheckOk(status, add ? "AddSource" : "RemoveSource");
    ++f->attempted;
    ++version;
    if (!add && SecondsSince(run_start) >= args.seconds) break;
  }
  f->timed_s = SecondsSince(run_start);
  f->peak_rss_mib = PeakRssMiB();

  const ResultCacheStats cache_after = sharded->CacheStats();
  const ShardedEngineStatsSnapshot snapshot = sharded->StatsSnapshot();
  uint64_t sub_queries = 0;
  for (const ShardStats& shard : snapshot.shards) {
    sub_queries += shard.sub_queries;
  }
  const double misses =
      static_cast<double>(cache_after.misses - cache_before.misses);
  const double hits = static_cast<double>(cache_after.hits - cache_before.hits);

  // The reference, built only now that the timed loop is over: one
  // unsharded ImGrnEngine over a freshly generated copy of the database.
  ImGrnEngine single;
  single.LoadDatabase(make_database());
  CheckOk(single.BuildIndex(), "reference BuildIndex");
  f->tree_pages = static_cast<double>(single.index().rtree().num_nodes());
  f->tree_height = static_cast<double>(single.index().rtree().height());
  std::vector<size_t> every_query(pool.size());
  for (size_t q = 0; q < pool.size(); ++q) every_query[q] = q;
  const std::vector<std::vector<QueryMatch>> base_answers =
      ReferenceAnswers(single, graphs, every_query, params, &thread_pool);
  size_t non_empty = 0, answers = 0;
  for (const std::vector<QueryMatch>& answer : base_answers) {
    non_empty += answer.empty() ? 0 : 1;
    answers += answer.size();
  }
  if (args.trace) {
    const LinearScanProcessor scan(&single.index());
    for (const ProbGraph& graph : graphs) {
      const Clock::time_point start = Clock::now();
      (void)scan.QueryWithGraph(graph, params);
      f->linear_scan_ms.push_back(Millis(SecondsSince(start)));
    }
  }
  const size_t richest = static_cast<size_t>(
      std::max_element(base_answers.begin(), base_answers.end(),
                       [](const auto& a, const auto& b) {
                         return a.size() < b.size();
                       }) -
      base_answers.begin());
  outcome.correct =
      SelfTest(base_answers[richest], contexts[richest],
               [&](const std::vector<QueryMatch>& answer) {
                 return CheckAnswer(answer, base_answers[richest],
                                    contexts[richest]);
               }) == 0;

  // Replay the updates on the reference engine, checking each version's
  // served answers against its fresh answer.
  for (size_t v = 0; v <= version; ++v) {
    if (v > 0) {
      const SourceId source =
          static_cast<SourceId>(inputs.sources + (v - 1) / 2);
      if ((v - 1) % 2 == 0) {
        GeneMatrix matrix = inputs.extra_source;
        matrix.set_source_id(source);
        CheckOk(single.AddMatrix(std::move(matrix)), "reference AddMatrix");
      } else {
        CheckOk(single.RemoveMatrix(source), "reference RemoveMatrix");
      }
    }
    const auto first = served_answers.lower_bound({v, 0});
    const auto last = served_answers.lower_bound({v + 1, 0});
    std::vector<size_t> queries;
    for (auto it = first; it != last; ++it) queries.push_back(it->first.second);
    const std::vector<std::vector<QueryMatch>> references =
        ReferenceAnswers(single, graphs, queries, params, &thread_pool);
    size_t i = 0;
    for (auto it = first; it != last; ++it) {
      const size_t q = it->first.second;
      const std::vector<QueryMatch>& reference = references[i++];
      for (const auto& [answer, count] : it->second.distinct) {
        const std::string problem = CompareAnswers(answer, reference);
        if (problem.empty()) continue;
        f->failed += count;
        if (reported++ < 5) {
          std::fprintf(stderr, "version %zu query %zu: %zu answers differ "
                       "from the reference: %s\n", v, q, count,
                       problem.c_str());
        }
      }
    }
  }

  ServiceFigures& s = f->service;
  s.add_ms = Median(add_ms);
  s.remove_ms = Median(remove_ms);
  s.cache_hit_ratio = Ratio(hits, hits + misses);
  s.cache_evictions =
      static_cast<double>(cache_after.evictions - cache_before.evictions);
  s.sub_queries =
      Ratio(static_cast<double>(sub_queries - sub_queries_before), misses);
  s.imbalance = snapshot.imbalance;
  s.measured_imbalance = snapshot.measured_imbalance;
  if (args.trace) {
    f->stages = traced.fresh();
    s.overhead_ms = Mean(f->query_ms) -
                    Millis(Ratio(traced.engine_seconds(), traced.calls()));
    // Each shard's sub-query timed alone on its primary replica.
    std::vector<double> shard_max, shard_sum;
    for (const ProbGraph& graph : graphs) {
      double max_ms = 0, sum_ms = 0;
      for (size_t shard = 0; shard < sharded->num_shards(); ++shard) {
        const Clock::time_point start = Clock::now();
        CheckOk(sharded->QueryShard(shard, graph, params).status(),
                "QueryShard");
        const double ms = Millis(SecondsSince(start));
        max_ms = std::max(max_ms, ms);
        sum_ms += ms;
      }
      shard_max.push_back(max_ms);
      shard_sum.push_back(sum_ms);
    }
    s.shard_max_ms = Median(shard_max);
    s.shard_sum_ms = Median(shard_sum);
    ProbeInference(pool, params, f);
    f->read_us = ProbeShardReadMicros(*sharded);
  }

  char info[640];
  std::snprintf(info, sizeof(info),
                "{\"sources\": %zu, \"distinct_genes\": %zu, "
                "\"largest_source_genes\": %zu, \"query_pool\": %zu, "
                "\"queries_with_match\": %zu, \"reference_answers\": %zu, "
                "\"shards\": %zu, \"updates\": %zu, \"versions_checked\": %zu, "
                "\"cache_hits\": %.0f, \"cache_misses\": %.0f, "
                "\"reference_tree_pages\": %.0f}",
                inputs.sources, inputs.distinct_genes,
                inputs.largest_source_genes, pool.size(), non_empty, answers,
                kServeShards, version, served_answers.size(), hits, misses,
                f->tree_pages);
  outcome.info = info;
  return outcome;
}

Outcome RunServeMixed(const Args& args, RunFigures* f) {
  bench::BenchDefaults defaults;
  defaults.num_matrices = kServeSources;
  defaults.genes_max = kServeGenesMax;
  defaults.seed = args.seed;
  return RunServe(
      [defaults] {
        return bench::BuildZipfSkewedDatabase("Uni", defaults, kServeSizeSkew);
      },
      args, f);
}

// real_overlap's database behind the serving stack: every cache miss is a
// refinement-heavy fan-out, where serve_mixed's are cheap.
Outcome RunServeOverlap(const Args& args, RunFigures* f) {
  bench::BenchDefaults defaults;
  defaults.num_matrices = kRealSources;
  defaults.seed = args.seed;
  return RunServe(
      [defaults] {
        return bench::BuildRealCombinedDatabase(defaults, kRealOrganismScale);
      },
      args, f);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::printf(
      "{\"stamp\": {\"revision\": \"%s\", \"nproc\": %u, "
      "\"kernel_backend\": \"%s\", \"build_type\": \"%s\", \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}}\n",
      args.revision.c_str(), std::thread::hardware_concurrency(),
      KernelBackendName(ActiveKernelBackend()), PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(args.seed), args.workload.c_str(),
      args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  RunFigures figures;
  Outcome outcome;
  if (args.workload == "uni_index") {
    outcome = RunUniIndex(args, &figures);
  } else if (args.workload == "real_overlap") {
    outcome = RunRealOverlap(args, &figures);
  } else if (args.workload == "serve_mixed") {
    outcome = RunServeMixed(args, &figures);
  } else if (args.workload == "serve_overlap") {
    outcome = RunServeOverlap(args, &figures);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  EmitEndToEnd(figures, &outcome.end_to_end);
  EmitPerLayer(figures, &outcome.per_layer);

  std::printf("{\"info\": %s}\n", outcome.info.c_str());
  // The traced run's end-to-end figures, against an untraced run's, give
  // the tracing overhead.
  if (args.trace) {
    std::printf("{\"traced_end_to_end\": %s}\n",
                outcome.end_to_end.Json().c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              outcome.correct ? "true" : "false", figures.attempted,
              figures.failed,
              (args.trace ? outcome.per_layer : outcome.end_to_end)
                  .Json()
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace imgrn

int main(int argc, char** argv) { return imgrn::perfbench::Main(argc, argv); }
