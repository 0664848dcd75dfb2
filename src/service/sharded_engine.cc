#include "service/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <future>
#include <optional>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "inference/grn_inference.h"

namespace imgrn {

namespace {

Status ValidateParams(const QueryParams& params) {
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  if (params.alpha < 0.0 || params.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  return Status::Ok();
}

}  // namespace

std::string ShardedEngineStatsSnapshot::DebugString() const {
  std::string out;
  for (const ShardStats& shard : shards) {
    char load[96];
    std::snprintf(load, sizeof(load), "%.3g measured=%.3g", shard.cost,
                  shard.measured_work);
    out += "shard" + std::to_string(shard.shard) +
           ": sources=" + std::to_string(shard.sources) + " load=" + load +
           " sub_queries=" + std::to_string(shard.sub_queries) +
           " errors=" + std::to_string(shard.sub_query_errors) +
           " in_flight=" + std::to_string(shard.in_flight) +
           " breaker=" + CircuitBreaker::StateName(shard.breaker);
    if (shard.breaker_rejections > 0) {
      out += "(" + std::to_string(shard.breaker_rejections) + " rejected)";
    }
    out += "\n";
  }
  char line[96];
  std::snprintf(line, sizeof(line),
                "imbalance=%.3f measured_imbalance=%.3f (max/mean shard "
                "load, estimated / measured)\n",
                imbalance, measured_imbalance);
  out += line;
  if (cache.capacity > 0) {
    char cache_line[160];
    std::snprintf(cache_line, sizeof(cache_line),
                  "cache: size=%zu/%zu hits=%" PRIu64 " misses=%" PRIu64
                  " evictions=%" PRIu64 " hit_rate=%.3f\n",
                  cache.size, cache.capacity, cache.hits, cache.misses,
                  cache.evictions, cache.hit_rate());
    out += cache_line;
  }
  if (maintenance.enabled) {
    char line1[224];
    std::snprintf(line1, sizeof(line1),
                  "maintenance: ticks=%" PRIu64 " scrubbed=%" PRIu64
                  " corrupt=%" PRIu64 " rebuilt=%" PRIu64 " (failures=%" PRIu64
                  ") scrub_errors=%" PRIu64 "\n",
                  maintenance.ticks, maintenance.pages_scrubbed,
                  maintenance.corrupt_pages, maintenance.shards_rebuilt,
                  maintenance.rebuild_failures, maintenance.scrub_errors);
    out += line1;
    char line2[224];
    std::snprintf(line2, sizeof(line2),
                  "maintenance: reclaimed_pages=%" PRIu64
                  " truncated_slots=%" PRIu64 " rebalance_fires=%" PRIu64
                  " sources_moved=%" PRIu64 "\n",
                  maintenance.pages_reclaimed, maintenance.slots_truncated,
                  maintenance.rebalance_fires, maintenance.sources_moved);
    out += line2;
  }
  return out;
}

ShardedEngine::TopologyPin::TopologyPin(const ShardedEngine& engine) {
  std::lock_guard<std::mutex> lock(engine.topology_mutex_);
  topology_ = engine.topology_;
  topology_->pins.fetch_add(1, std::memory_order_acq_rel);
}

ShardedEngine::TopologyPin::~TopologyPin() {
  topology_->pins.fetch_sub(1, std::memory_order_acq_rel);
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options, ThreadPool* pool)
    : options_(std::move(options)),
      partitioner_(options_.partitioner != nullptr
                       ? options_.partitioner
                       : std::make_shared<ModuloPartitioner>()),
      pool_(pool) {
  IMGRN_CHECK_GE(options_.num_shards, 1u);
  // The pending-removal compatibility field: one engine per shard.
  IMGRN_CHECK_EQ(options_.num_replicas, 1u);
  measured_.SetDecay(options_.calibration.measured_half_life_seconds);
  if (options_.cache.capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache);
  }
  auto topology = std::make_shared<Topology>();
  topology->shards.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    topology->shards.push_back(MakeShard());
  }
  topology_ = std::move(topology);
  if (options_.maintenance.enabled) {
    maintenance_ =
        std::make_unique<MaintenanceDaemon>(this, options_.maintenance);
    maintenance_->Start();
  }
}

ShardedEngine::~ShardedEngine() {
  // Join the daemon's thread before any member it reaches into goes away,
  // maintenance_ included: reset() clears the pointer before destroying
  // the daemon, while a running tick may still read it (StatsSnapshot).
  if (maintenance_ != nullptr) maintenance_->Stop();
  maintenance_.reset();
}

std::shared_ptr<ShardedEngine::Shard> ShardedEngine::MakeShard() {
  EngineOptions engine_options = options_.engine;
  if (!options_.storage_dir.empty()) {
    engine_options.storage.backend = StorageBackend::kDisk;
    engine_options.storage.path = options_.storage_dir + "/shard-" +
                                  std::to_string(shard_files_created_++) +
                                  ".pages";
    // Spill space, not a durability domain: the file dies with the shard.
    engine_options.storage.unlink_on_close = true;
  }
  return std::make_shared<Shard>(engine_options, options_.breaker);
}

std::shared_ptr<const ShardedEngine::Topology>
ShardedEngine::CurrentTopology() const {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  return topology_;
}

void ShardedEngine::Publish(std::shared_ptr<const Topology> topology) {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  if (topology_ != nullptr) {
    topology_history_.erase(
        std::remove_if(topology_history_.begin(), topology_history_.end(),
                       [](const std::weak_ptr<const Topology>& entry) {
                         return entry.expired();
                       }),
        topology_history_.end());
    topology_history_.push_back(topology_);
  }
  topology_ = std::move(topology);
}

void ShardedEngine::DrainOlder(const Topology& newest) const {
  // A pin count only rises while its topology is the published one; every
  // topology in the history has a successor, so each count can only fall
  // and this terminates as soon as the in-flight queries of the older
  // snapshots finish.
  for (;;) {
    std::shared_ptr<const Topology> pinned;
    {
      std::lock_guard<std::mutex> lock(topology_mutex_);
      for (const std::weak_ptr<const Topology>& entry : topology_history_) {
        std::shared_ptr<const Topology> topology = entry.lock();
        if (topology != nullptr && topology.get() != &newest &&
            topology->pins.load(std::memory_order_acquire) != 0) {
          pinned = std::move(topology);
          break;
        }
      }
    }
    if (pinned == nullptr) return;
    while (pinned->pins.load(std::memory_order_acquire) != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
}

void ShardedEngine::LoadDatabase(GeneDatabase database) {
  const size_t num_shards = this->num_shards();
  auto next = std::make_shared<Topology>();
  next->shards.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    next->shards.push_back(MakeShard());
  }

  const size_t total = database.size();
  source_cost_ = EstimateSourceCosts(database);
  retracted_.assign(total, false);
  measured_.Reset();  // A fresh database invalidates every measurement.
  PartitionPlan plan = partitioner_->Partition(source_cost_, num_shards);
  IMGRN_CHECK_OK(plan.Validate(total));

  std::vector<GeneDatabase> parts(num_shards);
  std::vector<std::vector<SourceId>> locals(num_shards);
  for (SourceId global = 0; global < total; ++global) {
    const size_t s = plan.shard_of[global];
    GeneMatrix matrix = std::move(database.mutable_matrix(global));
    matrix.set_source_id(static_cast<SourceId>(parts[s].size()));
    parts[s].Add(std::move(matrix));
    locals[s].push_back(global);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    double cost = 0.0;
    for (SourceId global : locals[s]) {
      cost += source_cost_[global];
    }
    LoadShard(*next->shards[s], std::move(parts[s]), std::move(locals[s]),
              cost);
  }
  next->shard_of = std::move(plan.shard_of);
  next_source_ = total;
  built_ = false;
  Publish(std::move(next));
  update_generation_.fetch_add(1, std::memory_order_release);
}

Status ShardedEngine::BuildIndex() {
  if (next_source_ == 0) {
    return Status::FailedPrecondition("no database loaded");
  }
  TopologyPin topology(*this);
  // Build every populated shard's index; the builds are independent, so
  // fan them out when a pool is available.
  std::vector<Shard*> pending;
  for (const std::shared_ptr<Shard>& shard : topology->shards) {
    if (shard->local_to_global.empty()) continue;
    pending.push_back(shard.get());
  }
  std::vector<Status> statuses(pending.size(), Status::Ok());
  std::vector<std::future<void>> futures;
  for (size_t i = 0; i < pending.size(); ++i) {
    Shard& shard = *pending[i];
    auto build = [&shard, &status = statuses[i]] {
      status = shard.engine.BuildIndex();
      shard.built = status.ok();
    };
    if (pool_ != nullptr) {
      futures.push_back(pool_->Submit(build));
    } else {
      build();
    }
  }
  for (std::future<void>& future : futures) {
    pool_->WaitReady(future);
    future.get();
  }
  for (const Status& status : statuses) {
    IMGRN_RETURN_IF_ERROR(status);
  }
  built_ = true;
  return Status::Ok();
}

Result<std::vector<QueryMatch>> ShardedEngine::Query(
    const GeneMatrix& query_matrix, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateParams(params));
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
  // Infer the query GRN exactly once — same options and seed as the
  // single-engine path, so the fanned-out sub-queries all match against
  // the identical graph.
  Stopwatch inference_timer;
  GrnInferenceOptions inference_options;
  inference_options.num_samples = params.query_num_samples;
  inference_options.seed = params.seed;
  const ProbGraph query_graph =
      InferGrn(query_matrix, params.gamma, inference_options);
  const double inference_seconds = inference_timer.ElapsedSeconds();

  Result<std::vector<QueryMatch>> result =
      QueryWithGraph(query_graph, params, stats, control);
  if (stats != nullptr) {
    stats->inference_seconds = inference_seconds;
    stats->total_seconds += inference_seconds;
  }
  return result;
}

Result<std::vector<QueryMatch>> ShardedEngine::QueryWithGraph(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateParams(params));
  if (query_graph.num_vertices() == 0) {
    return Status::InvalidArgument("query graph has no vertices");
  }
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }

  Stopwatch total_timer;
  // Read the update generation BEFORE consulting the cache or pinning a
  // topology. Every mutation bumps the generation as its LAST step, so a
  // result keyed at `generation` was computed against state no older than
  // the bump that produced `generation` — serving it is linearizable.
  const uint64_t generation =
      update_generation_.load(std::memory_order_acquire);
  std::string cache_key;
  if (cache_ != nullptr) {
    cache_key = ResultCache::EncodeKey(generation, query_graph, params);
    std::optional<CachedResult> hit = cache_->Lookup(cache_key);
    if (hit.has_value()) {
      if (stats != nullptr) {
        // Serve the stored stats verbatim — timings included — so a hit is
        // byte-identical to the fresh evaluation that filled it; cache_hit
        // is the one field that tells them apart.
        *stats = hit->stats;
        stats->cache_hit = true;
      }
      return std::move(hit->matches);
    }
  }

  // Pin one topology for the whole fan-out: a consistent shard list and
  // partition map even while a Rebalance/Resize runs concurrently (its
  // delete phase waits for this pin to drop).
  TopologyPin topology(*this);
  const size_t num_shards = topology->shards.size();
  std::vector<Result<std::vector<QueryMatch>>> results(
      num_shards, Result<std::vector<QueryMatch>>(std::vector<QueryMatch>{}));
  std::vector<QueryStats> shard_stats(num_shards);

  if (pool_ != nullptr) {
    // Fan out one sub-query per shard. Every future is gathered before this
    // function returns (even on error/cancellation), so no task outlives
    // the stack it captures; gathering helps run queued tasks, so sharing
    // the pool with the calling QueryService cannot deadlock.
    std::vector<std::future<Result<std::vector<QueryMatch>>>> futures;
    futures.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      futures.push_back(pool_->Submit(
          [this, &topology = *topology, s, &query_graph, &params,
           local_stats = &shard_stats[s], control] {
            return RunShardWithRecovery(topology, s, query_graph, params,
                                        local_stats, control);
          }));
    }
    for (size_t s = 0; s < num_shards; ++s) {
      pool_->WaitReady(futures[s]);
      results[s] = futures[s].get();
    }
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      results[s] = RunShardWithRecovery(*topology, s, query_graph, params,
                                        &shard_stats[s], control);
    }
  }

  // Failure policy. A non-degradable error (the caller's doing: cancel,
  // deadline, bad request) fails the query outright. Degradable
  // infrastructure errors (kUnavailable after retries, kDataLoss,
  // quarantine) fail the query unless allow_partial is set, in which case
  // the failed shards are dropped from the merge — but if EVERY shard
  // failed there is nothing to degrade to, and the earliest error
  // propagates.
  std::vector<size_t> failed_shards;
  for (size_t s = 0; s < num_shards; ++s) {
    if (results[s].ok()) continue;
    const StatusCode code = results[s].status().code();
    const bool degradable = code == StatusCode::kUnavailable ||
                            code == StatusCode::kDataLoss;
    if (!params.allow_partial || !degradable) {
      return results[s].status();
    }
    failed_shards.push_back(s);
  }
  if (!failed_shards.empty() && failed_shards.size() == num_shards) {
    return results[failed_shards.front()].status();
  }

  // Merge the surviving shards: a plain sort restores the single-engine
  // source order, then the top_k policy is applied ONCE over the merged
  // set (sub-queries ran with top_k disabled, so nothing was truncated per
  // shard). Each surviving shard's matches are bit-exact for the sources
  // it owns, so a degraded answer is the full answer restricted to the
  // surviving shards' sources.
  std::vector<QueryMatch> merged;
  for (Result<std::vector<QueryMatch>>& result : results) {
    if (!result.ok()) continue;
    for (QueryMatch& match : *result) {
      merged.push_back(std::move(match));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.source < b.source;
            });
  FinalizeMatches(params.top_k, &merged);

  // Aggregate even when the caller passed no stats: a cache insert stores
  // the full stats so a later hit can serve them.
  QueryStats aggregated;
  aggregated.query_vertices = query_graph.num_vertices();
  aggregated.query_edges = query_graph.num_edges();
  for (const QueryStats& shard : shard_stats) {
    // Seconds are summed CPU across shards (sub-queries overlap in wall
    // time); the I/O and pruning counters add up exactly.
    aggregated.traversal_seconds += shard.traversal_seconds;
    aggregated.refinement_seconds += shard.refinement_seconds;
    aggregated.permutation_fill_seconds += shard.permutation_fill_seconds;
    aggregated.page_accesses += shard.page_accesses;
    aggregated.page_fetches += shard.page_fetches;
    aggregated.node_pairs_examined += shard.node_pairs_examined;
    aggregated.node_pairs_pruned_signature +=
        shard.node_pairs_pruned_signature;
    aggregated.node_pairs_pruned_index += shard.node_pairs_pruned_index;
    aggregated.leaf_pairs_examined += shard.leaf_pairs_examined;
    aggregated.leaf_pairs_pruned_pivot += shard.leaf_pairs_pruned_pivot;
    aggregated.leaf_pairs_pruned_edge += shard.leaf_pairs_pruned_edge;
    aggregated.candidate_pairs += shard.candidate_pairs;
    aggregated.candidate_matrices += shard.candidate_matrices;
    aggregated.matrices_pruned_graph += shard.matrices_pruned_graph;
    aggregated.shard_retries += shard.shard_retries;
  }
  aggregated.degraded = !failed_shards.empty();
  aggregated.failed_shards = failed_shards;
  if (params.collect_source_costs) {
    // Each shard's samples already carry global ids (RunShard remaps and
    // filters them); shards own disjoint source sets, so a plain merge +
    // sort restores the single-engine ascending order.
    for (QueryStats& shard : shard_stats) {
      for (SourceCostSample& sample : shard.source_costs) {
        aggregated.source_costs.push_back(sample);
      }
    }
    std::sort(aggregated.source_costs.begin(),
              aggregated.source_costs.end(),
              [](const SourceCostSample& a, const SourceCostSample& b) {
                return a.source < b.source;
              });
  }
  aggregated.answers = merged.size();
  aggregated.total_seconds = total_timer.ElapsedSeconds();

  if (cache_ != nullptr && failed_shards.empty() &&
      update_generation_.load(std::memory_order_acquire) == generation) {
    // Insert only what a future hit may legitimately stand in for: a FULL
    // answer (degraded results silently drop shards; a later hit could
    // then serve the gap forever) computed against state no mutation
    // raced. If a mutation was mid-flight during the fan-out, its final
    // generation bump makes the == fail and the result is simply not
    // cached — the conservative side of the race.
    cache_->Insert(cache_key, merged, aggregated);
  }
  if (stats != nullptr) {
    *stats = std::move(aggregated);
  }
  return merged;
}

Result<std::vector<QueryMatch>> ShardedEngine::QueryShard(
    size_t shard, const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  TopologyPin topology(*this);
  if (shard >= topology->shards.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  IMGRN_RETURN_IF_ERROR(ValidateParams(params));
  return RunShard(*topology, shard, query_graph, params, stats, control);
}

Result<std::vector<QueryMatch>> ShardedEngine::RunShard(
    const Topology& topology, size_t shard_index,
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  const Shard& shard = *topology.shards[shard_index];
  shard.sub_queries_started.fetch_add(1, std::memory_order_relaxed);
  Result<std::vector<QueryMatch>> result = [&]() ->
      Result<std::vector<QueryMatch>> {
        std::shared_lock<std::shared_mutex> lock(shard.mutex);
        // The sub-query fault point, evaluated under the reader lock so an
        // injected outage behaves exactly like a failure of the shard's
        // own query path.
        IMGRN_RETURN_IF_ERROR(CheckFault(fault_sites::kShardSubQuery,
                                         static_cast<int64_t>(shard_index)));
        if (!shard.built) {
          return std::vector<QueryMatch>{};  // Empty shard: no matches.
        }
        // The top_k policy is applied once, over the merged set: a
        // sub-query must never truncate, because while a source is
        // migrating it is materialized on two shards and the copy this
        // snapshot does NOT own could push a real answer off a per-shard
        // top-k before the filter below removes it.
        QueryParams shard_params = params;
        shard_params.top_k = 0;
        // Every sub-query attributes its work to the sources it
        // touched — that breakdown is what feeds the measured cost model,
        // whether or not the caller asked for it.
        shard_params.collect_source_costs = true;
        QueryStats local_stats;
        Result<std::vector<QueryMatch>> local = shard.engine.QueryWithGraph(
            query_graph, shard_params, &local_stats, control);
        if (!local.ok()) return local.status();
        // Feed the measured cost registry: one sample per source this
        // query's partition map assigns to this shard, EXPLICITLY zero for
        // sources the traversal never surfaced — the EWMA must converge to
        // the expected per-query work under the live mix, and a source
        // the workload ignores is genuinely cheap. The shared lock both
        // pins local_to_global and excludes RemoveSource's Retire() (which
        // runs after deactivating under the shard's write lock), so no
        // sample lands after a source is retired.
        std::vector<uint64_t> work_of(shard.local_to_global.size(), 0);
        for (const SourceCostSample& sample : local_stats.source_costs) {
          IMGRN_CHECK_LT(sample.source, work_of.size());
          work_of[sample.source] = sample.work;
        }
        for (size_t i = 0; i < shard.local_to_global.size(); ++i) {
          if (!shard.active[i]) continue;
          const SourceId global = shard.local_to_global[i];
          if (global < topology.shard_of.size() &&
              topology.shard_of[global] != shard_index) {
            continue;  // A migrating duplicate; its owner records it.
          }
          measured_.Record(global, static_cast<double>(work_of[i]));
        }
        // Remap shard-local ids to global source ids while the reader lock
        // still pins local_to_global, and keep only the sources this
        // query's partition map assigns to this shard — a migrating source
        // is counted exactly once, at its owner under the pinned map.
        // Sources appended after the map was published pass through: an
        // appended source lives on exactly one shard for as long as any
        // older topology stays pinned (AddSource publishes, and a
        // rebalance starts by draining every pre-publish pin).
        std::vector<QueryMatch> kept;
        kept.reserve(local->size());
        for (QueryMatch& match : *local) {
          IMGRN_CHECK_LT(match.source, shard.local_to_global.size());
          const SourceId global = shard.local_to_global[match.source];
          if (global < topology.shard_of.size() &&
              topology.shard_of[global] != shard_index) {
            continue;
          }
          match.source = global;
          kept.push_back(std::move(match));
        }
        // Migration appends globals out of order; restore the ascending
        // source order sub-results are documented to have.
        std::sort(kept.begin(), kept.end(),
                  [](const QueryMatch& a, const QueryMatch& b) {
                    return a.source < b.source;
                  });
        if (stats != nullptr) {
          // Re-expose the cost breakdown with global ids (owned sources
          // only), unless the caller never asked for it.
          std::vector<SourceCostSample> remapped;
          if (params.collect_source_costs) {
            remapped.reserve(local_stats.source_costs.size());
            for (SourceCostSample sample : local_stats.source_costs) {
              const SourceId global =
                  shard.local_to_global[sample.source];
              if (global < topology.shard_of.size() &&
                  topology.shard_of[global] != shard_index) {
                continue;
              }
              sample.source = global;
              remapped.push_back(sample);
            }
            std::sort(remapped.begin(), remapped.end(),
                      [](const SourceCostSample& a,
                         const SourceCostSample& b) {
                        return a.source < b.source;
                      });
          }
          local_stats.source_costs = std::move(remapped);
          *stats = std::move(local_stats);
        }
        return kept;
      }();
  if (!result.ok()) {
    shard.sub_query_errors.fetch_add(1, std::memory_order_relaxed);
  }
  shard.sub_queries_finished.fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<std::vector<QueryMatch>> ShardedEngine::RunShardWithRecovery(
    const Topology& topology, size_t shard_index,
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  CircuitBreaker& breaker = topology.shards[shard_index]->breaker;
  const ShardRetryOptions& retry = options_.retry;
  uint64_t retries = 0;
  int64_t backoff_micros = retry.initial_backoff_micros;
  auto finish = [&](Result<std::vector<QueryMatch>> result) {
    if (stats != nullptr) stats->shard_retries = retries;
    return result;
  };
  for (size_t attempt = 1;; ++attempt) {
    // A breaker that opened because of THIS sub-query's earlier failures
    // turns the remaining retries away too.
    if (!breaker.AllowRequest()) {
      return finish(Status::Unavailable(
          "shard " + std::to_string(shard_index) +
          " is quarantined (circuit breaker open)"));
    }
    // The breaker admitted this attempt (and may have handed it the
    // half-open probe slot), so exactly one verdict is owed. The guard
    // makes that structural: every exit from this iteration — including
    // an exception out of RunShard or a future early return — delivers
    // one, so a dropped probe can never wedge the breaker half-open
    // (probe_in_flight_ stuck true, all future probes rejected, the shard
    // unrecoverable).
    CircuitBreaker::ProbeGuard probe(&breaker);
    Result<std::vector<QueryMatch>> result = RunShard(
        topology, shard_index, query_graph, params, stats, control);
    if (result.ok()) {
      probe.Success();
      return finish(std::move(result));
    }
    const StatusCode code = result.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kInvalidArgument ||
        code == StatusCode::kFailedPrecondition) {
      // The caller's doing (cancel, deadline, bad request), not the
      // shard's: no health verdict, no retry.
      probe.Neutral();
      return finish(std::move(result));
    }
    probe.Failure();
    if (code != StatusCode::kUnavailable || attempt >= retry.max_attempts) {
      // kDataLoss/kInternal persist — retrying re-reads the same corrupt
      // bytes; and a transient error out of attempts gives up too.
      return finish(std::move(result));
    }
    ++retries;
    if (control != nullptr) {
      // Don't sleep through a deadline that already expired.
      Status cancelled = control->Check();
      if (!cancelled.ok()) return finish(std::move(cancelled));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_micros));
    backoff_micros =
        static_cast<int64_t>(backoff_micros * retry.backoff_multiplier);
  }
}

int64_t ShardedEngine::ActiveLocalOf(const Shard& shard, SourceId global) {
  // Scan from the back: migrated-in entries (the common lookup after a
  // rebalance) sit at the end, and at most one entry per global is active.
  for (size_t i = shard.local_to_global.size(); i > 0; --i) {
    if (shard.local_to_global[i - 1] == global && shard.active[i - 1]) {
      return static_cast<int64_t>(i - 1);
    }
  }
  return -1;
}

void ShardedEngine::LoadShard(Shard& shard, GeneDatabase part,
                              std::vector<SourceId> globals, double cost) {
  shard.active.assign(globals.size(), true);
  shard.active_sources.store(globals.size(), std::memory_order_relaxed);
  shard.cost.store(cost, std::memory_order_relaxed);
  shard.local_to_global = std::move(globals);
  if (!part.empty()) shard.engine.LoadDatabase(std::move(part));
}

Status ShardedEngine::AppendToShardLocked(Shard& shard, GeneMatrix matrix,
                                          SourceId global, double cost) {
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  // The new local id is defined by the side tables, NOT the engine: every
  // query remaps through local_to_global, so IT is the authority on what
  // local ids mean. The engine's database happens to agree because
  // RemoveMatrix only deactivates (never shrinks) — the CHECK pins that
  // assumption down so a future engine that compacts on removal fails
  // loudly here instead of silently remapping matches to wrong globals
  // after a RemoveSource -> AddSource sequence on the same shard.
  const SourceId local = static_cast<SourceId>(shard.local_to_global.size());
  if (!shard.built) {
    IMGRN_CHECK_EQ(shard.local_to_global.size(), 0u);
    // First source of a previously empty shard: bootstrap its engine.
    matrix.set_source_id(0);
    GeneDatabase database;
    database.Add(std::move(matrix));
    shard.engine.LoadDatabase(std::move(database));
    IMGRN_RETURN_IF_ERROR(shard.engine.BuildIndex());
    shard.built = true;
  } else {
    IMGRN_CHECK_EQ(static_cast<size_t>(local),
                   shard.engine.database().size());
    matrix.set_source_id(local);
    IMGRN_RETURN_IF_ERROR(shard.engine.AddMatrix(std::move(matrix)));
  }
  shard.local_to_global.push_back(global);
  shard.active.push_back(true);
  shard.active_sources.fetch_add(1, std::memory_order_relaxed);
  shard.cost.store(shard.cost.load(std::memory_order_relaxed) + cost,
                   std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardedEngine::DeactivateLocal(Shard& shard, size_t local,
                                      double cost) {
  IMGRN_RETURN_IF_ERROR(
      shard.engine.RemoveMatrix(static_cast<SourceId>(local)));
  shard.active[local] = false;
  shard.active_sources.fetch_sub(1, std::memory_order_relaxed);
  shard.cost.store(shard.cost.load(std::memory_order_relaxed) - cost,
                   std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardedEngine::RemoveFromShardLocked(Shard& shard, SourceId global,
                                            double cost) {
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  const int64_t local = ActiveLocalOf(shard, global);
  IMGRN_CHECK_GE(local, 0);
  return DeactivateLocal(shard, static_cast<size_t>(local), cost);
}

Status ShardedEngine::AddSource(GeneMatrix matrix) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (matrix.source_id() != next_source_) {
    return Status::InvalidArgument(
        "new matrix's source id must equal num_sources()");
  }
  const SourceId global = matrix.source_id();
  const double cost = EstimateSourceCost(matrix);
  const std::shared_ptr<const Topology> current = CurrentTopology();
  std::vector<double> shard_costs;
  shard_costs.reserve(current->shards.size());
  for (const std::shared_ptr<Shard>& shard : current->shards) {
    shard_costs.push_back(shard->cost.load(std::memory_order_relaxed));
  }
  const size_t s = partitioner_->PlaceSource(global, cost, shard_costs);
  IMGRN_CHECK_LT(s, current->shards.size());
  IMGRN_RETURN_IF_ERROR(
      AppendToShardLocked(*current->shards[s], std::move(matrix), global,
                          cost));
  source_cost_.push_back(cost);
  retracted_.push_back(false);
  ++next_source_;
  // Publish the extended map AFTER the data is in place, so every query
  // that can see the map entry finds the source on its shard.
  auto next = std::make_shared<Topology>();
  next->shards = current->shards;
  next->shard_of = current->shard_of;
  next->shard_of.push_back(static_cast<uint32_t>(s));
  Publish(std::move(next));
  // The generation bump is the LAST step: from here every cache key minted
  // before this AddSource is unservable, and any result computed while the
  // append was in flight fails the insert-time generation check.
  update_generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status ShardedEngine::RemoveSource(SourceId source) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  if (source >= next_source_) {
    return Status::InvalidArgument("unknown source id");
  }
  const std::shared_ptr<const Topology> current = CurrentTopology();
  Shard& shard = *current->shards[current->shard_of[source]];
  // No shard lock needed for the read: the side tables are only written by
  // holders of update_mutex_, which we are.
  if (ActiveLocalOf(shard, source) < 0) {
    return Status::FailedPrecondition("matrix already removed");
  }
  IMGRN_RETURN_IF_ERROR(
      RemoveFromShardLocked(shard, source, source_cost_[source]));
  retracted_[source] = true;
  // Forget the measured cost after the shard deactivated the source under
  // its write lock: a sub-query records under the shard's shared lock, so
  // any recording that could re-add a sample happened-before that write
  // lock — and any sub-query starting now sees the source inactive.
  measured_.Retire(source);
  update_generation_.fetch_add(1, std::memory_order_release);
  return Status::Ok();
}

Status ShardedEngine::Rebalance(const PartitionPlan& plan) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = CurrentTopology();
  if (plan.num_shards != current->shards.size()) {
    return Status::InvalidArgument(
        "plan has " + std::to_string(plan.num_shards) + " shards, engine " +
        std::to_string(current->shards.size()));
  }
  IMGRN_RETURN_IF_ERROR(plan.Validate(next_source_));
  Status migrated = MigrateLocked(current->shards, plan.shard_of);
  // Bump regardless of outcome: a migration that faulted after its commit
  // point has already changed ownership (rolled forward), and a pure
  // ownership change cannot alter answers anyway — invalidating is just
  // the conservative side.
  update_generation_.fetch_add(1, std::memory_order_release);
  return migrated;
}

std::vector<double> ShardedEngine::CalibratedCostsLocked() const {
  // Retracted sources carry no load (and their registry entries were
  // retired), so the plan packs only live cost.
  std::vector<double> costs = source_cost_;
  for (size_t i = 0; i < costs.size(); ++i) {
    if (retracted_[i]) costs[i] = 0.0;
  }
  return CalibrateSourceCosts(costs, measured_, options_.calibration);
}

std::vector<double> ShardedEngine::CalibratedSourceCosts() const {
  std::lock_guard<std::mutex> routing(update_mutex_);
  return CalibratedCostsLocked();
}

Status ShardedEngine::Rebalance(double target_imbalance,
                                size_t* moved_sources) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (moved_sources != nullptr) *moved_sources = 0;
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = CurrentTopology();
  // Under update_mutex_ the published map always covers every source
  // (AddSource extends it before releasing the lock).
  PartitionPlan now;
  now.num_shards = current->shards.size();
  now.shard_of = current->shard_of;
  size_t moved = 0;
  PartitionPlan plan = PlanMinimalRebalance(
      CalibratedCostsLocked(), now, target_imbalance, &moved);
  if (moved_sources != nullptr) *moved_sources = moved;
  if (moved == 0) return Status::Ok();
  Status migrated = MigrateLocked(current->shards, std::move(plan.shard_of));
  update_generation_.fetch_add(1, std::memory_order_release);
  return migrated;
}

Status ShardedEngine::Resize(size_t new_num_shards) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (new_num_shards == 0) {
    return Status::InvalidArgument("shard count must be >= 1");
  }
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = CurrentTopology();
  // Shards keep their identity below min(K, K'): the partitioner decides
  // placement, the migration moves only what it reassigns.
  std::vector<std::shared_ptr<Shard>> target_shards;
  target_shards.reserve(new_num_shards);
  for (size_t i = 0; i < new_num_shards; ++i) {
    if (i < current->shards.size()) {
      target_shards.push_back(current->shards[i]);
    } else {
      target_shards.push_back(MakeShard());
    }
  }
  // Retracted sources carry no load; zero them out so the plan packs only
  // live cost (their map entries are still assigned, arbitrarily). A
  // measured-cost policy plans over the calibrated blend instead.
  std::vector<double> costs;
  if (partitioner_->wants_measured_costs()) {
    costs = CalibratedCostsLocked();
  } else {
    costs = source_cost_;
    for (size_t i = 0; i < costs.size(); ++i) {
      if (retracted_[i]) costs[i] = 0.0;
    }
  }
  PartitionPlan plan = partitioner_->Partition(costs, new_num_shards);
  IMGRN_RETURN_IF_ERROR(plan.Validate(next_source_));
  Status migrated =
      MigrateLocked(std::move(target_shards), std::move(plan.shard_of));
  update_generation_.fetch_add(1, std::memory_order_release);
  return migrated;
}

Status ShardedEngine::MigrateLocked(
    std::vector<std::shared_ptr<Shard>> target_shards,
    std::vector<uint32_t> target_map) {
  const std::shared_ptr<const Topology> current = CurrentTopology();
  // The moving set: active sources whose owner changes. Shard indices
  // shared between the lists refer to the same Shard object, so an
  // unchanged assignment never moves, even across a Resize.
  std::vector<std::vector<SourceId>> incoming(target_shards.size());
  size_t moves = 0;
  for (SourceId global = 0; global < next_source_; ++global) {
    if (retracted_[global]) continue;
    if (target_map[global] == current->shard_of[global]) continue;
    incoming[target_map[global]].push_back(global);
    ++moves;
  }
  const bool same_shards = target_shards == current->shards;
  if (moves == 0 && same_shards) {
    if (target_map != current->shard_of) {
      // Only retracted sources were reassigned: publish the new map so
      // ShardOf/Rebalance see it, but nothing migrates.
      auto relabeled = std::make_shared<Topology>();
      relabeled->shards = std::move(target_shards);
      relabeled->shard_of = std::move(target_map);
      Publish(std::move(relabeled));
    }
    return Status::Ok();
  }

  // Step 1 — cut over new pins to a fresh topology object with UNCHANGED
  // ownership, then wait for the pins of every older one to drain. From
  // here on, all in-flight queries hold a map that covers every current
  // source (so none relies on the pass-through rule for a source this
  // migration is about to duplicate). A fault here aborts before anything
  // changed.
  IMGRN_RETURN_IF_ERROR(
      CheckFault(fault_sites::kMigratePublish,
                 static_cast<int64_t>(target_shards.size())));
  auto mid = std::make_shared<Topology>();
  mid->shards = current->shards;
  mid->shard_of = current->shard_of;
  Publish(mid);
  IMGRN_RETURN_IF_ERROR(
      CheckFault(fault_sites::kMigrateDrain,
                 static_cast<int64_t>(target_shards.size())));
  DrainOlder(*mid);

  // Recovery sweep: a migration that faulted after publishing its new map
  // (drain/delete step) leaves its superseded copies behind — active
  // entries whose global the current map assigns elsewhere. They are
  // invisible to every query (the map filter skips non-owners, and the
  // drain above retired every pin that could have seen an older map), so
  // deactivating them here is safe and makes migrations self-healing: each
  // one starts by garbage-collecting whatever a predecessor's fault left.
  for (size_t s = 0; s < current->shards.size(); ++s) {
    Shard& shard = *current->shards[s];
    std::unique_lock<std::shared_mutex> lock(shard.mutex);
    for (size_t i = 0; i < shard.local_to_global.size(); ++i) {
      if (!shard.active[i]) continue;
      const SourceId global = shard.local_to_global[i];
      if (current->shard_of[global] == s) continue;
      IMGRN_RETURN_IF_ERROR(DeactivateLocal(shard, i, source_cost_[global]));
    }
  }

  // Pre-publish rollback: deactivates the destination copies THIS
  // migration appended. They are invisible (active non-owners under the
  // still-current map), so a faulted copy step can undo itself and leave
  // the engine exactly as it found it.
  std::vector<std::pair<Shard*, SourceId>> appended;
  auto rollback = [&] {
    for (auto& [dst, global] : appended) {
      IMGRN_CHECK_OK(RemoveFromShardLocked(*dst, global, source_cost_[global]));
    }
  };

  // Step 2 — copy every moving source into its destination shard (write
  // lock per append). The old copies stay in place and stay
  // authoritative: in-flight queries pinned to `mid` filter the new copies
  // out. The sweep above guarantees no destination already holds an
  // active copy. A fault rolls the appends back and leaves ownership
  // untouched.
  for (size_t d = 0; d < target_shards.size(); ++d) {
    for (SourceId global : incoming[d]) {
      Shard& dst = *target_shards[d];
      const Shard& src = *current->shards[current->shard_of[global]];
      Status copy_fault =
          CheckFault(fault_sites::kMigrateCopy, static_cast<int64_t>(global));
      if (!copy_fault.ok()) {
        rollback();
        return copy_fault;
      }
      const int64_t src_local = ActiveLocalOf(src, global);
      IMGRN_CHECK_GE(src_local, 0);
      // Read the source shard without its lock: the side tables and
      // database are only written by holders of update_mutex_, which we
      // are.
      GeneMatrix copy =
          src.engine.database().matrix(static_cast<SourceId>(src_local));
      Status append = AppendToShardLocked(dst, std::move(copy), global,
                                          source_cost_[global]);
      if (!append.ok()) {
        rollback();
        return append;
      }
      appended.emplace_back(&dst, global);
    }
  }

  // Step 3 — publish the new ownership, then drain the queries still
  // pinned to the old map. New queries find every moved source on its new
  // shard (copied above); drained ones found it on the old. The publish is
  // the commit point: a fault before it rolls back (nothing published), a
  // fault after it rolls FORWARD — the new map stands, the not-yet-deleted
  // old copies are invisible non-owners, and the next migration's sweep
  // collects them.
  {
    Status publish_fault =
        CheckFault(fault_sites::kMigratePublish,
                   static_cast<int64_t>(target_shards.size()));
    if (!publish_fault.ok()) {
      rollback();
      return publish_fault;
    }
  }
  auto next = std::make_shared<Topology>();
  next->shards = std::move(target_shards);
  next->shard_of = target_map;
  Publish(next);
  IMGRN_RETURN_IF_ERROR(
      CheckFault(fault_sites::kMigrateDrain,
                 static_cast<int64_t>(next->shards.size())));
  DrainOlder(*next);

  // Step 4 — delete the moved sources from their old shards. Shards that
  // are not part of the new topology are skipped: no new query can reach
  // them, and the object is retired when its last pin unwinds. A fault
  // mid-loop is safe at every prefix: the new map is already
  // authoritative, each undeleted old copy is an invisible non-owner, and
  // the next migration's sweep finishes the job.
  for (SourceId global = 0; global < next_source_; ++global) {
    if (retracted_[global]) continue;
    const size_t from = current->shard_of[global];
    if (target_map[global] == from) continue;
    if (from >= next->shards.size() ||
        next->shards[from] != current->shards[from]) {
      continue;
    }
    IMGRN_RETURN_IF_ERROR(
        CheckFault(fault_sites::kMigrateDelete, static_cast<int64_t>(global)));
    IMGRN_RETURN_IF_ERROR(RemoveFromShardLocked(
        *current->shards[from], global, source_cost_[global]));
  }
  return Status::Ok();
}

Status ShardedEngine::ScrubStep(ScrubCursor* cursor, size_t max_pages,
                                bool reclaim, ScrubReport* report) const {
  *report = ScrubReport{};
  if (!built_.load(std::memory_order_acquire)) return Status::Ok();
  TopologyPin topology(*this);
  const size_t num_shards = topology->shards.size();
  // The cursor may point past a shrunken topology (Resize ran since the
  // last step); clamp rather than guess a mapping.
  if (cursor->shard >= num_shards) *cursor = ScrubCursor{};
  // Odometer advance: next shard, wrapping back to the first — the
  // scrubber eventually revisits everything forever.
  auto advance = [&] {
    cursor->page = 0;
    if (++cursor->shard >= num_shards) cursor->shard = 0;
  };
  size_t budget = max_pages;
  size_t completed = 0;
  // `completed` bounds the walk to one full lap: with every store empty
  // the budget never shrinks, and this loop must still terminate.
  while (budget > 0 && completed <= num_shards) {
    Shard& shard = *topology->shards[cursor->shard];
    size_t scrubbed = 0;
    bool store_done = false;
    Status status;
    {
      // Shared lock: the scrub read path mutates nothing queries share, so
      // concurrent sub-queries on this shard proceed undisturbed.
      std::shared_lock<std::shared_mutex> lock(shard.mutex);
      status = shard.engine.ScrubPages(&cursor->page, budget, &scrubbed);
      if (status.ok()) {
        const StorageManager* store = shard.engine.storage();
        store_done =
            store == nullptr || cursor->page >= store->num_pages();
      }
    }
    report->pages_scrubbed += scrubbed;
    budget -= scrubbed;
    if (!status.ok()) {
      if (status.code() == StatusCode::kDataLoss) {
        // Rot (or its injected stand-in). Report it for quarantine +
        // rebuild and move the cursor off the doomed shard — its store is
        // about to be replaced wholesale.
        report->corrupt = true;
        report->corrupt_shard = cursor->shard;
        advance();
        return Status::Ok();
      }
      // A non-data-loss read error (I/O): surface it, stepping past the
      // failing page so the next tick does not wedge on it forever.
      ++cursor->page;
      return status;
    }
    if (store_done) {
      if (reclaim) {
        // The store just verified clean end-to-end — the safe moment to
        // drop pages stranded by index rebuilds. Mutates the store, so
        // exclusive lock (queries briefly wait, exactly like an update).
        size_t reclaimed = 0;
        size_t truncated = 0;
        Status reclaim_status;
        {
          std::unique_lock<std::shared_mutex> lock(shard.mutex);
          reclaim_status = shard.engine.ReclaimStorage(&reclaimed, &truncated);
        }
        report->pages_reclaimed += reclaimed;
        report->slots_truncated += truncated;
        if (!reclaim_status.ok()) {
          advance();
          return reclaim_status;
        }
      }
      advance();
      ++completed;
    }
  }
  return Status::Ok();
}

void ShardedEngine::QuarantineShard(size_t shard) {
  TopologyPin topology(*this);
  IMGRN_CHECK_LT(shard, topology->shards.size());
  topology->shards[shard]->breaker.Trip();
}

Status ShardedEngine::RebuildShard(size_t shard) {
  std::lock_guard<std::mutex> routing(update_mutex_);
  if (!built_) {
    return Status::FailedPrecondition("BuildIndex() has not run");
  }
  const std::shared_ptr<const Topology> current = CurrentTopology();
  if (shard >= current->shards.size()) {
    return Status::InvalidArgument("shard index out of range");
  }
  // The sick shard donates to its own replacement: its resident side
  // tables and database are intact even when its backing STORE is not
  // (the store holds tree pages; the matrices live in memory). Reading
  // them without the shard lock is safe: they are only written by holders
  // of update_mutex_, which we are.
  const Shard& sick = *current->shards[shard];
  // Copy phase: the active sources, compacted to dense local ids (local
  // ids never leave a sub-query, so matches are unaffected), go into a
  // fresh shard — fresh engine, fresh backing file, closed breaker — that
  // is indexed in one build. The copy fault site fires per source, like a
  // migration's copy step. A failure aborts before the publish: the
  // half-built shard was never reachable, so there is nothing to roll
  // back.
  GeneDatabase part;
  std::vector<SourceId> globals;
  double cost = 0.0;
  for (size_t i = 0; i < sick.local_to_global.size(); ++i) {
    if (!sick.active[i]) continue;
    const SourceId global = sick.local_to_global[i];
    IMGRN_RETURN_IF_ERROR(CheckFault(fault_sites::kMigrateCopy,
                                     static_cast<int64_t>(global)));
    GeneMatrix copy = sick.engine.database().matrix(static_cast<SourceId>(i));
    copy.set_source_id(static_cast<SourceId>(part.size()));
    part.Add(std::move(copy));
    globals.push_back(global);
    cost += source_cost_[global];
  }
  std::shared_ptr<Shard> fresh = MakeShard();
  const bool populated = !part.empty();
  LoadShard(*fresh, std::move(part), std::move(globals), cost);
  if (populated) {
    IMGRN_RETURN_IF_ERROR(fresh->engine.BuildIndex());
    fresh->built = true;
  }
  // Publish -> drain -> delete: the topology with the fresh shard in the
  // sick one's place goes live, queries pinned to the old topology finish
  // against the old shard (whose data outlives them), and the last pin to
  // unwind retires it — spill file unlinked with it. No generation bump:
  // the rebuilt shard holds the same sources, so the result cache
  // deliberately stays warm through a rebuild.
  auto next = std::make_shared<Topology>();
  next->shards = current->shards;
  next->shards[shard] = std::move(fresh);
  next->shard_of = current->shard_of;
  Publish(next);
  DrainOlder(*next);
  return Status::Ok();
}

size_t ShardedEngine::num_shards() const {
  return CurrentTopology()->shards.size();
}

size_t ShardedEngine::num_sources() const {
  std::lock_guard<std::mutex> routing(update_mutex_);
  return next_source_;
}

size_t ShardedEngine::ShardOf(SourceId source) const {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  IMGRN_CHECK_LT(source, topology_->shard_of.size());
  return topology_->shard_of[source];
}

ResultCacheStats ShardedEngine::CacheStats() const {
  return cache_ != nullptr ? cache_->Stats() : ResultCacheStats{};
}

ShardedEngineStatsSnapshot ShardedEngine::StatsSnapshot() const {
  TopologyPin topology(*this);
  ShardedEngineStatsSnapshot snapshot;
  snapshot.shards.reserve(topology->shards.size());
  // Measured load per shard: sum of the per-source EWMAs under the pinned
  // map (retired sources read 0; a source added after this topology was
  // published is missed until the next publish — a gauge, not a ledger).
  std::vector<double> measured(topology->shards.size(), 0.0);
  for (SourceId global = 0; global < topology->shard_of.size(); ++global) {
    measured[topology->shard_of[global]] += measured_.Ewma(global);
  }
  std::vector<double> costs;
  costs.reserve(topology->shards.size());
  for (size_t s = 0; s < topology->shards.size(); ++s) {
    const Shard& shard = *topology->shards[s];
    ShardStats stats;
    stats.shard = s;
    stats.sources = shard.active_sources.load(std::memory_order_relaxed);
    stats.cost = shard.cost.load(std::memory_order_relaxed);
    stats.measured_work = measured[s];
    const uint64_t started =
        shard.sub_queries_started.load(std::memory_order_relaxed);
    stats.sub_queries =
        shard.sub_queries_finished.load(std::memory_order_relaxed);
    stats.sub_query_errors =
        shard.sub_query_errors.load(std::memory_order_relaxed);
    stats.in_flight = started - stats.sub_queries;
    stats.breaker = shard.breaker.state();
    stats.breaker_rejections = shard.breaker.rejections();
    costs.push_back(stats.cost);
    snapshot.shards.push_back(std::move(stats));
  }
  snapshot.imbalance = MaxMeanImbalance(costs);
  // A cold registry (no queries yet) measures every shard at zero, which
  // plain max/mean reads as "perfectly balanced" — exactly wrong for the
  // auto-rebalance loop, which would then never fire on a skewed cold
  // cluster. Fall back to the static estimate until real measurements
  // arrive.
  snapshot.measured_imbalance = MaxMeanImbalanceWithFallback(measured, costs);
  snapshot.cache = CacheStats();
  if (maintenance_ != nullptr) {
    snapshot.maintenance = maintenance_->Stats();
  }
  return snapshot;
}

std::shared_mutex& ShardedEngine::shard_mutex_for_testing(
    size_t shard) const {
  std::lock_guard<std::mutex> lock(topology_mutex_);
  IMGRN_CHECK_LT(shard, topology_->shards.size());
  return topology_->shards[shard]->mutex;
}

}  // namespace imgrn
