#include "query/imgrn_processor.h"

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "inference/grn_inference.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"
#include "query/refinement.h"

namespace imgrn {

namespace {

/// Priority-queue element: a pair of index nodes that may contain the
/// anchor gene (in `a`) and one of its query neighbors (in `b`). Lower key
/// (= node level) pops first, giving the depth-first order of Fig. 4.
struct QueueElement {
  int key = 0;
  NodeId a = kInvalidNodeId;
  NodeId b = kInvalidNodeId;
};

struct QueueCompare {
  bool operator()(const QueueElement& lhs, const QueueElement& rhs) const {
    return lhs.key > rhs.key;  // Min-heap on key.
  }
};

}  // namespace

struct ImGrnQueryProcessor::TraversalContext {
  GeneId anchor_gene = 0;
  std::unordered_set<GeneId> neighbor_genes;

  // Query-side signatures (Fig. 4 lines 3-6).
  std::vector<uint8_t> anchor_gene_sig;     // qV_f(s)
  std::vector<uint8_t> neighbor_gene_sig;   // qV_f(t)
  std::vector<uint8_t> source_filter_sig;   // qV_d(s) & qV_d(t)

  // Surviving candidate anchor/neighbor pairs, grouped by source.
  struct CandidatePair {
    SourceId source;
    uint32_t anchor_column;
    uint32_t neighbor_column;
  };
  std::vector<CandidatePair> candidates;
  std::unordered_set<SourceId> candidate_sources;
};

ImGrnQueryProcessor::ImGrnQueryProcessor(const ImGrnIndex* index)
    : index_(index) {
  IMGRN_CHECK(index != nullptr);
  IMGRN_CHECK(index->is_built());
}

Result<std::vector<QueryMatch>> ImGrnQueryProcessor::Query(
    const GeneMatrix& query_matrix, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  if (params.alpha < 0.0 || params.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
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

Result<std::vector<QueryMatch>> ImGrnQueryProcessor::QueryWithGraph(
    const ProbGraph& query_graph, const QueryParams& params,
    QueryStats* stats, const QueryControl* control) const {
  if (params.gamma < 0.0 || params.gamma >= 1.0) {
    return Status::InvalidArgument("gamma must be in [0, 1)");
  }
  if (params.alpha < 0.0 || params.alpha >= 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1)");
  }
  if (query_graph.num_vertices() == 0) {
    return Status::InvalidArgument("query graph has no vertices");
  }
  if (control != nullptr) {
    IMGRN_RETURN_IF_ERROR(control->Check());
  }
  QueryStats local_stats;
  local_stats.query_vertices = query_graph.num_vertices();
  local_stats.query_edges = query_graph.num_edges();

  Stopwatch total_timer;
  const IoStats io_before = index_->rtree().io_stats();

  std::vector<QueryMatch> matches;
  if (query_graph.num_edges() == 0) {
    matches = MatchEdgeless(query_graph);
    FinalizeMatches(params.top_k, &matches);
    local_stats.answers = matches.size();
    local_stats.total_seconds = total_timer.ElapsedSeconds();
    if (stats != nullptr) *stats = local_stats;
    return matches;
  }

  // --- Traversal (Fig. 4 lines 2-27) ---
  Stopwatch traversal_timer;
  TraversalContext ctx;
  IMGRN_RETURN_IF_ERROR(
      TraverseIndex(query_graph, params, control, &ctx, &local_stats));
  local_stats.traversal_seconds = traversal_timer.ElapsedSeconds();
  local_stats.candidate_pairs = ctx.candidates.size();
  local_stats.candidate_matrices = ctx.candidate_sources.size();

  // --- Refinement (Fig. 4 lines 28-30) ---
  Stopwatch refinement_timer;
  PermutationCache cache(params.refine_num_samples, params.seed ^ 0x5EEDu);
  std::vector<SourceId> sources(ctx.candidate_sources.begin(),
                                ctx.candidate_sources.end());
  std::sort(sources.begin(), sources.end());
  // Per-source cost attribution in deterministic work units: the source's
  // refinement work (see RefineMatrix) plus its surviving candidate pairs,
  // the traversal's footprint on it.
  const bool attribute = params.collect_source_costs;
  std::unordered_map<SourceId, uint64_t> pairs_of;
  if (attribute) {
    local_stats.source_costs.reserve(sources.size());
    for (const TraversalContext::CandidatePair& pair : ctx.candidates) {
      ++pairs_of[pair.source];
    }
  }
  for (SourceId source : sources) {
    if (control != nullptr) {
      IMGRN_RETURN_IF_ERROR(control->Check());
    }
    QueryMatch match;
    uint64_t refine_work = 0;
    if (RefineMatrix(*index_, source, query_graph, params, &cache, &match,
                     &local_stats, &refine_work)) {
      matches.push_back(std::move(match));
    }
    if (attribute) {
      SourceCostSample sample;
      sample.source = source;
      sample.candidate_pairs = pairs_of[source];
      sample.work = refine_work + sample.candidate_pairs;
      local_stats.source_costs.push_back(sample);
    }
  }
  local_stats.refinement_seconds = refinement_timer.ElapsedSeconds();
  local_stats.permutation_fill_seconds = cache.fill_seconds();
  FinalizeMatches(params.top_k, &matches);
  local_stats.answers = matches.size();
  local_stats.total_seconds = total_timer.ElapsedSeconds();

  const IoStats io_after = index_->rtree().io_stats();
  local_stats.page_accesses = io_after.misses - io_before.misses;
  local_stats.page_fetches = io_after.fetches - io_before.fetches;
  if (stats != nullptr) *stats = local_stats;
  return matches;
}

Status ImGrnQueryProcessor::TraverseIndex(const ProbGraph& query,
                                          const QueryParams& params,
                                          const QueryControl* control,
                                          TraversalContext* ctx,
                                          QueryStats* stats) const {
  const RTree& rtree = index_->rtree();
  const ByteSignatureLayout layout = index_->signature_layout();
  const size_t sig_bytes = layout.num_bytes();
  const size_t d = index_->num_pivots();

  // Anchor gene: highest degree in Q (Fig. 4 line 2).
  const VertexId anchor = query.MaxDegreeVertex();
  ctx->anchor_gene = query.label(anchor);
  for (VertexId neighbor : query.Neighbors(anchor)) {
    ctx->neighbor_genes.insert(query.label(neighbor));
  }

  // Query-side signatures (lines 3-6).
  ctx->anchor_gene_sig.assign(sig_bytes, 0);
  ByteSignatureAdd(layout, ctx->anchor_gene, ctx->anchor_gene_sig);
  ctx->neighbor_gene_sig.assign(sig_bytes, 0);
  std::vector<uint8_t> source_sig_s(
      index_->InvertedFileEntry(ctx->anchor_gene).begin(),
      index_->InvertedFileEntry(ctx->anchor_gene).end());
  std::vector<uint8_t> source_sig_t(sig_bytes, 0);
  for (GeneId gene : ctx->neighbor_genes) {
    std::vector<uint8_t> one(sig_bytes, 0);
    ByteSignatureAdd(layout, gene, one);
    ByteSignatureMerge(ctx->neighbor_gene_sig.data(), one.data(), sig_bytes);
    const std::span<const uint8_t> if_entry = index_->InvertedFileEntry(gene);
    ByteSignatureMerge(source_sig_t.data(), if_entry.data(), sig_bytes);
  }
  // Sources must contain the anchor gene AND at least one neighbor gene:
  // qV_d(s) & qV_d(t).
  ctx->source_filter_sig.resize(sig_bytes);
  for (size_t i = 0; i < sig_bytes; ++i) {
    ctx->source_filter_sig[i] = source_sig_s[i] & source_sig_t[i];
  }

  // The gene-ID dimension of the index (position 2d, Section 5.1) groups
  // equal genes, so a node's MBR carries the exact range of gene IDs under
  // it: a subtree can hold the anchor (resp. a neighbor) only if its range
  // covers that ID. This structural check complements the hashed
  // signatures, which saturate near the root where subtrees span many
  // genes.
  const size_t gene_dim = 2 * d;
  const double anchor_value = static_cast<double>(ctx->anchor_gene);

  // Every check except Lemma 6 looks at one side of a pair only, so it
  // runs once per child (GraphMini-style shrunken candidate sets) instead
  // of once per child pair. A child survives as an `a` when it may hold
  // the anchor gene, and as a `b` when it may hold a neighbor gene; both
  // must intersect the qV_d(s) & qV_d(t) source filter.
  auto a_side_survives = [&](const RTreeEntry& ea) {
    return ea.mbr.lo(gene_dim) <= anchor_value &&
           anchor_value <= ea.mbr.hi(gene_dim) &&
           index_->EntryMayContainGene(ea, ctx->anchor_gene) &&
           index_->EntryMayIntersectSources(ea, ctx->source_filter_sig);
  };
  auto b_side_survives = [&](const RTreeEntry& eb) {
    const bool covers_neighbor = std::any_of(
        ctx->neighbor_genes.begin(), ctx->neighbor_genes.end(),
        [&](GeneId gene) {
          const double value = static_cast<double>(gene);
          return eb.mbr.lo(gene_dim) <= value && value <= eb.mbr.hi(gene_dim);
        });
    return covers_neighbor &&
           ByteSignaturesIntersect(index_->GeneSignature(eb),
                                   ctx->neighbor_gene_sig) &&
           index_->EntryMayIntersectSources(eb, ctx->source_filter_sig);
  };

  // Expands one internal node pair (lines 9-13 and 22-26): filters each
  // side's children once, then crosses only the survivors through Lemma 6
  // and queues those that pass under `child_key`. The counters keep their
  // per-pair meaning: all |A|·|B| child pairs count as examined, and those
  // with a failing side as signature-pruned.
  std::priority_queue<QueueElement, std::vector<QueueElement>, QueueCompare>
      queue;
  std::vector<const RTreeEntry*> survivors_a;
  std::vector<const RTreeEntry*> survivors_b;
  auto expand_pair = [&](const RTreeNode& node_a, const RTreeNode& node_b,
                         int child_key) {
    survivors_a.clear();
    for (const RTreeEntry& ea : node_a.entries) {
      if (a_side_survives(ea)) survivors_a.push_back(&ea);
    }
    survivors_b.clear();
    for (const RTreeEntry& eb : node_b.entries) {
      if (b_side_survives(eb)) survivors_b.push_back(&eb);
    }
    const size_t examined = node_a.entries.size() * node_b.entries.size();
    const size_t crossed = survivors_a.size() * survivors_b.size();
    stats->node_pairs_examined += examined;
    stats->node_pairs_pruned_signature += examined - crossed;
    for (const RTreeEntry* ea : survivors_a) {
      for (const RTreeEntry* eb : survivors_b) {
        if (params.use_index_pruning &&
            (ImGrnIndex::IndexPruneNodePair(ea->mbr, eb->mbr, d,
                                            params.gamma) ||
             ImGrnIndex::IndexPruneNodePair(eb->mbr, ea->mbr, d,
                                            params.gamma))) {
          ++stats->node_pairs_pruned_index;
          continue;
        }
        queue.push(QueueElement{child_key, static_cast<NodeId>(ea->handle),
                                static_cast<NodeId>(eb->handle)});
      }
    }
  };

  // Processes a leaf node pair (lines 16-21). A leaf entry is a point MBR
  // whose gene-ID coordinate is the gene itself, so each leaf is filtered
  // to its anchor (resp. neighbor) entries once; the pivot test reads the
  // record's stored embedding.
  auto gene_of = [&](const RTreeEntry& entry) {
    return static_cast<GeneId>(entry.mbr.lo(gene_dim));
  };
  std::vector<const RTreeEntry*> anchor_entries;
  std::vector<const RTreeEntry*> neighbor_entries;
  auto process_leaf_pair = [&](const RTreeNode& leaf_a,
                               const RTreeNode& leaf_b) {
    anchor_entries.clear();
    for (const RTreeEntry& pa : leaf_a.entries) {
      if (gene_of(pa) == ctx->anchor_gene) anchor_entries.push_back(&pa);
    }
    if (anchor_entries.empty()) return;
    neighbor_entries.clear();
    for (const RTreeEntry& pb : leaf_b.entries) {
      if (ctx->neighbor_genes.contains(gene_of(pb))) {
        neighbor_entries.push_back(&pb);
      }
    }
    for (const RTreeEntry* pa : anchor_entries) {
      const RecordRef ref_a = DecodeRecordRef(pa->handle);
      for (const RTreeEntry* pb : neighbor_entries) {
        const RecordRef ref_b = DecodeRecordRef(pb->handle);
        if (ref_a.source != ref_b.source) continue;
        ++stats->leaf_pairs_examined;

        if (params.use_pivot_pruning) {
          const EmbeddedPoint& point_a = index_->embedded_point(ref_a);
          const EmbeddedPoint& point_b = index_->embedded_point(ref_b);
          if (PivotPruneEdge(point_a, point_b, params.gamma) ||
              PivotPruneEdge(point_b, point_a, params.gamma)) {
            ++stats->leaf_pairs_pruned_pivot;
            continue;
          }
        }
        if (params.use_edge_pruning) {
          const GeneMatrix& matrix = index_->database().matrix(ref_a.source);
          const double distance =
              EuclideanDistance(matrix.Column(ref_a.column),
                                matrix.Column(ref_b.column));
          if (EdgeInferencePrune(distance, matrix.num_samples(),
                                 params.gamma)) {
            ++stats->leaf_pairs_pruned_edge;
            continue;
          }
        }
        ctx->candidates.push_back(TraversalContext::CandidatePair{
            ref_a.source, ref_a.column, ref_b.column});
        ctx->candidate_sources.insert(ref_a.source);
      }
    }
  };

  if (rtree.root_id() == kInvalidNodeId) return Status::Ok();

  Result<const RTreeNode*> root_fetch = rtree.node(rtree.root_id());
  if (!root_fetch.ok()) return root_fetch.status();
  const RTreeNode& root = **root_fetch;
  if (root.IsLeaf()) {
    process_leaf_pair(root, root);
    return Status::Ok();
  }
  // Seed with surviving ordered pairs of root entries (lines 9-13).
  expand_pair(root, root, root.level - 1);

  // Main loop (lines 14-27). The control checkpoint sits here — once per
  // popped node pair — so a deadline or cancel stops the traversal within
  // one pair's worth of work.
  while (!queue.empty()) {
    if (control != nullptr) {
      IMGRN_RETURN_IF_ERROR(control->Check());
    }
    const QueueElement element = queue.top();
    queue.pop();
    Result<const RTreeNode*> fetch_a = rtree.node(element.a);
    if (!fetch_a.ok()) return fetch_a.status();
    Result<const RTreeNode*> fetch_b = rtree.node(element.b);
    if (!fetch_b.ok()) return fetch_b.status();
    const RTreeNode& node_a = **fetch_a;
    const RTreeNode& node_b = **fetch_b;
    if (node_a.IsLeaf()) {
      process_leaf_pair(node_a, node_b);
      continue;
    }
    expand_pair(node_a, node_b, element.key - 1);
  }
  return Status::Ok();
}

std::vector<QueryMatch> ImGrnQueryProcessor::MatchEdgeless(
    const ProbGraph& query) const {
  std::vector<QueryMatch> matches;
  const GeneDatabase& database = index_->database();
  for (SourceId i = 0; i < database.size(); ++i) {
    if (!index_->IsActive(i)) continue;
    const GeneMatrix& matrix = database.matrix(i);
    QueryMatch match;
    match.source = i;
    match.probability = 1.0;  // Empty product of Eq. 3.
    bool all_present = true;
    for (VertexId q = 0; q < query.num_vertices(); ++q) {
      const int column = matrix.ColumnOfGene(query.label(q));
      if (column < 0) {
        all_present = false;
        break;
      }
      match.mapping.emplace_back(query.label(q),
                                 static_cast<uint32_t>(column));
    }
    if (all_present) {
      matches.push_back(std::move(match));
    }
  }
  return matches;
}

}  // namespace imgrn
