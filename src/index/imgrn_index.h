#ifndef IMGRN_INDEX_IMGRN_INDEX_H_
#define IMGRN_INDEX_IMGRN_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "embed/pivot_embedding.h"
#include "embed/pivot_selection.h"
#include "index/byte_signature.h"
#include "matrix/gene_matrix.h"
#include "rtree/rtree.h"

namespace imgrn {

/// Configuration of the IM-GRN index (Section 5.1).
struct ImGrnIndexOptions {
  /// Number of pivots d per matrix; the index dimensionality is 2d+1.
  size_t num_pivots = 2;

  /// Bits B of each hashed bit-vector signature (V_f, V_d, IF entries).
  size_t signature_bits = 128;
  int signature_hashes = 2;

  /// Permutation samples for the y coordinates E[dist(X^R, piv_w)].
  size_t embed_samples = 64;

  /// Fig.-3 pivot selection knobs.
  PivotSelectionOptions pivot_selection;

  /// Storage / R*-tree knobs.
  size_t page_size = kDefaultPageSize;
  size_t rtree_max_entries = 0;  // 0 = derive from page size.
  size_t buffer_pool_pages = 128;

  /// Backing store for the R*-tree's pages. Non-owning; must outlive the
  /// index and match `page_size`. Null = a private in-memory store (the
  /// historical behavior). Never persisted by index_io — the engine wires
  /// its store in at construction.
  StorageManager* storage = nullptr;

  /// Build the R*-tree with STR bulk loading (fast, near-full packing)
  /// instead of one-at-a-time insertion. Query results are identical; the
  /// tree remains fully updatable (incremental adds/removes still work).
  bool bulk_load = false;

  /// Worker threads for the pivot-selection + embedding phase of Build()
  /// (the dominant cost; R*-tree insertion stays serial). The result is
  /// bit-identical to a single-threaded build: per-matrix RNG streams are
  /// pre-split and the permutation cache is pre-warmed in deterministic
  /// order before workers start. 0 = use the hardware concurrency.
  size_t build_threads = 1;

  uint64_t seed = 7;
};

/// Identifies one gene feature vector in the database: matrix `source`,
/// column `column`.
struct RecordRef {
  SourceId source = 0;
  uint32_t column = 0;
};

/// Encodes a RecordRef into the R*-tree's 64-bit record handle.
uint64_t EncodeRecordRef(RecordRef ref);
RecordRef DecodeRecordRef(uint64_t handle);

/// The IM-GRN index over a gene feature database (Section 5.1):
///  - per matrix: cost-model-selected pivots and the 2d-dim embedding of
///    every gene feature vector (Section 4);
///  - one global (2d+1)-dimensional R*-tree over the embedded points (the
///    extra dimension is the integer gene ID, grouping equal genes);
///  - per-entry payloads carrying the gene-ID signature V_f and the
///    data-source signature V_d, OR-merged up the tree;
///  - the inverted bit-vector file IF: gene ID -> signature of the data
///    sources containing that gene.
class ImGrnIndex {
 public:
  explicit ImGrnIndex(ImGrnIndexOptions options);

  /// Builds the index over `database`. The database must outlive the index
  /// (the index stores no gene data, only embeddings). Matrices are
  /// standardized in place. Returns InvalidArgument for an empty database.
  Status Build(GeneDatabase* database);

  /// --- Incremental maintenance ---

  /// Indexes the database matrix with id `source`, which must be the next
  /// unindexed source (the database grew by one since Build/the last add).
  /// Standardizes the matrix in place.
  Status AddMatrix(SourceId source);

  /// Removes matrix `source` from the index: its points leave the R*-tree
  /// and it stops appearing in query results. The hashed signatures and
  /// inverted-file bits are not un-set (hashed bits cannot be removed
  /// without counting); that only costs false-positive candidates, which
  /// the leaf-level checks and refinement filter exactly.
  Status RemoveMatrix(SourceId source);

  /// False after RemoveMatrix(source).
  bool IsActive(SourceId source) const;

  /// Number of matrices currently active in the index.
  size_t num_active() const;

  bool is_built() const { return built_; }
  double build_seconds() const { return build_seconds_; }

  size_t num_pivots() const { return options_.num_pivots; }
  size_t dims() const { return 2 * options_.num_pivots + 1; }
  const ImGrnIndexOptions& options() const { return options_; }

  const RTree& rtree() const { return *rtree_; }
  RTree& mutable_rtree() { return *rtree_; }

  const GeneDatabase& database() const { return *database_; }

  /// Pivots selected for matrix `source`.
  const PivotSet& pivots(SourceId source) const;

  /// Embedded points of matrix `source`, one per column.
  const std::vector<EmbeddedPoint>& embedded_points(SourceId source) const;
  const EmbeddedPoint& embedded_point(RecordRef ref) const;

  /// --- Signature plumbing (Fig. 4 bit-vector checks) ---

  ByteSignatureLayout signature_layout() const {
    return ByteSignatureLayout{options_.signature_bits,
                               options_.signature_hashes};
  }

  /// Payload bytes of one leaf record: V_f(gene) || V_d(source).
  std::vector<uint8_t> MakeLeafPayload(GeneId gene, SourceId source) const;

  /// Gene-signature / source-signature halves of an entry payload.
  std::span<const uint8_t> GeneSignature(const RTreeEntry& entry) const;
  std::span<const uint8_t> SourceSignature(const RTreeEntry& entry) const;

  /// True when the subtree under `entry` may contain a vector of `gene`
  /// (V_f probe; no false negatives).
  bool EntryMayContainGene(const RTreeEntry& entry, GeneId gene) const;

  /// True when the subtree's source signature intersects `source_sig`.
  bool EntryMayIntersectSources(const RTreeEntry& entry,
                                std::span<const uint8_t> source_sig) const;

  /// Hashed signature of a single source id (query-side V_d).
  std::vector<uint8_t> MakeSourceSignature(SourceId source) const;

  /// Inverted file entry IF[gene]: signature of the sources that contain
  /// `gene` (all-zero signature when the gene is unknown).
  std::span<const uint8_t> InvertedFileEntry(GeneId gene) const;

  /// --- Lemma 6 (index pruning) ---

  /// Returns true when, per Lemma 6, no vector under node MBR `eb` can form
  /// an edge (at threshold gamma) with any vector under node MBR `ea`, where
  /// eb's endpoint plays the randomized role. MBRs are in the (2d+1)-dim
  /// index space; the gene-ID dimension is ignored.
  static bool IndexPruneNodePair(const Mbr& ea, const Mbr& eb,
                                 size_t num_pivots, double gamma);

  /// --- Persistence (index_io.h) ---

  const std::vector<PivotSet>& pivot_sets() const { return pivot_sets_; }
  const std::vector<bool>& active_flags() const { return active_; }
  const std::unordered_map<GeneId, std::vector<uint8_t>>& inverted_file()
      const {
    return inverted_file_;
  }

  /// Restores a built index from persisted parts: parallel per-source
  /// arrays sized to `database`, plus the inverted file.
  ///
  /// With `tree_meta` null the R*-tree is rebuilt by re-inserting the
  /// active embedded points (the index_io file path). With `tree_meta`
  /// set — the snapshot path — the tree is reopened node-for-node from
  /// pages previously written by SerializeAllNodes into
  /// `options.storage`, which must be the store that holds them; no
  /// re-insertion happens, so the restored tree (and its query I/O) is
  /// bit-identical to the saved one.
  ///
  /// Incremental adds after a restore draw from a fresh RNG stream seeded
  /// by `options.seed`, so they are deterministic but not identical to
  /// adds on the never-persisted index.
  static Result<std::unique_ptr<ImGrnIndex>> Restore(
      ImGrnIndexOptions options, GeneDatabase* database,
      std::vector<PivotSet> pivot_sets,
      std::vector<std::vector<EmbeddedPoint>> embeddings,
      std::vector<bool> active,
      std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file,
      const RTreeMeta* tree_meta = nullptr);

 private:
  /// Pivots + embeds + inserts one matrix; shared by Build and AddMatrix.
  void IndexOneMatrix(SourceId source);

  /// The CPU-heavy half of IndexOneMatrix: pivot selection + embedding.
  /// Thread-safe given a private `rng` and a read-only-by-then cache.
  void ComputeMatrixEmbedding(SourceId source, Rng* rng, PivotSet* pivots,
                              std::vector<EmbeddedPoint>* points) const;

  /// The serial half: R*-tree insertion + inverted-file update +
  /// bookkeeping. When `bulk_out` is non-null the R*-tree entries are
  /// collected there (for one STR bulk load at the end of Build) instead
  /// of inserted one by one.
  void InsertMatrixEmbedding(SourceId source, PivotSet pivots,
                             std::vector<EmbeddedPoint> points,
                             std::vector<RTreeEntry>* bulk_out = nullptr);

  ImGrnIndexOptions options_;
  GeneDatabase* database_ = nullptr;
  bool built_ = false;
  double build_seconds_ = 0.0;

  std::unique_ptr<RTree> rtree_;
  std::vector<PivotSet> pivot_sets_;                    // Per source.
  std::vector<std::vector<EmbeddedPoint>> embeddings_;  // Per source.
  std::vector<bool> active_;                            // Per source.
  std::unordered_map<GeneId, std::vector<uint8_t>> inverted_file_;
  std::vector<uint8_t> zero_signature_;

  // Streams reused by incremental adds (seeded once at construction).
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<PermutationCache> embed_cache_;
};

}  // namespace imgrn

#endif  // IMGRN_INDEX_IMGRN_INDEX_H_
