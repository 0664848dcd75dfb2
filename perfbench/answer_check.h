#ifndef IMGRN_PERFBENCH_ANSWER_CHECK_H_
#define IMGRN_PERFBENCH_ANSWER_CHECK_H_

#include <functional>
#include <string>
#include <vector>

#include "matrix/gene_matrix.h"
#include "query/query_types.h"

namespace imgrn {
namespace perfbench {

/// What an answer is checked against: the gene ids of every source the
/// database ever held (indexed by global source id, removed sources
/// included), the query graph's vertex labels, and the query's alpha.
struct AnswerContext {
  const std::vector<std::vector<GeneId>>* source_genes = nullptr;
  std::vector<GeneId> query_genes;  // Sorted ascending.
  double alpha = 0.0;
};

/// Checks that hold for every correct answer, whatever computed it:
/// matches in strictly ascending source order, alpha < probability <= 1,
/// and per match an injective mapping that covers each query gene exactly
/// once and sends it to a column carrying that gene id. Returns "" when
/// all hold, else the first violation.
std::string CheckProperties(const std::vector<QueryMatch>& answer,
                            const AnswerContext& context);

/// Returns "" when `got` equals `want` exactly: the same sources in the
/// same order, bit-identical probabilities and identical mappings; else
/// the first difference.
std::string CompareAnswers(const std::vector<QueryMatch>& got,
                           const std::vector<QueryMatch>& want);

/// CheckProperties, then CompareAnswers against the reference answer.
std::string CheckAnswer(const std::vector<QueryMatch>& got,
                        const std::vector<QueryMatch>& want,
                        const AnswerContext& context);

/// Accepts or rejects one answer; returns "" to accept, else the reason.
using AnswerChecker =
    std::function<std::string(const std::vector<QueryMatch>& answer)>;

/// Feeds `check` four corrupted copies of `good`, a non-empty answer it
/// accepts: the last match dropped, one probability moved by one ulp, one
/// query gene mapped to a column carrying another gene, and every match of
/// the first source removed (a sharded answer missing a shard's source).
/// Returns how many corruptions `check` accepted; each accepted one is
/// reported on stderr. A checker that cannot fail scores 4.
int CountUndetectedCorruptions(const std::vector<QueryMatch>& good,
                               const AnswerContext& context,
                               const AnswerChecker& check);

}  // namespace perfbench
}  // namespace imgrn

#endif  // IMGRN_PERFBENCH_ANSWER_CHECK_H_
