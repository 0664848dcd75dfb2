#include "answer_check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <unordered_set>

namespace imgrn {
namespace perfbench {

std::string CheckProperties(const std::vector<QueryMatch>& answer,
                            const AnswerContext& context) {
  const std::vector<std::vector<GeneId>>& genes = *context.source_genes;
  for (size_t i = 0; i < answer.size(); ++i) {
    const QueryMatch& match = answer[i];
    const std::string where = "match " + std::to_string(i) + " (source " +
                              std::to_string(match.source) + "): ";
    if (i > 0 && answer[i - 1].source >= match.source) {
      return where + "sources not strictly ascending";
    }
    if (match.source >= genes.size()) return where + "unknown source";
    if (!(match.probability > context.alpha && match.probability <= 1.0)) {
      return where + "probability outside (alpha, 1]";
    }
    if (match.mapping.size() != context.query_genes.size()) {
      return where + "mapping does not cover the query genes";
    }
    std::vector<GeneId> mapped;
    std::unordered_set<uint32_t> columns;
    for (const auto& [gene, column] : match.mapping) {
      const std::vector<GeneId>& source_genes = genes[match.source];
      if (column >= source_genes.size()) return where + "column out of range";
      if (source_genes[column] != gene) {
        return where + "gene mapped to a column with another label";
      }
      if (!columns.insert(column).second) {
        return where + "mapping not injective";
      }
      mapped.push_back(gene);
    }
    std::sort(mapped.begin(), mapped.end());
    if (mapped != context.query_genes) {
      return where + "mapped genes differ from the query genes";
    }
  }
  return "";
}

std::string CompareAnswers(const std::vector<QueryMatch>& got,
                           const std::vector<QueryMatch>& want) {
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " matches, want " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string where = "match " + std::to_string(i) + ": ";
    if (got[i].source != want[i].source) return where + "source differs";
    if (std::bit_cast<uint64_t>(got[i].probability) !=
        std::bit_cast<uint64_t>(want[i].probability)) {
      return where + "probability differs";
    }
    if (got[i].mapping != want[i].mapping) return where + "mapping differs";
  }
  return "";
}

std::string CheckAnswer(const std::vector<QueryMatch>& got,
                        const std::vector<QueryMatch>& want,
                        const AnswerContext& context) {
  std::string problem = CheckProperties(got, context);
  if (problem.empty()) problem = CompareAnswers(got, want);
  return problem;
}

namespace {

// Remaps the first mapping entry of `match` to a column whose gene differs
// from every gene of the mapping. False when the source has no such column.
bool MapToWrongLabel(QueryMatch* match, const AnswerContext& context) {
  const std::vector<GeneId>& genes = (*context.source_genes)[match->source];
  for (uint32_t column = 0; column < genes.size(); ++column) {
    const bool label_in_query = std::binary_search(
        context.query_genes.begin(), context.query_genes.end(), genes[column]);
    if (!label_in_query) {
      match->mapping.front().second = column;
      return true;
    }
  }
  return false;
}

}  // namespace

int CountUndetectedCorruptions(const std::vector<QueryMatch>& good,
                               const AnswerContext& context,
                               const AnswerChecker& check) {
  struct Corruption {
    const char* name;
    std::vector<QueryMatch> answer;
  };
  std::vector<Corruption> corruptions;

  Corruption dropped{"dropped match", good};
  dropped.answer.pop_back();
  corruptions.push_back(std::move(dropped));

  Corruption perturbed{"perturbed probability", good};
  double& probability = perturbed.answer.front().probability;
  probability = std::nextafter(probability, 0.0);
  corruptions.push_back(std::move(perturbed));

  Corruption wrong_label{"mapping to a wrong-label column", good};
  if (!MapToWrongLabel(&wrong_label.answer.back(), context)) {
    std::fprintf(stderr, "self-test: no wrong-label column to map to\n");
    return 4;
  }
  corruptions.push_back(std::move(wrong_label));

  Corruption missing{"sharded answer missing one source", good};
  const SourceId lost = missing.answer.front().source;
  std::erase_if(missing.answer,
                [lost](const QueryMatch& m) { return m.source == lost; });
  corruptions.push_back(std::move(missing));

  int undetected = 0;
  for (const Corruption& corruption : corruptions) {
    if (check(corruption.answer).empty()) {
      std::fprintf(stderr, "self-test: checker accepted a %s\n",
                   corruption.name);
      ++undetected;
    }
  }
  return undetected;
}

}  // namespace perfbench
}  // namespace imgrn
