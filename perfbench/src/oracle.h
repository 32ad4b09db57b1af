// Answer oracles for the benchmark.
//
// Two references define a correct answer, both computed apart from the
// path that served it:
//
//  * Recount — ERA's full ranking recomputed from the XML text alone:
//    element spans from a DOM parse (ParseXmlDocument), term occurrences
//    from the Tokenizer over the reader's text events, and BM25 with the
//    corpus statistics the updater keeps frozen (Index::scorer()). It
//    reads no table of the index: the translated clause's sids are
//    turned into label paths through the in-memory summary, and every
//    element of every document whose aliased root path is one of them
//    is scored.
//  * Top-k validity — in the rank-safe sense of Gog & Petri: an answer
//    of a query with k is valid against ERA's ranking on the same index
//    state when it has min(k, n) elements, no element twice, each with
//    exactly ERA's score for it, in non-increasing score order, and its
//    i-th score is ERA's i-th score for every rank i (so its last score
//    is ERA's k-th, and no element ERA scores above that is missing).
//    TA and Merge may break score ties differently from ERA; anything
//    else is a wrong answer.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "index/index.h"
#include "nexi/translator.h"
#include "retrieval/common.h"

namespace perfbench {

using trex::ScoredElement;

// ERA's ranking of one query on one index state, reduced to what the
// validity check needs: the size n of the full ranking and its leading
// elements down to the score at rank `kmax` (ties at that score
// included). Every valid answer with k <= kmax lies inside that prefix.
class Reference {
 public:
  Reference() = default;
  Reference(const std::vector<ScoredElement>& full_ranking, size_t kmax);

  size_t n() const { return n_; }
  size_t kmax() const { return kmax_; }
  const std::vector<ScoredElement>& prefix() const { return prefix_; }
  // Null when the element is not in the prefix.
  const ScoredElement* Find(const trex::ElementInfo& e) const;

 private:
  size_t n_ = 0;
  size_t kmax_ = 0;
  std::vector<ScoredElement> prefix_;
  // (element, position in prefix_), sorted by element: the writer keeps
  // one Reference per query and index state, so it stays compact.
  std::vector<std::pair<trex::ElementKey, uint32_t>> where_;
};

// "" when `answer` is a valid top-k of `ref`, else why it is not.
std::string CheckTopK(const std::vector<ScoredElement>& answer, size_t k,
                      const Reference& ref);

// "" when two full rankings agree element for element and bit for bit.
std::string CompareRankings(const std::vector<ScoredElement>& era,
                            const std::vector<ScoredElement>& recount);

// "" when the catalog's registered bytes fit in `budget`.
std::string CheckCatalogBudget(trex::Index* index, uint64_t budget);

// "" when `answer` holds an element of document `docid`.
std::string CheckHasDocument(const std::vector<ScoredElement>& answer,
                             trex::DocId docid);

// The recount. `documents(d)` returns the XML text of docid d for every
// d in [0, num_documents). What it extracts from a document (element
// spans with their label paths, occurrences of the terms recounted so
// far) is kept, so a later recount parses only the documents added
// since; documents never change once inserted.
class Recounter {
 public:
  Recounter(const trex::Index& index,
            std::function<std::string(trex::DocId)> documents)
      : index_(index), documents_(std::move(documents)) {}

  // One full ranking per clause, each sorted as ERA sorts
  // (trex::ScoredElementGreater). Fails only on unparsable text.
  trex::Status Recount(const std::vector<trex::TranslatedClause>& clauses,
                       size_t num_documents,
                       std::vector<std::vector<ScoredElement>>* rankings);

 private:
  struct Span {
    uint32_t path;  // Index into paths_.
    uint64_t start, end;
  };
  struct Occurrence {
    uint64_t offset;
    uint32_t term;  // Index into terms_.
  };
  struct Facts {
    std::vector<Span> elements;
    std::vector<Occurrence> occurrences;  // Offset order.
  };
  trex::Status Extract(trex::DocId docid, Facts* facts);

  const trex::Index& index_;
  std::function<std::string(trex::DocId)> documents_;
  std::map<std::string, uint32_t> terms_;
  std::map<std::string, uint32_t> paths_;
  std::vector<Facts> docs_;
};

// ERA's full ranking of `clause` on the index's current state, through
// the evaluator under the index's shared snapshot lock.
trex::Status EraRanking(trex::Index* index,
                        const trex::TranslatedClause& clause,
                        std::vector<ScoredElement>* out);

// Fingerprint of an answer (elements and score bits, in answer order),
// used to keep one copy of each distinct answer for later checking.
uint64_t AnswerFingerprint(const std::vector<ScoredElement>& answer);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
