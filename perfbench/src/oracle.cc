#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "retrieval/strategy.h"
#include "text/tokenizer.h"
#include "xml/node.h"
#include "xml/reader.h"

namespace perfbench {

using trex::DocId;
using trex::ElementInfo;
using trex::ElementKey;
using trex::Status;

namespace {

std::string Describe(const ElementInfo& e) {
  return "(sid " + std::to_string(e.sid) + ", doc " + std::to_string(e.docid) +
         ", end " + std::to_string(e.endpos) + ")";
}

uint32_t ScoreBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Enough digits that two different floats never print alike.
std::string ScoreText(float f) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.9g", static_cast<double>(f));
  return text;
}

}  // namespace

Reference::Reference(const std::vector<ScoredElement>& full_ranking,
                     size_t kmax)
    : n_(full_ranking.size()), kmax_(kmax) {
  if (n_ == 0 || kmax == 0) return;
  const float kth = full_ranking[std::min(kmax, n_) - 1].score;
  for (const ScoredElement& e : full_ranking) {
    if (e.score < kth) break;
    where_.emplace_back(ElementKey{e.element.docid, e.element.endpos},
                        static_cast<uint32_t>(prefix_.size()));
    prefix_.push_back(e);
  }
  std::sort(where_.begin(), where_.end());
}

const ScoredElement* Reference::Find(const ElementInfo& e) const {
  const ElementKey key{e.docid, e.endpos};
  auto it = std::lower_bound(
      where_.begin(), where_.end(), key,
      [](const std::pair<ElementKey, uint32_t>& w, const ElementKey& k) {
        return w.first < k;
      });
  return it == where_.end() || !(it->first == key) ? nullptr
                                                   : &prefix_[it->second];
}

std::string CheckTopK(const std::vector<ScoredElement>& answer, size_t k,
                      const Reference& ref) {
  if (k == 0 || k > ref.kmax()) {
    return "k=" + std::to_string(k) + " outside the reference's range";
  }
  const size_t want = std::min(k, ref.n());
  if (answer.size() != want) {
    return "answer has " + std::to_string(answer.size()) +
           " elements, expected min(k, n) = " + std::to_string(want);
  }
  std::set<ElementKey> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    const ScoredElement& a = answer[i];
    if (!seen.insert(ElementKey{a.element.docid, a.element.endpos}).second) {
      return "element " + Describe(a.element) + " appears twice";
    }
    const ScoredElement* r = ref.Find(a.element);
    if (r == nullptr) {
      return "element " + Describe(a.element) +
             " is not among ERA's leading answers";
    }
    if (!(r->element == a.element)) {
      return "element " + Describe(a.element) + " differs from ERA's " +
             Describe(r->element);
    }
    if (ScoreBits(r->score) != ScoreBits(a.score)) {
      return "element " + Describe(a.element) + " scored " +
             ScoreText(a.score) + ", ERA scores it " +
             ScoreText(r->score);
    }
    // Rank by rank the scores are ERA's: so they do not increase, and no
    // element ERA scores above the k-th score is missing (only ties at
    // it may be broken otherwise).
    if (ScoreBits(ref.prefix()[i].score) != ScoreBits(a.score)) {
      return "rank " + std::to_string(i) + " scores " + ScoreText(a.score) +
             ", ERA's rank " + std::to_string(i) + " scores " +
             ScoreText(ref.prefix()[i].score);
    }
  }
  return "";
}

std::string CompareRankings(const std::vector<ScoredElement>& era,
                            const std::vector<ScoredElement>& recount) {
  if (era.size() != recount.size()) {
    return "ERA ranks " + std::to_string(era.size()) +
           " elements, the recount " + std::to_string(recount.size());
  }
  for (size_t i = 0; i < era.size(); ++i) {
    if (!(era[i].element == recount[i].element)) {
      return "rank " + std::to_string(i) + ": ERA has " +
             Describe(era[i].element) + ", the recount " +
             Describe(recount[i].element);
    }
    if (ScoreBits(era[i].score) != ScoreBits(recount[i].score)) {
      return "rank " + std::to_string(i) + ": ERA scores " +
             ScoreText(era[i].score) + ", the recount " +
             ScoreText(recount[i].score);
    }
  }
  return "";
}

std::string CheckCatalogBudget(trex::Index* index, uint64_t budget) {
  auto lock = index->ReaderLock();
  auto total = index->catalog()->TotalSizeBytes();
  if (!total.ok()) return "catalog unreadable: " + total.status().ToString();
  if (total.value() > budget) {
    return "catalog holds " + std::to_string(total.value()) +
           " bytes, budget " + std::to_string(budget);
  }
  return "";
}

std::string CheckHasDocument(const std::vector<ScoredElement>& answer,
                             DocId docid) {
  for (const ScoredElement& e : answer) {
    if (e.element.docid == docid) return "";
  }
  return "no element of document " + std::to_string(docid) +
         " among " + std::to_string(answer.size()) + " answers";
}

Status Recounter::Extract(DocId docid, Facts* facts) {
  const std::string text = documents_(docid);
  trex::Tokenizer tokenizer(index_.tokenizer().options());
  trex::XmlReader reader(text);
  trex::XmlEvent event;
  std::vector<trex::TokenOccurrence> tokens;
  while (true) {
    TREX_RETURN_IF_ERROR(reader.Next(&event));
    if (event.type == trex::XmlEventType::kEndDocument) break;
    if (event.type != trex::XmlEventType::kText) continue;
    tokens.clear();
    tokenizer.Tokenize(event.text, event.offset, &tokens);
    for (const trex::TokenOccurrence& tok : tokens) {
      auto it = terms_.find(tok.term);
      if (it != terms_.end()) {
        facts->occurrences.push_back(Occurrence{tok.offset, it->second});
      }
    }
  }

  // Element spans from the DOM, with aliased root label paths.
  auto dom = trex::ParseXmlDocument(text);
  if (!dom.ok()) return dom.status();
  const trex::AliasMap& aliases = index_.aliases();
  struct Frame {
    const trex::XmlNode* node;
    std::string path;
  };
  std::vector<Frame> stack;
  stack.push_back(
      Frame{dom.value().get(), "/" + aliases.Apply(dom.value()->tag())});
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    for (const auto& child : frame.node->children()) {
      if (child->is_element()) {
        stack.push_back(Frame{child.get(),
                              frame.path + "/" + aliases.Apply(child->tag())});
      }
    }
    auto [path, added] =
        paths_.emplace(frame.path, static_cast<uint32_t>(paths_.size()));
    facts->elements.push_back(Span{path->second, frame.node->start_offset(),
                                   frame.node->end_offset()});
  }
  return Status::OK();
}

Status Recounter::Recount(const std::vector<trex::TranslatedClause>& clauses,
                          size_t num_documents,
                          std::vector<std::vector<ScoredElement>>* rankings) {
  if (index_.summary().kind() != trex::SummaryKind::kIncoming) {
    return Status::NotSupported("the recount needs an incoming summary");
  }
  // A term not extracted yet means every document is read again.
  for (const trex::TranslatedClause& clause : clauses) {
    for (const trex::WeightedTerm& t : clause.terms) {
      if (terms_.emplace(t.term, static_cast<uint32_t>(terms_.size()))
              .second) {
        docs_.clear();
      }
    }
  }
  while (docs_.size() < num_documents) {
    Facts facts;
    TREX_RETURN_IF_ERROR(Extract(static_cast<DocId>(docs_.size()), &facts));
    docs_.push_back(std::move(facts));
  }

  std::vector<uint64_t> doc_freq(terms_.size(), 0);
  std::vector<uint32_t> seen(terms_.size(), UINT32_MAX);
  for (size_t d = 0; d < num_documents; ++d) {
    for (const Occurrence& o : docs_[d].occurrences) {
      if (seen[o.term] != d) {
        seen[o.term] = static_cast<uint32_t>(d);
        ++doc_freq[o.term];
      }
    }
  }

  const trex::Bm25Scorer scorer = index_.scorer();
  rankings->assign(clauses.size(), {});
  for (size_t c = 0; c < clauses.size(); ++c) {
    const trex::TranslatedClause& clause = clauses[c];
    std::vector<uint32_t> term_of;  // Clause term j -> term id.
    for (const trex::WeightedTerm& t : clause.terms) {
      term_of.push_back(terms_.at(t.term));
    }
    std::map<uint32_t, trex::Sid> sid_of_path;
    for (trex::Sid sid : clause.sids) {
      auto path = paths_.find(index_.summary().PathOf(sid));
      if (path != paths_.end()) sid_of_path.emplace(path->second, sid);
    }
    std::vector<ScoredElement>& out = (*rankings)[c];
    std::vector<uint32_t> tf(term_of.size());
    for (size_t d = 0; d < num_documents; ++d) {
      const Facts& facts = docs_[d];
      for (const Span& e : facts.elements) {
        auto sid = sid_of_path.find(e.path);
        if (sid == sid_of_path.end()) continue;
        std::fill(tf.begin(), tf.end(), 0);
        bool any = false;
        auto first = std::lower_bound(
            facts.occurrences.begin(), facts.occurrences.end(), e.start,
            [](const Occurrence& o, uint64_t v) { return o.offset < v; });
        for (auto o = first; o != facts.occurrences.end() && o->offset < e.end;
             ++o) {
          for (size_t j = 0; j < term_of.size(); ++j) {
            if (term_of[j] == o->term) {
              ++tf[j];
              any = true;
            }
          }
        }
        if (!any) continue;
        // Score exactly as ERA does: float accumulation in clause term
        // order.
        const uint64_t length = e.end - e.start;
        float score = 0.0f;
        for (size_t j = 0; j < tf.size(); ++j) {
          if (tf[j] == 0) continue;
          score += clause.terms[j].weight *
                   scorer.Score(tf[j], length, doc_freq[term_of[j]]);
        }
        out.push_back(ScoredElement{
            ElementInfo{sid->second, static_cast<DocId>(d), e.end, length},
            score});
      }
    }
    std::sort(out.begin(), out.end(), trex::ScoredElementGreater);
  }
  return Status::OK();
}

Status EraRanking(trex::Index* index, const trex::TranslatedClause& clause,
                  std::vector<ScoredElement>* out) {
  auto lock = index->ReaderLock();
  trex::Evaluator evaluator(index);
  trex::RetrievalResult result;
  TREX_RETURN_IF_ERROR(
      evaluator.EvaluateWith(trex::RetrievalMethod::kEra, clause, 0, &result));
  *out = std::move(result.elements);
  return Status::OK();
}

uint64_t AnswerFingerprint(const std::vector<ScoredElement>& answer) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  };
  mix(answer.size());
  for (const ScoredElement& e : answer) {
    mix(e.element.sid);
    mix(e.element.docid);
    mix(e.element.endpos);
    mix(e.element.length);
    mix(ScoreBits(e.score));
  }
  return h;
}

}  // namespace perfbench
