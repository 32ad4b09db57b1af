// The benchmark's own test: every check must be able to fail.
//
// Builds a small NearDuplicate index, materializes one query's lists,
// and feeds the checks intact answers (which must pass) and corrupted
// ones (which must each be rejected): a dropped element, a perturbed
// score, a top element missing with a tie in its place, an answer out of
// order, an answer from before an insert, an ERA ranking that lost an
// element against the recount, a planted term answered without its
// document, and a catalog over its budget.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "corpus/adversarial.h"
#include "oracle.h"
#include "retrieval/strategy.h"
#include "trex/trex.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool rejected_wanted, const std::string& why,
            const char* what) {
  const bool rejected = !why.empty();
  const bool good = rejected == rejected_wanted;
  std::fprintf(stderr, "[selftest] %-46s %s%s%s\n", what,
               rejected ? "rejected" : "accepted", good ? "" : "  <-- WRONG",
               rejected ? (" (" + why + ")").c_str() : "");
  if (!good) ++failures;
}

}  // namespace

bool RunSelfTest() {
  std::error_code ec;
  std::filesystem::create_directories(".bench_tmp", ec);
  std::string dir = ".bench_tmp/selftest-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) return false;
  struct Cleanup {
    std::string path;
    ~Cleanup() {
      std::error_code e;
      std::filesystem::remove_all(path, e);
    }
  } cleanup{dir};

  trex::NearDuplicateOptions gen_options;
  gen_options.num_documents = 60;
  trex::NearDuplicateGenerator gen(gen_options);
  std::vector<std::string> docs;
  for (trex::DocId d = 0; d < 61; ++d) docs.push_back(gen.Generate(d));
  std::vector<std::string> built(docs.begin(), docs.end() - 1);
  auto opened = trex::TReX::BuildFromDocuments(dir + "/index", built);
  if (!opened.ok()) return false;
  std::unique_ptr<trex::TReX> trex = std::move(opened).value();
  trex::Index* index = trex->index();

  const std::string nexi = "//sec[about(., stencil carbon)]";
  const size_t k = 10;
  auto clause_of = [&]() {
    auto lock = index->ReaderLock();
    return trex::TranslateNexi(nexi, index->summary(), &index->aliases(),
                               index->tokenizer())
        .value()
        .flattened;
  };
  trex::MaterializeStats stats;
  if (!trex->MaterializeFor(nexi, true, true, &stats).ok()) return false;

  std::vector<ScoredElement> era;
  if (!EraRanking(index, clause_of(), &era).ok() || era.size() <= k) {
    return false;
  }
  const Reference ref(era, 20);
  std::vector<std::vector<ScoredElement>> answers;
  for (auto method : {trex::RetrievalMethod::kTa, trex::RetrievalMethod::kMerge}) {
    auto a = trex->QueryWith(method, nexi, k);
    if (!a.ok()) return false;
    answers.push_back(a.value().result.elements);
  }
  Expect(false, CheckTopK(answers[0], k, ref), "intact TA answer");
  Expect(false, CheckTopK(answers[1], k, ref), "intact Merge answer");

  std::vector<ScoredElement> dropped = answers[0];
  dropped.erase(dropped.begin() + 3);
  Expect(true, CheckTopK(dropped, k, ref), "answer with a dropped element");
  std::vector<ScoredElement> replaced = answers[0];
  replaced[3] = era[era.size() - 1];
  Expect(true, CheckTopK(replaced, k, ref), "answer with a low element swapped in");
  std::vector<ScoredElement> perturbed = answers[1];
  perturbed[k - 1].score = std::nextafter(perturbed[k - 1].score, 0.0f);
  Expect(true, CheckTopK(perturbed, k, ref), "answer with a perturbed score");
  {
    // Ties at the k-th score: either tied element completes a top-2, but
    // two tied elements without the higher one do not.
    const std::vector<ScoredElement> ranking = {
        {era[0].element, 0.9f}, {era[1].element, 0.5f},
        {era[2].element, 0.5f}, {era[3].element, 0.1f}};
    const Reference tied(ranking, 20);
    Expect(false, CheckTopK({ranking[0], ranking[2]}, 2, tied),
           "answer breaking a tie the other way");
    Expect(true, CheckTopK({ranking[1], ranking[2]}, 2, tied),
           "answer missing its top element, a tie in");
  }
  std::vector<ScoredElement> reordered = answers[1];
  std::swap(reordered[0], reordered[k - 1]);
  Expect(reordered[0].score != reordered[k - 1].score,
         CheckTopK(reordered, k, ref), "answer out of score order");

  // The recount agrees with ERA, and sees an element go missing.
  Recounter recounter(*index, [&](trex::DocId d) { return docs[d]; });
  std::vector<std::vector<ScoredElement>> recounted;
  if (!recounter.Recount({clause_of()}, built.size(), &recounted).ok()) {
    return false;
  }
  Expect(false, CompareRankings(era, recounted[0]), "ERA ranking vs recount");
  std::vector<ScoredElement> short_era(era.begin() + 1, era.end());
  Expect(true, CompareRankings(short_era, recounted[0]),
         "ERA ranking missing its first element");

  // An answer from before an insert is stale after it.
  auto docid = trex->AddDocument(docs.back());
  if (!docid.ok()) return false;
  std::vector<ScoredElement> era_after;
  if (!EraRanking(index, clause_of(), &era_after).ok()) return false;
  const Reference ref_after(era_after, 20);
  Expect(true, CheckTopK(answers[0], k, ref_after),
         "answer from before an insert");
  auto fresh = trex->Query(nexi, k);
  if (!fresh.ok()) return false;
  Expect(false, CheckTopK(fresh.value().result.elements, k, ref_after),
         "answer after the insert");
  Expect(true, CheckHasDocument(fresh.value().result.elements, 9999),
         "planted term answered without its document");

  // Catalog budget.
  if (!trex->MaterializeFor(nexi, true, true, &stats).ok()) return false;
  Expect(false, CheckCatalogBudget(index, 64ull << 20), "catalog within budget");
  Expect(true, CheckCatalogBudget(index, 16), "catalog over budget");

  std::fprintf(stderr, "[selftest] %s\n",
               failures == 0 ? "every corruption rejected" : "FAILED");
  return failures == 0;
}

}  // namespace perfbench
