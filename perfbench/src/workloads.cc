// The three workloads and the run that measures them.
//
// Every run has the same shape:
//   1. generate the documents into a file in a fresh run directory
//      (not timed: document generation is not set-up);
//   2. set-up, timed as setup_s from process start minus step 1: build
//      the index from the file, select the initial lists, warm up;
//   3. the measured phase: a closed loop of C clients, each with one
//      query outstanding on a QueryExecutor of C workers, for --seconds;
//      on neardup_shift_ingest one of the C is a writer that inserts
//      documents and ticks the advisor at fixed completed-query counts;
//   4. compute the references of the checked queries (ERA rankings) on
//      the built state and recount them from the XML text (before step 3
//      when a writer changes the state during it), then check every
//      stored answer against the reference of its state;
//   5. with --trace 1, a single-threaded pass that calls each layer's
//      public functions under spans and reads counter deltas around them;
//   6. (ieee_cold_era, zipf_hot_topk) an ingest tail of insert + tick
//      rounds, each checked, so insert and tick latency are measured on
//      every collection.
#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "advisor/advisor.h"
#include "bench.h"
#include "common/clock.h"
#include "corpus/adversarial.h"
#include "corpus/ieee_generator.h"
#include "corpus/vocabulary.h"
#include "corpus/workload_zoo.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "oracle.h"
#include "retrieval/materializer.h"
#include "retrieval/strategy.h"
#include "spans.h"
#include "text/tokenizer.h"
#include "trex/query_executor.h"
#include "trex/trex.h"
#include "xml/reader.h"

namespace perfbench {

using trex::DocId;
using trex::Result;
using trex::Status;

namespace {

// Captured during static initialization, i.e. at process start.
const int64_t kProcessStartNanos = trex::NowNanos();

// Seed of every workload's query set. The collections keep their
// generators' default seeds as well, so every --seed measures the same
// queries over the same documents: what a seed changes is the order of
// the stream, and with it when each insert and tick lands, and the words
// planted in the inserted documents. (Per-seed collections and query sets
// moved the medians by 10-30% from seed to seed, more than any bound a
// gate could use.)
constexpr uint64_t kPoolSeed = 7;
// Largest k any stream asks for (the zoo's SampleK and the IEEE shapes
// draw from {5, 10, 20}); references keep ERA's ranking down to it.
constexpr size_t kMaxK = 20;

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Documents, generated once into a file so that building from them
// measures the index and not the generator, and so that they do not sit
// in memory.

class DocStore : public trex::DocumentGenerator {
 public:
  ~DocStore() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Create(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) return Status::IOError("cannot create " + path);
    return Status::OK();
  }
  Status Append(const std::string& doc) {
    const uint64_t at = offsets_.back();
    size_t done = 0;
    while (done < doc.size()) {
      ssize_t n = ::pwrite(fd_, doc.data() + done, doc.size() - done,
                           static_cast<off_t>(at + done));
      if (n <= 0) return Status::IOError("document store write failed");
      done += static_cast<size_t>(n);
    }
    offsets_.push_back(at + doc.size());
    return Status::OK();
  }

  std::string Generate(DocId docid) const override {
    const uint64_t begin = offsets_[docid];
    std::string doc(offsets_[docid + 1] - begin, '\0');
    size_t done = 0;
    while (done < doc.size()) {
      ssize_t n = ::pread(fd_, doc.data() + done, doc.size() - done,
                          static_cast<off_t>(begin + done));
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    return doc;
  }
  // The documents the index builder sees; the rest are held out.
  size_t num_documents() const override { return built_; }
  void set_num_documents(size_t n) { built_ = n; }
  uint64_t bytes() const { return offsets_.back(); }

 private:
  int fd_ = -1;
  std::vector<uint64_t> offsets_{0};
  size_t built_ = 0;
};

// A run directory under .bench_tmp/ in the working directory, removed
// with everything in it when the run ends, so no index outlives its run.
class RunDir {
 public:
  RunDir() = default;
  ~RunDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;

  bool Create() {
    std::error_code ec;
    std::filesystem::create_directories(".bench_tmp", ec);
    std::string pattern = ".bench_tmp/run-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) return false;
    path_ = pattern;
    return true;
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) +
         static_cast<double>(v[hi]) * frac;
}

// The loop's throughput and latency percentiles over every completion
// of the run: qps is completions over the time from the loop's start to
// the last completion.
struct LoopSummary {
  double qps = 0.0;
  double p50_nanos = 0.0;
  double p99_nanos = 0.0;
};

LoopSummary Summarize(const std::vector<int64_t>& latency,
                      const std::vector<int64_t>& done, int64_t loop_start) {
  if (done.empty()) return LoopSummary{};
  const int64_t span = *std::max_element(done.begin(), done.end()) - loop_start;
  return LoopSummary{
      span > 0 ? static_cast<double>(done.size()) * 1e9 /
                     static_cast<double>(span)
               : 0.0,
      Quantile(latency, 0.50), Quantile(latency, 0.99)};
}

// Inserts `word` into the document's first run of text, so that the
// document is the only one that contains it.
std::string PlantWord(std::string doc, const std::string& word) {
  for (size_t at = doc.find("</"); at != std::string::npos;
       at = doc.find("</", at + 2)) {
    if (at > 0 && doc[at - 1] != '>') {
      doc.insert(at, " " + word);
      return doc;
    }
  }
  return doc;
}

std::string PlantedWordFor(uint64_t seed, size_t i) {
  std::string word = "qqz";
  for (uint64_t v = seed * 1000 + i + 1; v > 0; v /= 26) {
    word.push_back(static_cast<char>('a' + v % 26));
  }
  return word + "vox";
}

// ---------------------------------------------------------------------
// Workload designs.

struct Query {
  std::string nexi;
  size_t k = 10;
};

struct Design {
  std::unique_ptr<trex::DocumentGenerator> generator;
  size_t num_documents = 0;
  size_t held_out = 0;
  trex::IndexOptions index_options;
  std::vector<Query> queries;  // Distinct (nexi, k) pairs.
  // Query ids per topic; a stream position draws topics[t][draw % size].
  std::vector<std::vector<uint32_t>> topics;
  std::vector<uint32_t> draws;
  // Zipf skew of the draws over topic 0's pool ranks; 0 = uniform.
  double theta = 0.0;
  uint64_t topic_every = 0;  // Completed queries per topic; 0 = one topic.
  // Queries whose answers are stored and checked, and recounted.
  std::vector<uint32_t> checked;
  // Queries the ingest events check (and the tail records for the
  // advisor); empty = the current topic's.
  std::vector<uint32_t> event_queries;
  std::string planted_query;  // printf pattern with one %s.

  size_t clients = 4;  // Reader clients = executor workers.
  size_t warmup_queries = 0;
  // Offline §4 selection at set-up (zipf_hot_topk).
  bool offline_self_manage = false;
  trex::SelfManagerOptions manager;
  // Online self-management: interleaved writer (neardup_shift_ingest)
  // or an ingest tail after the loop (the others).
  bool interleaved_writer = false;
  uint64_t insert_every = 0;  // Completed queries per insert and per tick.
  // Ticks fall this many completed queries after the inserts: until
  // then, the queries whose lists an insert dropped run ERA.
  uint64_t tick_offset = 0;
  size_t tail_rounds = 0;
  uint64_t advisor_budget = 0;
  size_t traced_queries = 0;  // Queries in the traced layer pass.
};

std::vector<Query> IeeeQueries(uint64_t seed, size_t count) {
  // Table 1's five IEEE query shapes (Q202, Q203, Q233, Q260, Q270) with
  // their term counts, filled with planted query keywords and
  // background words.
  static const char* const kShapes[] = {
      "//article[about(., %0)]//sec[about(., %0 %1 %2)]",
      "//sec[about(., %0 %1 %2)]",
      "//article[about(.//bdy, %0) and about(.//bdy, %1)]",
      "//bdy//*[about(., %0 %1 %2 %3 %4)]",
      "//article//sec[about(., %0 %1 %2)]",
  };
  // Shape weights out of 20: Q260's //bdy//* scans every extent under
  // bdy and costs about five times the others, so it is drawn less.
  static const int kWeight[] = {5, 5, 3, 2, 5};
  static const size_t kK[] = {5, 10, 20};
  const std::vector<trex::PlantedTerm> planted =
      trex::DefaultIeeePlantedTerms();
  trex::Rng rng(seed);
  std::set<std::string> seen;
  std::vector<Query> out;
  while (out.size() < count) {
    // Shapes follow a fixed cycle of 20, so every seed draws the same
    // mix of shapes.
    int shape = 0;
    for (int w = static_cast<int>(out.size() % 20); w >= kWeight[shape];) {
      w -= kWeight[shape++];
    }
    std::string nexi = kShapes[shape];
    std::string terms[5];
    for (std::string& t : terms) {
      t = rng.Bernoulli(0.6)
              ? planted[rng.Uniform(planted.size())].word
              : trex::Vocabulary::WordForRank(200 + rng.Uniform(4000));
    }
    for (int slot = 0; slot < 5; ++slot) {
      std::string marker = "%";
      marker += std::to_string(slot);
      for (size_t at = nexi.find(marker); at != std::string::npos;
           at = nexi.find(marker)) {
        nexi.replace(at, marker.size(), terms[slot]);
      }
    }
    if (!seen.insert(nexi).second) continue;
    out.push_back(Query{nexi, kK[rng.Uniform(3)]});
  }
  return out;
}

// Adds (nexi, k) to the design's distinct queries; returns its id.
uint32_t Intern(Design* d, const trex::ZooQuery& q) {
  for (size_t i = 0; i < d->queries.size(); ++i) {
    if (d->queries[i].nexi == q.nexi && d->queries[i].k == q.k) {
      return static_cast<uint32_t>(i);
    }
  }
  d->queries.push_back(Query{q.nexi, q.k});
  return static_cast<uint32_t>(d->queries.size() - 1);
}

// ieee_cold_era: storage and index iteration do nearly all the work.
// The IEEE-like collection is several times larger than the per-table
// buffer pool, no redundant list exists during the loop, so every query
// runs ERA over the base tables.
Design IeeeColdEra(uint64_t seed) {
  Design d;
  trex::IeeeGeneratorOptions gen;
  gen.num_documents = 1000;
  d.num_documents = gen.num_documents;
  d.generator = std::make_unique<trex::IeeeGenerator>(gen);
  d.held_out = 128;
  d.index_options.aliases = trex::IeeeAliasMap();
  d.index_options.cache_pages = 128;
  d.queries = IeeeQueries(kPoolSeed, 512);
  d.topics.emplace_back();
  for (uint32_t i = 0; i < d.queries.size(); ++i) d.topics[0].push_back(i);
  // Each seed serves the 512 queries in its own order.
  for (uint32_t i = 0; i < d.queries.size(); ++i) d.draws.push_back(i);
  trex::Rng order(Mix(seed, 0x1ee5));
  for (size_t i = d.draws.size() - 1; i > 0; --i) {
    std::swap(d.draws[i], d.draws[order.Uniform(i + 1)]);
  }
  for (uint32_t i = 0; i < 16; ++i) d.checked.push_back(i);
  d.event_queries = {0, 1, 2, 3};
  d.planted_query = "//journal[about(., %s)]";
  d.warmup_queries = 16;
  d.tail_rounds = 128;
  d.advisor_budget = 16ull << 20;
  d.traced_queries = 48;
  return d;
}

// zipf_hot_topk: per-query fixed costs dominate. The ZipfSkew corpus
// fits in the buffer pool, the HotKey stream repeats a 12-query pool
// with Zipf skew, and the offline self-manager materializes the pool's
// lists at set-up, so queries run TA or Merge.
Design ZipfHotTopk(uint64_t seed) {
  Design d;
  trex::ZipfSkewOptions gen;
  // Large enough for a set-up of most of a second: shorter set-ups were
  // decided by single spells of load on a shared machine (README.md).
  gen.num_documents = 2400;
  d.num_documents = gen.num_documents;
  d.generator = std::make_unique<trex::ZipfSkewGenerator>(gen);
  d.held_out = 240;
  trex::HotKeyStream stream(trex::ZipfSkewProfile(), kPoolSeed);
  trex::Rng order(Mix(seed, 0x40));
  d.topics.emplace_back();
  for (const trex::ZooQuery& q : stream.pool()) {
    d.topics[0].push_back(Intern(&d, q));
  }
  // Pool rank r is drawn with the stream's Zipf weights.
  d.theta = trex::HotKeyOptions{}.theta;
  trex::ZipfSampler sampler(stream.pool().size(), d.theta);
  for (size_t i = 0; i < (1u << 20); ++i) {
    d.draws.push_back(static_cast<uint32_t>(sampler.Sample(&order)));
  }
  for (uint32_t i = 0; i < d.queries.size(); ++i) d.checked.push_back(i);
  d.event_queries = d.checked;
  d.planted_query = "//doc[about(., %s)]";
  d.warmup_queries = 2000;
  d.offline_self_manage = true;
  // Estimated costs: they rate TA dearer than Merge at equal bytes, so
  // the plan holds ERPLs only and the loop runs Merge. Measured costs
  // pick RPLs, but TA then returns a wrong score on one pool query (see
  // CHANGES.md, FOUND) a seed-dependent number of times, and the plan
  // itself varies from run to run.
  d.manager.costs = trex::SelfManagerOptions::Costs::kEstimated;
  d.manager.disk_budget_bytes = 64ull << 20;
  d.tail_rounds = 240;
  d.advisor_budget = 64ull << 20;
  d.traced_queries = 2000;
  return d;
}

// neardup_shift_ingest: writes beside reads. NearDuplicate documents
// under ShiftingTopic queries; one writer inserts held-out near
// duplicates (each drops the current topic's lists) and ticks the online
// advisor, while C-1 readers query.
Design NeardupShiftIngest(uint64_t seed) {
  Design d;
  trex::NearDuplicateOptions gen;
  // Sized for the set-up's length, as zipf_hot_topk's collection.
  gen.num_documents = 4000;
  // Forty prototypes instead of the zoo's eight: each inserted document
  // clones one of them, so with eight a seed's inserts (and the lists
  // they drop) would hinge on which few clone families it hits.
  gen.num_prototypes = 40;
  d.num_documents = gen.num_documents;
  d.generator = std::make_unique<trex::NearDuplicateGenerator>(gen);
  d.held_out = 300;
  trex::ShiftingTopicStream stream(trex::NearDuplicateProfile(), kPoolSeed);
  d.topics.resize(2);
  for (const trex::ZooQuery& q : stream.topic_a()) {
    d.topics[0].push_back(Intern(&d, q));
  }
  for (const trex::ZooQuery& q : stream.topic_b()) {
    d.topics[1].push_back(Intern(&d, q));
  }
  trex::Rng rng(Mix(seed, 0x42));
  for (size_t i = 0; i < (1u << 16); ++i) {
    d.draws.push_back(static_cast<uint32_t>(rng.Uniform(1u << 16)));
  }
  d.topic_every = 1000;
  for (uint32_t i = 0; i < d.queries.size(); ++i) d.checked.push_back(i);
  d.planted_query = "//sec[about(., %s)]";
  d.clients = 3;
  d.warmup_queries = 200;
  d.interleaved_writer = true;
  d.insert_every = 500;
  d.tick_offset = 50;
  d.advisor_budget = 4ull << 20;
  d.traced_queries = 400;
  return d;
}

// The share of draws that pick each query of topic 0, from the stream's
// distribution rather than from a seed's draws.
std::map<uint32_t, double> DrawShares(const Design& d) {
  std::map<uint32_t, double> share;
  const std::vector<uint32_t>& pool = d.topics[0];
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    const double w = 1.0 / std::pow(static_cast<double>(r + 1), d.theta);
    share[pool[r]] += w;
    total += w;
  }
  for (auto& [q, w] : share) w /= total;
  return share;
}

Design MakeDesign(const std::string& name, uint64_t seed) {
  if (name == "ieee_cold_era") return IeeeColdEra(seed);
  if (name == "zipf_hot_topk") return ZipfHotTopk(seed);
  return NeardupShiftIngest(seed);
}

// ---------------------------------------------------------------------
// The run.

struct AnswerKey {
  uint32_t query;
  uint64_t version_lo;
  uint64_t version_hi;
  uint64_t fingerprint;
  friend bool operator<(const AnswerKey& a, const AnswerKey& b) {
    return std::tie(a.query, a.version_lo, a.version_hi, a.fingerprint) <
           std::tie(b.query, b.version_lo, b.version_hi, b.fingerprint);
  }
};

struct StoredAnswer {
  std::vector<ScoredElement> elements;
  uint64_t occurrences = 0;
};

struct ClientStats {
  // Deques grow chunk by chunk, so the samples add to peak_rss_mb in
  // proportion to their number; a vector's capacity doubling would make
  // it jump with the run's query count.
  std::deque<int64_t> latency_nanos;
  std::deque<int64_t> done_nanos;  // Completion times, same order.
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t by_method[3] = {0, 0, 0};
  trex::obs::ResourceUsage usage;
  int64_t held_nanos = 0;  // Waiting for the writer's schedule.
  // Guards the two fields below, which the writer reads to check stored
  // answers while the loop runs.
  std::mutex mu;
  std::map<AnswerKey, StoredAnswer> answers;
  // Lowest state a checked query in flight may have seen; none: max.
  uint64_t inflight_state = UINT64_MAX;
};

void AddUsage(const trex::obs::ResourceUsage& u, trex::obs::ResourceUsage* s) {
  s->pages_fetched += u.pages_fetched;
  s->pages_faulted += u.pages_faulted;
  s->bytes_read += u.bytes_read;
  s->bytes_decoded += u.bytes_decoded;
  s->list_fragments += u.list_fragments;
  s->blocks_decoded += u.blocks_decoded;
  s->blocks_skipped += u.blocks_skipped;
  s->postings_scanned += u.postings_scanned;
  s->sorted_accesses += u.sorted_accesses;
  s->random_accesses += u.random_accesses;
  s->elements_scanned += u.elements_scanned;
  s->heap_operations += u.heap_operations;
  s->cpu_nanos += u.cpu_nanos;
}

// What the ingest events (inserts and ticks) measured.
struct EventStats {
  std::vector<int64_t> insert_nanos;
  std::vector<int64_t> tick_nanos;
  uint64_t inserts = 0, ticks = 0, failed = 0;
  uint64_t lists_dropped_by_inserts = 0;
  uint64_t bytes_written = 0, commits = 0;
  uint64_t lists_materialized_by_ticks = 0, lists_dropped_by_ticks = 0;
  int64_t parse_nanos = 0, tokenize_nanos = 0;
};

class Run {
 public:
  Run(const RunOptions& options, Design design)
      : options_(options), d_(std::move(design)) {
    if (options_.trace) spans_ = std::make_unique<SpanLog>();
  }

  bool Execute(RunResult* result);

 private:
  bool Fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
    return false;
  }
  void Note(const std::string& what) {
    std::fprintf(stderr, "[perfbench %s %.1fs] %s\n",
                 options_.workload.c_str(),
                 static_cast<double>(trex::NowNanos() - kProcessStartNanos) /
                     1e9,
                 what.c_str());
  }
  // A check failed: count it against the operation, keep a few reasons.
  void CheckFailed(const std::string& what) {
    if (++check_failures_ <= 8) Note("CHECK FAILED: " + what);
  }

  trex::Index* index() { return trex_->index(); }
  Result<trex::TranslatedClause> Translate(uint32_t query);
  bool ComputeReferences(const std::vector<uint32_t>& queries,
                         std::vector<std::vector<ScoredElement>>* rankings);
  bool RecountAndCompare(const std::vector<uint32_t>& queries,
                         const std::vector<std::vector<ScoredElement>>& era);
  std::vector<uint32_t> CurrentEventQueries(uint64_t completed) const;
  uint32_t Pick(uint64_t position, uint64_t completed) const;

  bool Setup();
  void Client(ClientStats* stats);
  void Writer();
  // `mutated` runs once the index mutation is done, before the checks.
  bool Insert(const std::vector<uint32_t>& check,
              const std::function<void()>& mutated = [] {});
  bool Tick(const std::vector<uint32_t>& check,
            const std::function<void()>& mutated = [] {});
  bool CheckEventQueries(const std::vector<uint32_t>& queries,
                         const std::vector<Reference>& refs);
  void SettleAnswers();
  // Online self-management, ticked only by the benchmark.
  bool EnableOnlineAdvisor();
  void RecordTraffic();
  bool TracedPass(std::vector<Metric>* metrics);

  const RunOptions options_;
  Design d_;
  std::unique_ptr<SpanLog> spans_;
  RunDir dir_;
  DocStore store_;
  std::unique_ptr<trex::TReX> trex_;
  std::unique_ptr<Recounter> recounter_;
  size_t inserted_ = 0;
  std::atomic<uint64_t> check_failures_{0};
  uint64_t traced_attempted_ = 0;  // Queries of the traced pass.
  uint64_t traced_failed_ = 0;
  int64_t generation_nanos_ = 0;
  int64_t setup_nanos_ = 0;
  uint64_t index_bytes_ = 0;

  // Index state: bumped to odd before and to even after each insert, so
  // an answer observed between versions v1 and v2 saw one of the states
  // v1/2 .. (v2+1)/2. refs_[s - first_state_] holds ERA references of
  // state s (per query id; unchecked ids stay empty); the states before
  // first_state_ are freed once no stored or in-flight answer needs them.
  std::atomic<uint64_t> version_{0};
  std::deque<std::vector<Reference>> refs_;
  uint64_t first_state_ = 0;
  std::vector<ClientStats>* clients_ = nullptr;
  uint64_t answers_failed_ = 0;  // Stored answers rejected.

  // Measured loop.
  std::atomic<uint64_t> next_position_{0};
  std::atomic<uint64_t> completed_{0};
  // Completed-query threshold of the next writer event whose mutation
  // has not finished. Readers start no query past it, so each insert or
  // tick waits only for the queries in flight: the snapshot lock prefers
  // readers, and readers that kept overlapping would starve the writer.
  std::atomic<uint64_t> due_{UINT64_MAX};
  int64_t loop_end_nanos_ = 0;
  trex::QueryExecutor* executor_ = nullptr;
  EventStats events_;
};

Result<trex::TranslatedClause> Run::Translate(uint32_t query) {
  auto lock = index()->ReaderLock();
  auto translated =
      trex::TranslateNexi(d_.queries[query].nexi, index()->summary(),
                          &index()->aliases(), index()->tokenizer());
  if (!translated.ok()) return translated.status();
  return std::move(translated).value().flattened;
}

// ERA's full rankings of `queries` on the current state; also appends a
// new state to refs_ holding their references.
bool Run::ComputeReferences(const std::vector<uint32_t>& queries,
                            std::vector<std::vector<ScoredElement>>* rankings) {
  rankings->assign(queries.size(), {});
  std::vector<Reference> refs(d_.queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto clause = Translate(queries[i]);
    if (!clause.ok()) return Fail("translate: " + clause.status().ToString());
    Status s = EraRanking(index(), clause.value(), &(*rankings)[i]);
    if (!s.ok()) return Fail("ERA reference: " + s.ToString());
    refs[queries[i]] = Reference((*rankings)[i], kMaxK);
  }
  refs_.push_back(std::move(refs));
  return true;
}

bool Run::RecountAndCompare(
    const std::vector<uint32_t>& queries,
    const std::vector<std::vector<ScoredElement>>& era) {
  std::vector<trex::TranslatedClause> clauses;
  for (uint32_t q : queries) {
    auto clause = Translate(q);
    if (!clause.ok()) return Fail("translate: " + clause.status().ToString());
    clauses.push_back(std::move(clause).value());
  }
  if (recounter_ == nullptr) {
    recounter_ = std::make_unique<Recounter>(
        *index(), [this](DocId d) { return store_.Generate(d); });
  }
  std::vector<std::vector<ScoredElement>> recounted;
  Status s = recounter_->Recount(clauses, d_.num_documents + inserted_,
                                 &recounted);
  if (!s.ok()) return Fail("recount: " + s.ToString());
  bool all_equal = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string diff = CompareRankings(era[i], recounted[i]);
    if (!diff.empty()) {
      CheckFailed("ERA vs recount, " + d_.queries[queries[i]].nexi + ": " +
                  diff);
      all_equal = false;
    }
  }
  return all_equal;
}

uint32_t Run::Pick(uint64_t position, uint64_t completed) const {
  const size_t topic =
      d_.topic_every == 0 ? 0 : (completed / d_.topic_every) % d_.topics.size();
  const std::vector<uint32_t>& pool = d_.topics[topic];
  return pool[d_.draws[position % d_.draws.size()] % pool.size()];
}

std::vector<uint32_t> Run::CurrentEventQueries(uint64_t completed) const {
  if (!d_.event_queries.empty()) return d_.event_queries;
  const size_t topic =
      d_.topic_every == 0 ? 0 : (completed / d_.topic_every) % d_.topics.size();
  std::set<uint32_t> ids(d_.topics[topic].begin(), d_.topics[topic].end());
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

bool Run::Setup() {
  const int64_t setup_start = trex::NowNanos();
  // 1. Documents (held-out ones carry a planted word each).
  if (!dir_.Create()) return Fail("cannot create a run directory");
  const int64_t gen_start = trex::NowNanos();
  Status s = store_.Create(dir_.path() + "/documents.xml");
  for (size_t i = 0; s.ok() && i < d_.num_documents + d_.held_out; ++i) {
    std::string doc = d_.generator->Generate(static_cast<DocId>(i));
    if (i >= d_.num_documents) {
      doc = PlantWord(std::move(doc),
                      PlantedWordFor(options_.seed, i - d_.num_documents));
    }
    s = store_.Append(doc);
  }
  if (!s.ok()) return Fail(s.ToString());
  store_.set_num_documents(d_.num_documents);
  d_.generator.reset();
  const int64_t generated = trex::NowNanos();
  generation_nanos_ = generated - gen_start;

  // 2. Build.
  {
    ScopedSpan span(spans_.get(), "index.build");
    trex::TrexOptions options;
    options.index = d_.index_options;
    auto built = trex::TReX::Build(dir_.path() + "/index", store_, options);
    if (!built.ok()) return Fail("build: " + built.status().ToString());
    trex_ = std::move(built).value();
    s = trex_->index()->Flush();
    if (!s.ok()) return Fail(s.ToString());
  }
  const int64_t built_at = trex::NowNanos();
  index_bytes_ = DirectoryBytes(dir_.path() + "/index");
  {
    std::string sizes;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir_.path() + "/index", ec)) {
      if (entry.file_size(ec) < (1u << 20)) continue;
      sizes += " " + entry.path().filename().string() + "=" +
               std::to_string(entry.file_size(ec) >> 20) + "MiB";
    }
    Note("index files:" + sizes);
  }

  // Initial list selection.
  if (d_.offline_self_manage) {
    ScopedSpan span(spans_.get(), "advisor.self_manage");
    trex::Workload workload;
    for (const auto& [q, w] : DrawShares(d_)) {
      workload.Add(d_.queries[q].nexi, w, d_.queries[q].k);
    }
    s = workload.Validate();
    if (s.ok()) s = workload.Prepare(index());
    trex::SelfManagerReport report;
    if (s.ok()) s = trex_->SelfManage(workload, d_.manager, &report);
    if (!s.ok()) return Fail("self-manage: " + s.ToString());
  }
  if (d_.interleaved_writer && !EnableOnlineAdvisor()) return false;
  const int64_t selected_at = trex::NowNanos();

  // Warm-up: the first topic's queries in turn, the same on every seed
  // (a seed's own draws made the warm-up's mix, and its time, vary from
  // seed to seed), then (online) the first tick.
  {
    ScopedSpan span(spans_.get(), "warmup");
    const std::vector<uint32_t>& pool = d_.topics[0];
    for (size_t i = 0; i < d_.warmup_queries; ++i) {
      const Query& q = d_.queries[pool[i % pool.size()]];
      auto answer = trex_->Query(q.nexi, q.k);
      if (!answer.ok()) return Fail("warm-up: " + answer.status().ToString());
    }
    if (d_.interleaved_writer) {
      s = trex_->advisor_loop()->TickNow();
      if (!s.ok()) return Fail("first tick: " + s.ToString());
    }
  }
  const int64_t ready_at = trex::NowNanos();
  setup_nanos_ = ready_at - kProcessStartNanos - generation_nanos_;
  char phases[160];
  std::snprintf(phases, sizeof(phases),
                "set-up ms: process start %.1f, build %.1f, list selection "
                "%.1f, warm-up %.1f",
                static_cast<double>(setup_start - kProcessStartNanos) / 1e6,
                static_cast<double>(built_at - generated) / 1e6,
                static_cast<double>(selected_at - built_at) / 1e6,
                static_cast<double>(ready_at - selected_at) / 1e6);
  Note(phases);
  return true;
}

void Run::Client(ClientStats* stats) {
  std::vector<bool> checked(d_.queries.size(), false);
  for (uint32_t q : d_.checked) checked[q] = true;
  while (trex::NowNanos() < loop_end_nanos_) {
    // The client decides to issue its next query now; time it holds for
    // the writer's schedule is part of that query's latency.
    const int64_t start = trex::NowNanos();
    if (completed_.load() >= due_.load()) {
      while (completed_.load() >= due_.load() &&
             trex::NowNanos() < loop_end_nanos_) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      stats->held_nanos += trex::NowNanos() - start;
    }
    if (trex::NowNanos() >= loop_end_nanos_) break;
    const uint64_t position = next_position_.fetch_add(1);
    const uint32_t query = Pick(position, completed_.load());
    const Query& q = d_.queries[query];
    if (checked[query]) {
      // Pins the references of the state this query may see (v1 / 2 is
      // at least this) until its answer is stored.
      std::lock_guard<std::mutex> lock(stats->mu);
      stats->inflight_state = version_.load(std::memory_order_acquire) / 2;
    }
    const uint64_t v1 = version_.load(std::memory_order_acquire);
    auto answer = executor_->Submit(q.nexi, q.k).get();
    const int64_t end = trex::NowNanos();
    const uint64_t v2 = version_.load(std::memory_order_acquire);
    completed_.fetch_add(1);
    if (checked[query]) {
      std::lock_guard<std::mutex> lock(stats->mu);
      stats->inflight_state = UINT64_MAX;
      if (answer.ok()) {
        const std::vector<ScoredElement>& elems =
            answer.value().result.elements;
        AnswerKey key{query, v1 / 2, (v2 + 1) / 2, AnswerFingerprint(elems)};
        StoredAnswer& stored = stats->answers[key];
        if (stored.occurrences++ == 0) stored.elements = elems;
      }
    }
    if (spans_ != nullptr) {
      spans_->Add("query", start, end, SpanLog::kNoParent, position);
    }
    stats->latency_nanos.push_back(end - start);
    stats->done_nanos.push_back(end);
    ++stats->completed;
    if (!answer.ok()) {
      ++stats->failed;
      CheckFailed("query " + q.nexi + ": " + answer.status().ToString());
      continue;
    }
    const trex::QueryAnswer& a = answer.value();
    ++stats->by_method[static_cast<int>(a.method)];
    AddUsage(a.resources, &stats->usage);
  }
}

bool Run::CheckEventQueries(const std::vector<uint32_t>& queries,
                            const std::vector<Reference>& refs) {
  bool ok = true;
  for (uint32_t qid : queries) {
    auto clause = Translate(qid);
    if (!clause.ok()) return Fail("translate: " + clause.status().ToString());
    trex::RetrievalResult result;
    trex::RetrievalMethod method = trex::RetrievalMethod::kEra;
    {
      auto lock = index()->ReaderLock();
      trex::Evaluator evaluator(index());
      Status s = evaluator.Evaluate(clause.value(), d_.queries[qid].k,
                                    &result, &method);
      if (!s.ok()) {
        CheckFailed("event query: " + s.ToString());
        ok = false;
        continue;
      }
    }
    const std::string why =
        CheckTopK(result.elements, d_.queries[qid].k, refs[qid]);
    if (!why.empty()) {
      CheckFailed(std::string(trex::RetrievalMethodName(method)) + " " +
                  d_.queries[qid].nexi + ": " + why);
      ok = false;
    }
  }
  return ok;
}

bool Run::Insert(const std::vector<uint32_t>& check,
                 const std::function<void()>& mutated) {
  const size_t slot = d_.num_documents + inserted_;
  const std::string doc = store_.Generate(static_cast<DocId>(slot));
  const std::string word = PlantedWordFor(options_.seed, inserted_);
  ScopedSpan insert_span(spans_.get(), "ingest.insert");
  if (spans_ != nullptr) {
    // The reader and tokenizer over the inserted document, called from
    // here: their share of what AddDocument does.
    trex::Tokenizer tokenizer(index()->tokenizer().options());
    std::vector<std::string> texts;
    std::vector<size_t> offsets;
    {
      ScopedSpan span(spans_.get(), "xml.parse", insert_span.id());
      const int64_t t0 = trex::NowNanos();
      trex::XmlReader reader(doc);
      trex::XmlEvent event;
      while (reader.Next(&event).ok() &&
             event.type != trex::XmlEventType::kEndDocument) {
        if (event.type == trex::XmlEventType::kText) {
          texts.push_back(event.text);
          offsets.push_back(event.offset);
        }
      }
      events_.parse_nanos += trex::NowNanos() - t0;
    }
    {
      ScopedSpan span(spans_.get(), "text.tokenize", insert_span.id());
      const int64_t t0 = trex::NowNanos();
      std::vector<trex::TokenOccurrence> occurrences;
      for (size_t i = 0; i < texts.size(); ++i) {
        tokenizer.Tokenize(texts[i], offsets[i], &occurrences);
      }
      events_.tokenize_nanos += trex::NowNanos() - t0;
    }
  }

  auto catalog_size = [this]() -> size_t {
    auto lock = index()->ReaderLock();
    auto entries = index()->catalog()->List();
    return entries.ok() ? entries.value().size() : 0;
  };
  const size_t lists_before = catalog_size();
  const trex::obs::MetricsSnapshot before = trex_->Metrics();
  version_.fetch_add(1, std::memory_order_acq_rel);
  const int64_t t0 = trex::NowNanos();
  Result<DocId> docid = [&] {
    ScopedSpan span(spans_.get(), "index.add_document", insert_span.id());
    return trex_->AddDocument(doc);
  }();
  const int64_t elapsed = trex::NowNanos() - t0;
  version_.fetch_add(1, std::memory_order_acq_rel);
  mutated();
  const trex::obs::MetricsSnapshot after = trex_->Metrics();
  ++events_.inserts;
  if (!docid.ok()) {
    ++events_.failed;
    CheckFailed("insert: " + docid.status().ToString());
    return false;
  }
  ++inserted_;
  events_.insert_nanos.push_back(elapsed);
  const size_t lists_after = catalog_size();
  events_.lists_dropped_by_inserts +=
      lists_before > lists_after ? lists_before - lists_after : 0;
  events_.bytes_written += after.counter("storage.pager.bytes_written") -
                           before.counter("storage.pager.bytes_written");
  events_.commits += after.counter("storage.pager.commits") -
                     before.counter("storage.pager.commits");

  // Checks on the new state.
  bool ok = true;
  if (docid.value() != static_cast<DocId>(slot)) {
    CheckFailed("insert returned docid " + std::to_string(docid.value()) +
                ", expected " + std::to_string(slot));
    ok = false;
  }
  std::vector<uint32_t> ref_queries =
      d_.interleaved_writer ? d_.checked : check;
  std::vector<std::vector<ScoredElement>> rankings;
  if (!ComputeReferences(ref_queries, &rankings)) return false;
  SettleAnswers();
  {
    char nexi[256];
    std::snprintf(nexi, sizeof(nexi), d_.planted_query.c_str(), word.c_str());
    auto lock = index()->ReaderLock();
    auto translated = trex::TranslateNexi(nexi, index()->summary(),
                                          &index()->aliases(),
                                          index()->tokenizer());
    trex::RetrievalResult result;
    Status s = translated.status();
    if (s.ok()) {
      trex::Evaluator evaluator(index());
      s = evaluator.Evaluate(translated.value().flattened, 10, &result);
    }
    const std::string why =
        s.ok() ? CheckHasDocument(result.elements, docid.value())
               : s.ToString();
    if (!why.empty()) {
      CheckFailed(std::string("planted term ") + nexi + ": " + why);
      ok = false;
    }
  }
  ok = CheckEventQueries(check, refs_.back()) && ok;
  std::vector<std::vector<ScoredElement>> checked_rankings;
  for (uint32_t q : check) {
    const auto at = std::find(ref_queries.begin(), ref_queries.end(), q);
    checked_rankings.push_back(rankings[at - ref_queries.begin()]);
  }
  ok = RecountAndCompare(check, checked_rankings) && ok;
  if (!ok) ++events_.failed;
  return true;
}

bool Run::Tick(const std::vector<uint32_t>& check,
               const std::function<void()>& mutated) {
  trex::AdvisorTickReport report;
  int64_t elapsed = 0;
  Status s;
  {
    ScopedSpan span(spans_.get(), "advisor.tick");
    const int64_t t0 = trex::NowNanos();
    s = trex_->advisor_loop()->TickNow(&report);
    elapsed = trex::NowNanos() - t0;
  }
  mutated();
  ++events_.ticks;
  if (!s.ok()) {
    ++events_.failed;
    CheckFailed("tick: " + s.ToString());
    return false;
  }
  events_.tick_nanos.push_back(elapsed);
  events_.lists_materialized_by_ticks += report.lists_materialized;
  events_.lists_dropped_by_ticks += report.lists_dropped;
  bool ok = true;
  const std::string over = CheckCatalogBudget(index(), d_.advisor_budget);
  if (!over.empty()) {
    CheckFailed("after tick " + std::to_string(report.tick) + ": " + over);
    ok = false;
  }
  ok = CheckEventQueries(check, refs_.back()) && ok;
  if (!ok) ++events_.failed;
  return true;
}

void Run::Writer() {
  // Events fire in the order of their completed-query thresholds; a
  // writer that falls behind catches up in the same order.
  uint64_t next_insert = d_.insert_every;
  uint64_t next_tick = d_.insert_every + d_.tick_offset;
  auto next_due = [&] {
    return inserted_ < d_.held_out ? std::min(next_insert, next_tick)
                                   : next_tick;
  };
  due_.store(next_due());
  int64_t busy = 0;
  while (trex::NowNanos() < loop_end_nanos_) {
    const bool insert_next =
        next_insert <= next_tick && inserted_ < d_.held_out;
    const uint64_t completed = completed_.load();
    if (completed < (insert_next ? next_insert : next_tick)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const std::vector<uint32_t> check = CurrentEventQueries(completed);
    const int64_t event_start = trex::NowNanos();
    struct Busy {
      int64_t start;
      int64_t* total;
      ~Busy() { *total += trex::NowNanos() - start; }
    } busy_scope{event_start, &busy};
    // The schedule moves on once the mutation is done (released from
    // Insert/Tick before their checks), so readers held at the threshold
    // resume while the writer checks.
    if (insert_next) {
      next_insert += d_.insert_every;
      if (!Insert(check, [&] { due_.store(next_due()); })) break;
    } else {
      next_tick += d_.insert_every;
      if (!Tick(check, [&] { due_.store(next_due()); })) break;
    }
  }
  due_.store(UINT64_MAX);
  int64_t mutations = 0;
  for (int64_t v : events_.insert_nanos) mutations += v;
  for (int64_t v : events_.tick_nanos) mutations += v;
  Note("writer busy " + std::to_string(busy / 1000000) + " ms, " +
       std::to_string(mutations / 1000000) + " ms of it in mutations");
}

// Checks each stored answer whose states all have references, counts
// the rejected ones in answers_failed_, and frees the answers and the
// references that no stored or in-flight answer can still need.
void Run::SettleAnswers() {
  const uint64_t states = first_state_ + refs_.size();
  uint64_t needed = states - 1;  // The newest state is always kept.
  for (ClientStats& c : *clients_) {
    std::map<AnswerKey, StoredAnswer> settled;
    {
      std::lock_guard<std::mutex> lock(c.mu);
      for (auto it = c.answers.begin(); it != c.answers.end();) {
        if (it->first.version_hi < states) {
          settled.insert(c.answers.extract(it++));
        } else {
          needed = std::min(needed, it->first.version_lo);
          ++it;
        }
      }
      needed = std::min(needed, c.inflight_state);
    }
    for (const auto& [key, stored] : settled) {
      std::string why = "no reference";
      for (uint64_t s = std::max(key.version_lo, first_state_);
           s <= key.version_hi && !why.empty(); ++s) {
        why = CheckTopK(stored.elements, d_.queries[key.query].k,
                        refs_[s - first_state_][key.query]);
      }
      if (!why.empty()) {
        answers_failed_ += stored.occurrences;
        CheckFailed(d_.queries[key.query].nexi + " (" +
                    std::to_string(stored.occurrences) + " answers): " + why);
      }
    }
  }
  for (; first_state_ < needed; ++first_state_) refs_.pop_front();
}

bool Run::EnableOnlineAdvisor() {
  trex::TReX::SelfManagementOptions sm;
  sm.load_persisted = false;
  sm.start_background = false;
  sm.loop.manager.disk_budget_bytes = d_.advisor_budget;
  Status s = trex_->EnableSelfManagement(sm);
  if (!s.ok()) return Fail("enable self-management: " + s.ToString());
  return true;
}

// Feeds the advisor's recorder one query of each event query: the
// traffic the tail's next tick plans from. (A tick plans only when new
// traffic arrived since its last plan; see CHANGES.md, FOUND.)
void Run::RecordTraffic() {
  for (uint32_t q : d_.event_queries) {
    trex_->workload_recorder()->Record(d_.queries[q].nexi, d_.queries[q].k);
  }
}

bool Run::TracedPass(std::vector<Metric>* metrics) {
  const uint64_t completed = completed_.load();
  std::vector<uint32_t> sample;
  for (size_t p = 0; p < d_.traced_queries; ++p) {
    sample.push_back(Pick(p, completed));
  }
  const trex::obs::MetricsSnapshot before = trex_->Metrics();
  trex::obs::ResourceUsage usage;
  uint64_t failed = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const Query& q = d_.queries[sample[i]];
    ScopedSpan query_span(spans_.get(), "layers.query", SpanLog::kNoParent,
                          i);
    const int32_t parent = query_span.id();
    trex::obs::ResourceAccounting accounting;
    trex::RetrievalResult result;
    Status s;
    {
      trex::obs::ResourceScope scope(&accounting);
      auto lock = index()->ReaderLock();
      Result<trex::TranslatedQuery> translated = [&] {
        ScopedSpan span(spans_.get(), "nexi.translate", parent, i);
        return trex::TranslateNexi(q.nexi, index()->summary(),
                                   &index()->aliases(), index()->tokenizer());
      }();
      if (!translated.ok()) return Fail(translated.status().ToString());
      const trex::TranslatedClause& clause = translated.value().flattened;
      trex::StrategyDecision decision;
      {
        ScopedSpan span(spans_.get(), "retrieval.strategy", parent, i);
        decision = trex::ChooseStrategy(index(), clause, q.k);
      }
      static const char* const kEvaluate[] = {
          "retrieval.era", "retrieval.ta", "retrieval.merge"};
      {
        ScopedSpan span(spans_.get(),
                        kEvaluate[static_cast<int>(decision.method)], parent,
                        i);
        trex::Evaluator evaluator(index());
        s = evaluator.EvaluateWith(decision.method, clause, q.k, &result);
      }
    }
    if (!s.ok()) return Fail("traced query: " + s.ToString());
    AddUsage(accounting.Usage(), &usage);
    const Reference& ref = refs_.back()[sample[i]];
    if (ref.kmax() != 0) {
      const std::string why = CheckTopK(result.elements, q.k, ref);
      if (!why.empty()) {
        ++failed;
        CheckFailed("traced " + q.nexi + ": " + why);
      }
    }
  }
  const trex::obs::MetricsSnapshot after = trex_->Metrics();
  auto delta = [&](const char* name) {
    return static_cast<double>(after.counter(name) - before.counter(name));
  };
  const double n = static_cast<double>(sample.size());

  // Totals reached by independent paths must agree exactly.
  struct Tally {
    const char* what;
    uint64_t per_query;
    double registry;
  };
  const Tally tallies[] = {
      {"pages fetched vs bufpool hits+misses", usage.pages_fetched,
       delta("storage.bufpool.hits") + delta("storage.bufpool.misses")},
      {"elements scanned vs retrieval.era.elements_scanned",
       usage.elements_scanned, delta("retrieval.era.elements_scanned")},
      {"heap operations vs retrieval.ta.heap_operations",
       usage.heap_operations, delta("retrieval.ta.heap_operations")},
  };
  for (const Tally& t : tallies) {
    if (static_cast<double>(t.per_query) != t.registry) {
      ++failed;
      CheckFailed(std::string("traced totals disagree: ") + t.what + ": " +
                  std::to_string(t.per_query) + " vs " +
                  std::to_string(static_cast<uint64_t>(t.registry)));
    }
  }
  Note("traced pass: sorted accesses " + std::to_string(usage.sorted_accesses) +
       " per query accounting vs " +
       std::to_string(static_cast<uint64_t>(
           delta("retrieval.ta.sorted_accesses") +
           delta("retrieval.merge.sorted_accesses"))) +
       " TA+Merge counters vs " +
       std::to_string(static_cast<uint64_t>(
           delta("index.rpl.entries_read") + delta("index.erpl.entries_read"))) +
       " RPL+ERPL entries read");
  traced_attempted_ += sample.size();
  traced_failed_ += failed;

  auto per_query_us = [&](const char* span) {
    return static_cast<double>(spans_->TotalsFor(span).nanos) / 1e3 / n;
  };
  const double hits = delta("storage.bufpool.hits");
  const double misses = delta("storage.bufpool.misses");
  metrics->push_back({"nexi.translate_us", per_query_us("nexi.translate"),
                      "us/query"});
  metrics->push_back({"retrieval.strategy_us",
                      per_query_us("retrieval.strategy"), "us/query"});
  metrics->push_back(
      {"retrieval.era_ms", per_query_us("retrieval.era") / 1e3, "ms/query"});
  metrics->push_back(
      {"retrieval.ta_ms", per_query_us("retrieval.ta") / 1e3, "ms/query"});
  metrics->push_back({"retrieval.merge_ms",
                      per_query_us("retrieval.merge") / 1e3, "ms/query"});
  metrics->push_back({"index.extent_seeks_per_query",
                      delta("index.elements.extent_seeks") / n, "count"});
  metrics->push_back({"storage.bptree_seeks_per_query",
                      delta("storage.bptree.seeks") / n, "count"});
  metrics->push_back({"storage.page_reads_per_query",
                      delta("storage.pager.page_reads") / n, "count"});
  metrics->push_back({"storage.bufpool_hit_share",
                      hits + misses > 0 ? hits / (hits + misses) : 1.0,
                      "share"});

  // The advisor's recorder, fed from here.
  {
    trex::WorkloadRecorder recorder;
    const int64_t t0 = trex::NowNanos();
    {
      ScopedSpan span(spans_.get(), "advisor.record");
      for (uint32_t q : sample) {
        recorder.Record(d_.queries[q].nexi, d_.queries[q].k);
      }
    }
    metrics->push_back({"advisor.record_us",
                        static_cast<double>(trex::NowNanos() - t0) / 1e3 / n,
                        "us/query"});
  }
  return true;
}

// Plans against the advisor's sketch and re-materializes the event
// queries' lists, both timed from here; the run ends after this.
bool MeasureAdvisorWork(trex::TReX* trex, const Design& d,
                        const std::vector<uint32_t>& queries, SpanLog* spans,
                        std::vector<Metric>* metrics) {
  trex::Workload workload = trex->workload_recorder()->Snapshot(64);
  Status s = workload.Validate();
  if (s.ok()) s = workload.Prepare(trex->index());
  if (!s.ok()) return false;
  trex::SelfManagerOptions options = d.manager;
  options.costs = trex::SelfManagerOptions::Costs::kEstimated;
  options.disk_budget_bytes = d.advisor_budget;
  trex::SelectionInstance instance;
  trex::SelectionResult result;
  int64_t plan_nanos = 0;
  {
    ScopedSpan span(spans, "advisor.plan");
    const int64_t t0 = trex::NowNanos();
    auto lock = trex->index()->ReaderLock();
    s = trex::SelfManager(trex->index(), options)
            .Plan(workload, &instance, &result);
    plan_nanos = trex::NowNanos() - t0;
  }
  if (!s.ok()) return false;
  metrics->push_back(
      {"advisor.plan_ms", static_cast<double>(plan_nanos) / 1e6, "ms"});

  int64_t materialize_nanos = 0;
  size_t lists = 0;
  for (uint32_t q : queries) {
    trex::TranslatedClause clause;
    {
      auto lock = trex->index()->ReaderLock();
      auto translated = trex::TranslateNexi(
          d.queries[q].nexi, trex->index()->summary(),
          &trex->index()->aliases(), trex->index()->tokenizer());
      if (!translated.ok()) return false;
      clause = translated.value().flattened;
    }
    s = trex::DropUnits(trex->index(), trex::UnitsForClause(clause, true, true));
    if (!s.ok()) return false;
    trex::MaterializeStats stats;
    ScopedSpan span(spans, "index.materialize");
    const int64_t t0 = trex::NowNanos();
    s = trex->MaterializeFor(d.queries[q].nexi, true, true, &stats);
    materialize_nanos += trex::NowNanos() - t0;
    if (!s.ok()) return false;
    lists += stats.lists_written;
  }
  metrics->push_back({"index.materialize_ms_per_list",
                      lists == 0 ? 0.0
                                 : static_cast<double>(materialize_nanos) /
                                       1e6 / static_cast<double>(lists),
                      "ms"});
  return true;
}

bool Run::Execute(RunResult* result) {
  if (!Setup()) return false;
  Note("set-up " + std::to_string(static_cast<double>(setup_nanos_) / 1e9) +
       " s (documents generated in " +
       std::to_string(static_cast<double>(generation_nanos_) / 1e9) +
       " s, " + std::to_string(store_.bytes() >> 20) + " MiB); index " +
       std::to_string(index_bytes_ >> 20) + " MiB");

  // References and the recount of the checked queries on the built
  // state: before the loop when a writer changes the state during it,
  // after it otherwise (so the oracle's memory stays out of peak_rss_mb).
  auto check_built_state = [&] {
    std::vector<std::vector<ScoredElement>> rankings;
    if (!ComputeReferences(d_.checked, &rankings)) return false;
    RecountAndCompare(d_.checked, rankings);
    Note("built state checked");
    return true;
  };
  if (d_.interleaved_writer && !check_built_state()) return false;

  // The measured loop.
  const trex::obs::MetricsSnapshot before = trex_->Metrics();
  std::vector<ClientStats> clients(d_.clients);
  clients_ = &clients;
  int64_t loop_start = 0;
  {
    trex::QueryExecutor executor(trex_.get(), d_.clients);
    executor_ = &executor;
    loop_start = trex::NowNanos();
    loop_end_nanos_ = loop_start + int64_t{options_.seconds} * 1000000000;
    std::vector<std::thread> threads;
    for (ClientStats& c : clients) {
      threads.emplace_back([this, &c] { Client(&c); });
    }
    if (d_.interleaved_writer) Writer();
    for (std::thread& t : threads) t.join();
    executor_ = nullptr;
  }
  const trex::obs::MetricsSnapshot after = trex_->Metrics();
  const double peak_rss = PeakRssMiB();

  uint64_t completed = 0, failed = 0;
  int64_t held_nanos = 0;
  std::vector<int64_t> latency, done;
  uint64_t by_method[3] = {0, 0, 0};
  trex::obs::ResourceUsage usage;
  for (ClientStats& c : clients) {
    completed += c.completed;
    failed += c.failed;
    latency.insert(latency.end(), c.latency_nanos.begin(),
                   c.latency_nanos.end());
    done.insert(done.end(), c.done_nanos.begin(), c.done_nanos.end());
    for (int m = 0; m < 3; ++m) by_method[m] += c.by_method[m];
    held_nanos += c.held_nanos;
    AddUsage(c.usage, &usage);
  }
  if (!d_.interleaved_writer && !check_built_state()) return false;
  SettleAnswers();
  failed += answers_failed_;
  clients.clear();
  {
    auto h = after.histograms.find("index.snapshot.write_wait_nanos");
    if (h != after.histograms.end()) {
      Note("write lock waits: " + std::to_string(h->second.count) + " sum " +
           std::to_string(h->second.sum / 1000000) + " ms");
    }
  }
  Note(std::to_string(completed) + " queries (ERA " +
       std::to_string(by_method[0]) + ", TA " + std::to_string(by_method[1]) +
       ", Merge " + std::to_string(by_method[2]) + "), " +
       std::to_string(events_.inserts) + " inserts, " +
       std::to_string(events_.ticks) + " ticks during the loop; readers held " +
       std::to_string(held_nanos / 1000000) + " ms by the write schedule");

  std::vector<Metric> layer;
  if (options_.trace && !d_.interleaved_writer) {
    if (!TracedPass(&layer)) return false;
  }
  if (!d_.interleaved_writer) {
    if (!EnableOnlineAdvisor()) return false;
    for (size_t r = 0; r < d_.tail_rounds; ++r) {
      if (!Insert(d_.event_queries)) return false;
      RecordTraffic();
      if (!Tick(d_.event_queries)) return false;
    }
  }
  if (options_.trace && d_.interleaved_writer) {
    if (!TracedPass(&layer)) return false;
  }
  if (options_.trace &&
      !MeasureAdvisorWork(trex_.get(), d_, CurrentEventQueries(completed),
                          spans_.get(), &layer)) {
    return Fail("advisor measurement failed");
  }

  auto spread = [](const std::vector<int64_t>& v) {
    return std::to_string(Quantile(v, 0.1) / 1e6) + "/" +
           std::to_string(Quantile(v, 0.5) / 1e6) + "/" +
           std::to_string(Quantile(v, 0.9) / 1e6);
  };
  Note("insert ms p10/p50/p90 " + spread(events_.insert_nanos) +
       ", tick ms " + spread(events_.tick_nanos));
  result->attempted =
      completed + events_.inserts + events_.ticks + traced_attempted_;
  result->failed = failed + events_.failed + traced_failed_;
  const double n = static_cast<double>(std::max<uint64_t>(completed, 1));
  // Printed in both modes: the traced run's figures against the
  // untraced run's give the overhead of tracing.
  const LoopSummary loop = Summarize(latency, done, loop_start);
  Note("loop: " + std::to_string(loop.qps) + " queries/s, p50 " +
       std::to_string(loop.p50_nanos / 1e6) + " ms, p99 " +
       std::to_string(loop.p99_nanos / 1e6) + " ms");
  if (!options_.trace) {
    auto& m = result->metrics;
    m.push_back({"setup_s", static_cast<double>(setup_nanos_) / 1e9, "s"});
    m.push_back({"qps", loop.qps, "queries/s"});
    m.push_back({"query_p50_ms", loop.p50_nanos / 1e6, "ms"});
    m.push_back({"query_p99_ms", loop.p99_nanos / 1e6, "ms"});
    m.push_back({"insert_p50_ms", Quantile(events_.insert_nanos, 0.5) / 1e6,
                 "ms"});
    m.push_back({"advisor_tick_ms", Quantile(events_.tick_nanos, 0.5) / 1e6,
                 "ms"});
    m.push_back({"index_bytes", static_cast<double>(index_bytes_), "bytes"});
    m.push_back({"peak_rss_mb", peak_rss, "MiB"});
  } else {
    auto& m = result->metrics;
    auto hist = [&](const char* name) {
      auto b = before.histograms.find(name);
      auto a = after.histograms.find(name);
      const uint64_t sum_after = a == after.histograms.end() ? 0 : a->second.sum;
      const uint64_t sum_before =
          b == before.histograms.end() ? 0 : b->second.sum;
      return static_cast<double>(sum_after - sum_before);
    };
    const double inserts =
        static_cast<double>(std::max<uint64_t>(events_.insert_nanos.size(), 1));
    const double ticks =
        static_cast<double>(std::max<uint64_t>(events_.tick_nanos.size(), 1));
    double insert_total = 0;
    for (int64_t v : events_.insert_nanos) insert_total += v;
    m = layer;
    m.push_back({"retrieval.queries_era", static_cast<double>(by_method[0]),
                 "count"});
    m.push_back({"retrieval.queries_ta", static_cast<double>(by_method[1]),
                 "count"});
    m.push_back({"retrieval.queries_merge", static_cast<double>(by_method[2]),
                 "count"});
    m.push_back({"retrieval.elements_scanned_per_query",
                 usage.elements_scanned / n, "count"});
    m.push_back({"retrieval.heap_ops_per_query", usage.heap_operations / n,
                 "count"});
    m.push_back({"retrieval.sorted_accesses_per_query",
                 usage.sorted_accesses / n, "count"});
    m.push_back({"retrieval.random_accesses_per_query",
                 usage.random_accesses / n, "count"});
    m.push_back({"index.postings_scanned_per_query",
                 usage.postings_scanned / n, "count"});
    m.push_back({"index.blocks_decoded_per_query", usage.blocks_decoded / n,
                 "count"});
    const double blocks =
        static_cast<double>(usage.blocks_decoded + usage.blocks_skipped);
    m.push_back({"index.block_skip_share",
                 blocks > 0 ? usage.blocks_skipped / blocks : 0.0, "share"});
    m.push_back({"index.build_s",
                 static_cast<double>(spans_->TotalsFor("index.build").nanos) /
                     1e9,
                 "s"});
    m.push_back({"index.add_document_ms", insert_total / 1e6 / inserts, "ms"});
    m.push_back({"index.lists_dropped_per_insert",
                 events_.lists_dropped_by_inserts / inserts, "count"});
    m.push_back({"index.snapshot_read_wait_us",
                 hist("index.snapshot.read_wait_nanos") / 1e3 / n,
                 "us/query"});
    m.push_back({"storage.pages_fetched_per_query", usage.pages_fetched / n,
                 "count"});
    m.push_back({"storage.bytes_written_per_insert",
                 events_.bytes_written / inserts, "bytes"});
    m.push_back({"storage.commits_per_insert", events_.commits / inserts,
                 "count"});
    m.push_back({"advisor.lists_materialized_per_tick",
                 events_.lists_materialized_by_ticks / ticks, "count"});
    m.push_back({"advisor.lists_dropped_per_tick",
                 events_.lists_dropped_by_ticks / ticks, "count"});
    {
      auto lock = index()->ReaderLock();
      auto total = index()->catalog()->TotalSizeBytes();
      m.push_back({"advisor.catalog_bytes",
                   total.ok() ? static_cast<double>(total.value()) : 0.0,
                   "bytes"});
    }
    m.push_back({"trex.queue_wait_us",
                 hist("trex.executor.queue_nanos") / 1e3 / n, "us/query"});
    m.push_back({"trex.cpu_us_per_query", usage.cpu_nanos / 1e3 / n, "us"});
    m.push_back({"xml.parse_ms_per_insert",
                 static_cast<double>(events_.parse_nanos) / 1e6 / inserts,
                 "ms"});
    m.push_back({"text.tokenize_ms_per_insert",
                 static_cast<double>(events_.tokenize_nanos) / 1e6 / inserts,
                 "ms"});
    std::error_code ec;
    std::filesystem::create_directories(".bench_spans", ec);
    const std::string path = ".bench_spans/" + options_.workload + "-seed" +
                             std::to_string(options_.seed) + ".jsonl";
    if (spans_->WriteJsonLines(path)) {
      Note("spans written to " + path);
    }
  }
  // Every check reports through CheckFailed: one failed check, of any
  // kind, makes the run incorrect.
  result->correct = check_failures_ == 0;
  if (check_failures_ > 0) {
    Note(std::to_string(check_failures_) + " checks failed");
  }
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "ieee_cold_era", "zipf_hot_topk", "neardup_shift_ingest"};
  return kNames;
}

bool RunWorkload(const RunOptions& options, RunResult* result) {
  Run run(options, MakeDesign(options.workload, options.seed));
  return run.Execute(result);
}

}  // namespace perfbench
