// The TReX benchmark program: one run of one workload.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

// Runs one workload: builds its indexes in a fresh directory under
// .bench_tmp/ (removed afterwards), measures for options.seconds and
// checks every answer. Returns false (with a message on stderr) when the
// run could not complete; check failures are reported in `result`.
bool RunWorkload(const RunOptions& options, RunResult* result);

// Feeds the checks corrupted answers and an over-budget catalog; true
// iff every corruption is rejected and every intact answer accepted.
bool RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
