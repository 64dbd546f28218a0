// Result records, the span recorder and the run-to-run comparison of the
// pf15 benchmark.
//
// A run produces one Result: the metrics it measured (each with unit and
// direction), the operation counts, the correctness checks that failed,
// and a free-form `detail` document (configuration, provenance, the full
// per-layer ledger). It is written to result.json in the run's private
// directory, and its summary — exactly the keys correct,
// attempted, failed and metrics — is the last line of standard output.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "perf/json.hpp"

namespace pf15::bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool lower_is_better = true;
};

struct Result {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  perf::Json detail = perf::Json::object();

  void add(const std::string& name, double value, const std::string& unit,
           bool lower_is_better);
  /// Records a correctness check; a failed one clears `correct`.
  void check(bool ok, const std::string& what);
  const Metric* find(const std::string& name) const;
};

perf::Json to_json(const Result& r);
/// Inverse of to_json(); throws pf15::IoError on a malformed record.
Result result_from_json(const perf::Json& doc);

/// The one-line summary the benchmark prints last:
/// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
std::string summary_line(const Result& r);

/// Machine and build the numbers were measured on: cores, SIMD tier,
/// compiler, build type and the source revision (PF15_BENCH_GIT_SHA,
/// "unknown" outside a git checkout).
perf::Json provenance();

/// Peak resident set size of this process (VmHWM), MB. 0 if unreadable.
double peak_rss_mb();

/// In-memory span recorder: spans are kept until the run ends and then
/// written as one chrome://tracing document. Thread safe. A disabled
/// recorder keeps nothing, so untraced runs pay one branch per span.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// `cat` is the phase ("fwd", "bwd", ...) or layer of the span; `step`
  /// the step, iteration or request index (-1 for none); `tid` the lane.
  void add(const std::string& name, const std::string& cat,
           Clock::time_point start, Clock::time_point end,
           std::int64_t step = -1, int tid = 0);

  /// Summed duration (ms) of every span with this name and category.
  double sum_ms(const std::string& name, const std::string& cat) const;

  perf::Json chrome_trace() const;

 private:
  struct Span {
    std::string name;
    std::string cat;
    double ts_us;
    double dur_us;
    std::int64_t step;
    int tid;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times a scope into a SpanRecorder (no-op when it is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string_view name, std::string_view cat,
             std::int64_t step = -1, int tid = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::string name_;
  std::string cat_;
  std::int64_t step_;
  int tid_;
  SpanRecorder::Clock::time_point start_;
};

/// One end-to-end metric of BENCHMARK.json.
struct Bound {
  std::string name;
  bool lower_is_better = true;
  double bound = 0.0;
};

/// The end_to_end entries of a BENCHMARK.json document.
std::vector<Bound> load_bounds(const std::string& spec_path);

/// `pf15_bench compare`: for every (end-to-end metric, workload) present
/// in both sets of untraced results, prints medians, quartiles, the
/// pair-win share and the verdict against the metric's bound. Returns the
/// number of pairs whose verdict is regressed or unresolved.
int compare_results(const std::vector<Result>& a, const std::vector<Result>& b,
                    const std::vector<Bound>& bounds, std::string& report);

}  // namespace pf15::bench
