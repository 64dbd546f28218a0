// Self-test of the benchmark's own arithmetic and records (ctest
// bench_selftest). Usage: bench_selftest [path/to/BENCHMARK.json]
//
// Covers the percentile and quartile helpers on known vectors, the Poisson
// arrival schedule, the result-record round trip through perf::Json, the
// compare verdicts on synthetic samples, and — given the spec — that
// BENCHMARK.json names exactly the workloads and metrics pf15_bench prints.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "catalog.hpp"
#include "perf/json.hpp"
#include "report.hpp"
#include "stats.hpp"

namespace {

using namespace pf15::bench;
using pf15::perf::Json;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void test_order_statistics() {
  expect_near(percentile({4, 1, 3, 2}, 0.5), 2.5, "p50 of 1..4");
  expect_near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.1,
              "p90 of 1..10");
  expect_near(percentile({7}, 0.99), 7.0, "percentile of one value");
  expect_near(percentile({}, 0.5), 0.0, "percentile of nothing");
  expect_near(median({5, 1, 3}), 3.0, "median of odd count");

  // Values from Python: statistics.quantiles(v, n=4).
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q10[0], 2.75, "Q1 of 1..10");
  expect_near(q10[1], 5.5, "Q2 of 1..10");
  expect_near(q10[2], 8.25, "Q3 of 1..10");
  const auto q8 = quartiles({3, 1, 4, 1, 5, 9, 2, 6});
  expect_near(q8[0], 1.25, "Q1 of 8 values");
  expect_near(q8[1], 3.5, "Q2 of 8 values");
  expect_near(q8[2], 5.75, "Q3 of 8 values");
  const auto q3 = quartiles({30, 10, 20});
  expect_near(q3[0], 10.0, "Q1 of 3 values is the minimum");
  expect_near(q3[2], 30.0, "Q3 of 3 values is the maximum");
  expect_near(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0,
              "IQR share of 1..10");
  expect_near(iqr_share({2, 2, 2, 2}), 0.0, "IQR share of a constant");
}

void test_poisson_schedule() {
  const auto a = poisson_schedule(11, 1000.0, 15.0);
  const auto b = poisson_schedule(11, 1000.0, 15.0);
  const auto c = poisson_schedule(12, 1000.0, 15.0);
  expect(a == b, "the same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i] > a[i - 1];
  expect(sorted && !a.empty() && a.front() >= 0.0 && a.back() < 15.0,
         "due times increase within the window");
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    const double rate =
        static_cast<double>(poisson_schedule(seed, 1000.0, 15.0).size()) / 15.0;
    expect(std::abs(rate / 1000.0 - 1.0) < 0.02,
           "mean rate within 2% for seed " + std::to_string(seed) + ": " +
               std::to_string(rate));
  }
}

void test_result_round_trip() {
  Result r;
  r.workload = "train_hep";
  r.seed = 42;
  r.traced = false;
  r.attempted = 123;
  r.failed = 0;
  r.add("setup_s", 1.2345678901234567, "s", true);
  r.add("img_per_s", 98.76543210987654, "img/s", false);
  r.check(false, "a failed check");
  r.detail.set("note", "kept");

  const Json doc = Json::parse(to_json(r).dump());
  const Result back = result_from_json(doc);
  expect(back.workload == r.workload && back.seed == r.seed &&
             back.traced == r.traced && back.correct == r.correct &&
             back.attempted == r.attempted && back.failed == r.failed,
         "record header round-trips");
  expect(back.problems == r.problems, "failed checks round-trip");
  expect(back.metrics.size() == 2, "both metrics round-trip");
  for (std::size_t i = 0; i < back.metrics.size() && i < 2; ++i) {
    expect(back.metrics[i].name == r.metrics[i].name &&
               back.metrics[i].value == r.metrics[i].value &&
               back.metrics[i].unit == r.metrics[i].unit &&
               back.metrics[i].lower_is_better == r.metrics[i].lower_is_better,
           "metric " + r.metrics[i].name + " round-trips bit for bit");
  }
  expect(back.detail.get("note").as_string() == "kept", "detail round-trips");

  const Json line = Json::parse(summary_line(r));
  expect(line.size() == 4 && line.find("correct") && line.find("attempted") &&
             line.find("failed") && line.find("metrics"),
         "the summary line has exactly correct, attempted, failed, metrics");
  expect(!line.get("correct").as_bool(), "the summary carries correct");
  expect(line.get("metrics").get("img_per_s").get("value").as_number() ==
             98.76543210987654,
         "the summary keeps every digit");
  expect(line.get("metrics").get("setup_s").get("unit").as_string() == "s",
         "the summary carries units");
}

void test_compare_verdicts() {
  const std::vector<double> base = {100, 101, 99, 100.5, 99.5, 100, 101, 99, 100, 100.2};
  auto scaled = [&](double f) {
    std::vector<double> v;
    for (double x : base) v.push_back(x * f);
    return v;
  };
  expect(compare_samples(base, scaled(1.01), true, 0.1).verdict ==
             Verdict::kUnchanged,
         "1% slower within a 10% bound is unchanged");
  expect(compare_samples(base, scaled(1.2), true, 0.1).verdict ==
             Verdict::kRegressed,
         "20% slower beyond a 10% bound is regressed");
  expect(compare_samples(base, scaled(0.8), true, 0.1).verdict ==
             Verdict::kImproved,
         "20% faster on every pair is improved");
  expect(compare_samples(base, scaled(0.8), false, 0.1).verdict ==
             Verdict::kRegressed,
         "20% lower of a higher-is-better metric is regressed");
  expect(compare_samples(base, scaled(1.2), false, 0.1).verdict ==
             Verdict::kImproved,
         "20% higher of a higher-is-better metric is improved");

  const std::vector<double> wide = {60, 140, 80, 120, 100, 70, 130, 90, 110, 100};
  const Comparison noisy = compare_samples(base, wide, true, 0.1);
  expect(noisy.verdict == Verdict::kUnresolved,
         "a spread wider than the bound is unresolved");
  expect(noisy.spread > 0.1, "the spread is reported");

  const Comparison half = compare_samples({10, 10, 10, 10}, {9, 11, 9, 11}, true, 0.25);
  expect_near(half.pair_wins_b, 0.5, "pair wins count each pair once");
}

void test_spec(const std::string& path) {
  const Json spec = Json::read_file(path);
  const Json& workloads = spec.get("workloads");
  expect(workloads.size() == workload_names().size(), "spec names every workload");
  for (std::size_t i = 0; i < workloads.size() && i < workload_names().size(); ++i) {
    expect(workloads.at(i).get("name").as_string() == workload_names()[i],
           "spec workload " + std::to_string(i) + " is " + workload_names()[i]);
  }
  auto same = [&](const char* key, const std::vector<MetricSpec>& specs) {
    const Json& list = spec.get(key);
    expect(list.size() == specs.size(),
           std::string(key) + " lists " + std::to_string(specs.size()) + " metrics");
    for (std::size_t i = 0; i < list.size() && i < specs.size(); ++i) {
      const Json& m = list.at(i);
      expect(m.get("name").as_string() == specs[i].name &&
                 m.get("unit").as_string() == specs[i].unit &&
                 (m.get("better").as_string() == "lower") == specs[i].lower_is_better,
             std::string(key) + " entry " + specs[i].name + " matches the program");
    }
  };
  same("end_to_end", end_to_end_metrics());
  same("per_layer", per_layer_metrics());

  double setup_bound = 0.0, largest_other = 0.0;
  for (const Bound& b : load_bounds(path)) {
    expect(b.bound > 0.0 && b.bound <= 0.25, b.name + " bound within (0, 0.25]");
    if (b.name == "setup_s") {
      setup_bound = b.bound;
    } else {
      largest_other = std::max(largest_other, b.bound);
    }
  }
  expect(setup_bound >= largest_other, "setup_s carries the largest bound");
}

}  // namespace

int main(int argc, char** argv) {
  test_order_statistics();
  test_poisson_schedule();
  test_result_round_trip();
  test_compare_verdicts();
  if (argc > 1) test_spec(argv[1]);
  if (g_failures == 0) {
    std::printf("bench_selftest: all checks passed\n");
    return 0;
  }
  std::printf("bench_selftest: %d checks failed\n", g_failures);
  return 1;
}
