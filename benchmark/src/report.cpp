#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/errors.hpp"
#include "gemm/simd.hpp"
#include "stats.hpp"

#ifndef PF15_BENCH_BUILD_TYPE
#define PF15_BENCH_BUILD_TYPE "unknown"
#endif

namespace pf15::bench {

void Result::add(const std::string& name, double value, const std::string& unit,
                 bool lower_is_better) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, value, unit, lower_is_better});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

const Metric* Result::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

perf::Json to_json(const Result& r) {
  perf::Json doc = perf::Json::object();
  doc.set("schema", "pf15-bench-result/1");
  doc.set("workload", r.workload);
  doc.set("seed", static_cast<double>(r.seed));
  doc.set("traced", r.traced);
  doc.set("correct", r.correct);
  doc.set("attempted", static_cast<double>(r.attempted));
  doc.set("failed", static_cast<double>(r.failed));
  perf::Json problems = perf::Json::array();
  for (const auto& p : r.problems) problems.push_back(p);
  doc.set("problems", std::move(problems));
  perf::Json metrics = perf::Json::array();
  for (const Metric& m : r.metrics) {
    perf::Json entry = perf::Json::object();
    entry.set("name", m.name);
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    entry.set("better", m.lower_is_better ? "lower" : "higher");
    metrics.push_back(std::move(entry));
  }
  doc.set("metrics", std::move(metrics));
  doc.set("detail", r.detail);
  return doc;
}

Result result_from_json(const perf::Json& doc) {
  if (doc.get("schema").as_string() != "pf15-bench-result/1") {
    throw IoError("not a pf15 benchmark result (schema " +
                  doc.get("schema").as_string() + ")");
  }
  Result r;
  r.workload = doc.get("workload").as_string();
  r.seed = static_cast<std::uint64_t>(doc.get("seed").as_number());
  r.traced = doc.get("traced").as_bool();
  r.correct = doc.get("correct").as_bool();
  r.attempted = static_cast<std::uint64_t>(doc.get("attempted").as_number());
  r.failed = static_cast<std::uint64_t>(doc.get("failed").as_number());
  const perf::Json& problems = doc.get("problems");
  for (std::size_t i = 0; i < problems.size(); ++i) {
    r.problems.push_back(problems.at(i).as_string());
  }
  const perf::Json& metrics = doc.get("metrics");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perf::Json& m = metrics.at(i);
    r.metrics.push_back({m.get("name").as_string(), m.get("value").as_number(),
                         m.get("unit").as_string(),
                         m.get("better").as_string() == "lower"});
  }
  if (const perf::Json* detail = doc.find("detail")) r.detail = *detail;
  return r;
}

std::string summary_line(const Result& r) {
  perf::Json doc = perf::Json::object();
  doc.set("correct", r.correct);
  doc.set("attempted", static_cast<double>(r.attempted));
  doc.set("failed", static_cast<double>(r.failed));
  perf::Json metrics = perf::Json::object();
  for (const Metric& m : r.metrics) {
    perf::Json entry = perf::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  doc.set("metrics", std::move(metrics));
  return doc.dump(0);
}

perf::Json provenance() {
  perf::Json p = perf::Json::object();
  p.set("cores", static_cast<std::size_t>(std::thread::hardware_concurrency()));
  p.set("simd_isa", gemm::simd_isa_string());
#if defined(__clang__)
  p.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  p.set("compiler", std::string("gcc ") + __VERSION__);
#else
  p.set("compiler", "unknown");
#endif
  p.set("build_type", PF15_BENCH_BUILD_TYPE);
  const char* sha = std::getenv("PF15_BENCH_GIT_SHA");
  p.set("git_sha", sha != nullptr && *sha != '\0' ? sha : "unknown");
  return p;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

void SpanRecorder::add(const std::string& name, const std::string& cat,
                       Clock::time_point start, Clock::time_point end,
                       std::int64_t step, int tid) {
  if (!enabled_) return;
  using us = std::chrono::duration<double, std::micro>;
  Span s{name, cat, us(start - origin_).count(), us(end - start).count(),
         step, tid};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

double SpanRecorder::sum_ms(const std::string& name,
                            const std::string& cat) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name && s.cat == cat) us += s.dur_us;
  }
  return us / 1e3;
}

perf::Json SpanRecorder::chrome_trace() const {
  std::lock_guard<std::mutex> lock(mutex_);
  perf::Json events = perf::Json::array();
  for (const Span& s : spans_) {
    perf::Json e = perf::Json::object();
    e.set("name", s.name);
    e.set("cat", s.cat);
    e.set("ph", "X");
    e.set("ts", s.ts_us);
    e.set("dur", s.dur_us);
    e.set("pid", 1);
    e.set("tid", s.tid);
    if (s.step >= 0) {
      perf::Json args = perf::Json::object();
      args.set("step", static_cast<double>(s.step));
      e.set("args", std::move(args));
    }
    events.push_back(std::move(e));
  }
  perf::Json doc = perf::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

ScopedSpan::ScopedSpan(SpanRecorder& rec, std::string_view name,
                       std::string_view cat, std::int64_t step, int tid)
    : rec_(rec), step_(step), tid_(tid) {
  if (!rec_.enabled()) return;
  name_ = name;
  cat_ = cat;
  start_ = SpanRecorder::Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (rec_.enabled()) {
    rec_.add(name_, cat_, start_, SpanRecorder::Clock::now(), step_, tid_);
  }
}

std::vector<Bound> load_bounds(const std::string& spec_path) {
  const perf::Json spec = perf::Json::read_file(spec_path);
  const perf::Json& e2e = spec.get("end_to_end");
  std::vector<Bound> out;
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const perf::Json& m = e2e.at(i);
    out.push_back({m.get("name").as_string(),
                   m.get("better").as_string() == "lower",
                   m.get("bound").as_number()});
  }
  return out;
}

int compare_results(const std::vector<Result>& a, const std::vector<Result>& b,
                    const std::vector<Bound>& bounds, std::string& report) {
  std::vector<std::string> workloads;
  for (const auto* set : {&a, &b}) {
    for (const Result& r : *set) {
      if (r.traced) continue;
      bool seen = false;
      for (const auto& w : workloads) seen = seen || w == r.workload;
      if (!seen) workloads.push_back(r.workload);
    }
  }
  auto samples = [](const std::vector<Result>& set, const std::string& workload,
                    const std::string& metric) {
    std::vector<double> v;
    for (const Result& r : set) {
      if (r.traced || r.workload != workload) continue;
      if (const Metric* m = r.find(metric)) v.push_back(m->value);
    }
    return v;
  };

  char line[512];
  std::snprintf(line, sizeof(line),
                "%-14s %-14s %4s %28s %28s %6s %8s %6s  %s\n", "metric",
                "workload", "n", "A median [Q1, Q3]", "B median [Q1, Q3]",
                "B wins", "change", "bound", "verdict");
  report = line;
  int bad = 0;
  for (const Bound& bound : bounds) {
    for (const std::string& w : workloads) {
      const auto va = samples(a, w, bound.name);
      const auto vb = samples(b, w, bound.name);
      if (va.empty() || vb.empty()) {
        std::snprintf(line, sizeof(line), "%-14s %-14s missing in set %s\n",
                      bound.name.c_str(), w.c_str(), va.empty() ? "A" : "B");
        report += line;
        ++bad;
        continue;
      }
      const Comparison c =
          compare_samples(va, vb, bound.lower_is_better, bound.bound);
      char qa[64], qb[64];
      std::snprintf(qa, sizeof(qa), "%.4g [%.4g, %.4g]", c.median_a,
                    c.quartiles_a[0], c.quartiles_a[2]);
      std::snprintf(qb, sizeof(qb), "%.4g [%.4g, %.4g]", c.median_b,
                    c.quartiles_b[0], c.quartiles_b[2]);
      std::snprintf(line, sizeof(line),
                    "%-14s %-14s %2zu/%zu %28s %28s %5.0f%% %+7.1f%% %5.0f%%  %s\n",
                    bound.name.c_str(), w.c_str(), va.size(), vb.size(), qa, qb,
                    100.0 * c.pair_wins_b, 100.0 * c.worse_share,
                    100.0 * bound.bound, to_string(c.verdict));
      report += line;
      if (c.verdict == Verdict::kRegressed ||
          c.verdict == Verdict::kUnresolved) {
        ++bad;
      }
    }
  }
  report +=
      "change: median B vs median A, positive = worse. B wins: share of "
      "index-paired runs where B reads better.\n";
  return bad;
}

}  // namespace pf15::bench
