// pf15_bench: the pf15 benchmark.
//
//   pf15_bench --workload=<name> --seed=<n> [--seconds=<s, default 20>]
//              [--traced | --trace=<0|1>] [--out=<dir>]
//       Runs one workload in this process and prints its metrics; the last
//       line of standard output is the JSON summary. Exits 1 when a check
//       fails, 2 on bad usage or a non-hermetic environment.
//   pf15_bench gen --seed=<n> [--out=<dir>]
//       Writes every workload's shard fixtures for the seed.
//   pf15_bench compare [--spec=<BENCHMARK.json>] <runs A...> -- <runs B...>
//       Compares two sets of untraced runs (result.json files or run
//       directories) metric by metric against the bounds in the spec.
//
// Flags are written --key=value or --key value.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "catalog.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace pf15::bench;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command = "run";
  std::map<std::string, std::string> flags;
  std::vector<std::string> positional;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
};

Args parse_args(int argc, char** argv) {
  static const std::vector<std::string> kValueFlags = {
      "workload", "seed", "seconds", "trace", "out", "spec"};
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') args.command = argv[i++];
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--" || arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    std::string key = arg.substr(2);
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "traced") {
      value = "1";
      key = "trace";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError("--" + key + " needs a value");
    }
    bool known = false;
    for (const auto& k : kValueFlags) known = known || k == key;
    if (!known) throw UsageError("unknown flag --" + key);
    args.flags[key] = value;
  }
  return args;
}

std::uint64_t parse_seed(const Args& args) {
  const std::string s = args.get("seed", "1");
  std::size_t used = 0;
  const unsigned long long seed = std::stoull(s, &used);
  if (used != s.size()) throw UsageError("bad --seed '" + s + "'");
  return seed;
}

/// Environment variables that would make a run measure something other
/// than the default build: a pinned SIMD tier or the library tracer.
void require_hermetic_env() {
  for (const char* var : {"PF15_SIMD", "PF15_TRACE"}) {
    if (std::getenv(var) != nullptr) {
      throw UsageError(std::string(var) +
                       " is set; unset it to run the benchmark");
    }
  }
  // Every run starts from a cold, private conv-plan cache and never
  // writes one back.
  setenv("PF15_CONV_PLAN_CACHE", "off", 1);
}

std::string data_dir(const fs::path& out, std::uint64_t seed) {
  return (out / "data" / ("seed-" + std::to_string(seed))).string();
}

int cmd_run(const Args& args) {
  if (!args.positional.empty()) {
    throw UsageError("unexpected argument '" + args.positional.front() + "'");
  }
  require_hermetic_env();
  RunOptions opt;
  opt.workload = args.get("workload", "");
  bool known = false;
  for (const auto& w : workload_names()) known = known || w == opt.workload;
  if (!known) throw UsageError("--workload must name a workload, got '" + opt.workload + "'");
  opt.seed = parse_seed(args);
  opt.seconds = std::stod(args.get("seconds", "20"));
  if (!(opt.seconds >= 1.0 && opt.seconds <= 120.0)) {
    throw UsageError("--seconds must be within [1, 120]");
  }
  const std::string trace = args.get("trace", "0");
  if (trace != "0" && trace != "1") throw UsageError("--trace must be 0 or 1");
  opt.traced = trace == "1";

  const fs::path out = fs::absolute(args.get("out", "benchmark/out"));
  opt.data_dir = data_dir(out, opt.seed);
  const auto t_gen = std::chrono::steady_clock::now();
  ensure_fixtures(opt.workload, opt.seed, opt.data_dir);
  const double gen_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t_gen)
                           .count();

  // A private working directory per run: nothing the library might write
  // there can leak into another run.
  char stamp[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(stamp, sizeof(stamp), "%Y%m%dT%H%M%S", std::gmtime(&now));
  const fs::path run_dir =
      out / "runs" /
      (opt.workload + "-seed" + std::to_string(opt.seed) +
       (opt.traced ? "-traced-" : "-untraced-") + stamp + "-" +
       std::to_string(getpid()));
  fs::create_directories(run_dir);
  fs::current_path(run_dir);

  SpanRecorder spans(opt.traced);
  Result r = run_workload(opt, spans);
  r.detail.set("provenance", provenance());
  r.detail.set("seconds", opt.seconds);
  r.detail.set("fixture_gen_s", gen_s);
  r.detail.set("run_dir", run_dir.string());
  to_json(r).write_file("result.json");

  std::printf("pf15_bench %s seed=%llu traced=%d run_dir=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.traced ? 1 : 0, run_dir.string().c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : r.problems) std::printf("  FAILED: %s\n", p.c_str());
  std::printf("%s\n", summary_line(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

int cmd_gen(const Args& args) {
  const std::uint64_t seed = parse_seed(args);
  const fs::path out = fs::absolute(args.get("out", "benchmark/out"));
  for (const auto& w : workload_names()) ensure_fixtures(w, seed, data_dir(out, seed));
  std::printf("fixtures for seed %llu in %s\n",
              static_cast<unsigned long long>(seed), data_dir(out, seed).c_str());
  return 0;
}

Result load_result(const std::string& path) {
  const fs::path p = fs::is_directory(path) ? fs::path(path) / "result.json" : fs::path(path);
  return result_from_json(pf15::perf::Json::read_file(p.string()));
}

int cmd_compare(const Args& args) {
  std::vector<Result> a, b;
  bool second = false;
  for (const std::string& p : args.positional) {
    if (p == "--") {
      second = true;
      continue;
    }
    (second ? b : a).push_back(load_result(p));
  }
  if (a.empty() || b.empty()) {
    throw UsageError("compare needs runs on both sides of --");
  }
  const std::vector<Bound> bounds = load_bounds(args.get("spec", "BENCHMARK.json"));
  std::string report;
  const int bad = compare_results(a, b, bounds, report);
  std::fputs(report.c_str(), stdout);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.command == "run") return cmd_run(args);
    if (args.command == "gen") return cmd_gen(args);
    if (args.command == "compare") return cmd_compare(args);
    throw UsageError("unknown command '" + args.command + "'");
  } catch (const UsageError& e) {
    std::fprintf(stderr, "pf15_bench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pf15_bench: %s\n", e.what());
    return 1;
  }
}
