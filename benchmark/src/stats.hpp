// Order statistics, arrival schedules and the regression verdict of the
// pf15 benchmark. Pure functions of their inputs, so selftest.cpp checks
// them on known vectors.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pf15::bench {

/// Percentile q in [0, 1] by linear interpolation between the closest
/// ranks (numpy's default). 0 for an empty sample.
double percentile(std::vector<double> v, double q);

double median(const std::vector<double>& v);

/// First, second and third quartile exactly as Python's
/// statistics.quantiles(v, n=4) computes them (the "exclusive" method),
/// so spreads printed here match the ones checked against BENCHMARK.json.
/// A single value is its own quartiles; empty input gives zeros.
std::array<double, 3> quartiles(std::vector<double> v);

/// (Q3 - Q1) / median: run-to-run spread as a share of the median.
double iqr_share(const std::vector<double>& v);

/// Due times (seconds from the start) of a Poisson arrival process at
/// `rate_per_s` over `seconds`, drawn from (seed, stream). Deterministic:
/// the same seed gives the same schedule.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds);

enum class Verdict { kImproved, kUnchanged, kRegressed, kUnresolved };

const char* to_string(Verdict v);

/// Samples of one (end-to-end metric, workload) pair on two commits,
/// A the baseline and B the candidate, with the metric's direction and
/// its regression bound (a share of A's median).
struct Comparison {
  double median_a = 0.0, median_b = 0.0;
  std::array<double, 3> quartiles_a{}, quartiles_b{};
  /// Share of index-paired runs (a_i, b_i) in which B reads better;
  /// ties count for neither side.
  double pair_wins_b = 0.0;
  /// Larger of the two sets' iqr_share.
  double spread = 0.0;
  /// (median_b - median_a) / median_a, signed so that > 0 is worse.
  double worse_share = 0.0;
  Verdict verdict = Verdict::kUnchanged;
};

/// The rule of the benchmark README:
///   improved   — B wins at least 9 in 10 pairs and the medians differ,
///                in B's favour, by more than A's own interquartile range;
///   unresolved — otherwise, when the spread is wider than the bound and
///                not every run of B reads better than every run of A;
///   regressed  — otherwise, when B's median is worse by more than the
///                bound;
///   unchanged  — otherwise.
Comparison compare_samples(const std::vector<double>& a,
                           const std::vector<double>& b, bool lower_is_better,
                           double bound);

}  // namespace pf15::bench
