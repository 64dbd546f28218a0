#include "stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace pf15::bench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive") with n = 4, in exact
  // integer arithmetic for the rank and the interpolation weight.
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double iqr_share(const std::vector<double>& v) {
  const auto q = quartiles(v);
  return q[1] != 0.0 ? (q[2] - q[0]) / std::abs(q[1]) : 0.0;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds) {
  Rng rng(seed, /*stream=*/0x5e7e);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate_per_s); t < seconds;
       t += rng.exponential(rate_per_s)) {
    due.push_back(t);
  }
  return due;
}

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kImproved:
      return "improved";
    case Verdict::kUnchanged:
      return "unchanged";
    case Verdict::kRegressed:
      return "regressed";
    case Verdict::kUnresolved:
      return "unresolved";
  }
  return "?";
}

Comparison compare_samples(const std::vector<double>& a,
                           const std::vector<double>& b, bool lower_is_better,
                           double bound) {
  Comparison c;
  c.median_a = median(a);
  c.median_b = median(b);
  c.quartiles_a = quartiles(a);
  c.quartiles_b = quartiles(b);
  c.spread = std::max(iqr_share(a), iqr_share(b));
  auto better = [&](double x, double y) {  // x reads better than y
    return lower_is_better ? x < y : x > y;
  };

  const std::size_t pairs = std::min(a.size(), b.size());
  std::size_t wins = 0;
  for (std::size_t i = 0; i < pairs; ++i) wins += better(b[i], a[i]) ? 1 : 0;
  c.pair_wins_b = pairs ? static_cast<double>(wins) / static_cast<double>(pairs)
                        : 0.0;

  const double delta = c.median_b - c.median_a;
  c.worse_share = c.median_a != 0.0
                      ? (lower_is_better ? delta : -delta) / std::abs(c.median_a)
                      : 0.0;

  bool all_b_better = !a.empty() && !b.empty();
  for (double x : b) {
    for (double y : a) all_b_better = all_b_better && better(x, y);
  }
  const double iqr_a = c.quartiles_a[2] - c.quartiles_a[0];

  if (pairs > 0 && c.pair_wins_b >= 0.9 && better(c.median_b, c.median_a) &&
      std::abs(delta) > iqr_a) {
    c.verdict = Verdict::kImproved;
  } else if (c.spread > bound && !all_b_better) {
    c.verdict = Verdict::kUnresolved;
  } else if (c.worse_share > bound) {
    c.verdict = Verdict::kRegressed;
  } else {
    c.verdict = Verdict::kUnchanged;
  }
  return c;
}

}  // namespace pf15::bench
