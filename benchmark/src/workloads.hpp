// The four benchmark workloads. Each drives pf15 only through its public
// API, measures for a fixed wall-clock window, checks its outputs, and
// returns either the end-to-end metrics (untraced) or the per-layer
// metrics (traced) of the catalogue.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace pf15::bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured window (set-up not included).
  double seconds = 10.0;
  bool traced = false;
  /// Directory holding this seed's shard fixtures.
  std::string data_dir;
};

/// Writes the shard fixture `workload` reads for `seed` into `data_dir`
/// unless a valid one is already there.
void ensure_fixtures(const std::string& workload, std::uint64_t seed,
                     const std::string& data_dir);

/// Runs one workload in this process. A traced run records its spans into
/// `spans` and writes them to trace_<workload>.json in the working
/// directory.
Result run_workload(const RunOptions& opt, SpanRecorder& spans);

}  // namespace pf15::bench
