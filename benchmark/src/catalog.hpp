// The benchmark's metric catalogue: every end-to-end and per-layer metric
// name with its unit and direction, in the order BENCHMARK.json lists
// them. Every run prints the whole end-to-end set (untraced) or the whole
// per-layer set (traced), whatever the workload.
#pragma once

#include <string>
#include <vector>

namespace pf15::bench {

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
};

const std::vector<std::string>& workload_names();

/// Measured with tracing off, on every workload; never 0.
const std::vector<MetricSpec>& end_to_end_metrics();

/// Measured by the traced run. Metrics of modules every workload runs
/// (data, gemm, sched) are times and rates; metrics of modules only some
/// workloads run (per-network-layer shares, solver, graph, serve, hybrid,
/// comm, ps) are shares, counts, sizes or rates, and read 0 on workloads
/// that do not run the module.
const std::vector<MetricSpec>& per_layer_metrics();

/// Layers of the HEP network of train_hep and of the climate network of
/// train_climate whose time the traced run attributes (names as the
/// library names them).
const std::vector<std::string>& hep_layer_names();
const std::vector<std::string>& climate_layer_names();
/// The convolution layers among them (they get a share-of-peak metric).
bool is_conv_layer(const std::string& layer);

}  // namespace pf15::bench
