#include "catalog.hpp"

namespace pf15::bench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"train_hep", "train_climate",
                                                 "serve_hep", "hybrid_hep"};
  return names;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", true},
      {"img_per_s", "img/s", false},
      {"lat_ms_p50", "ms", true},
      {"peak_rss_mb", "MB", true},
  };
  return specs;
}

const std::vector<std::string>& hep_layer_names() {
  static const std::vector<std::string> names = {
      "conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "conv3", "relu3",
      "pool3", "conv4", "relu4", "pool4", "conv5", "relu5", "gap",   "fc"};
  return names;
}

const std::vector<std::string>& climate_layer_names() {
  static const std::vector<std::string> names = {
      "enc_conv1",   "enc_conv2",   "enc_conv3",   "enc_conv4",
      "enc_conv5",   "head_conf",   "head_class",  "head_xy",
      "head_wh",     "dec_deconv1", "dec_deconv2", "dec_deconv3",
      "dec_deconv4", "dec_deconv5"};
  return names;
}

bool is_conv_layer(const std::string& layer) {
  return layer.rfind("conv", 0) == 0 || layer.rfind("enc_conv", 0) == 0 ||
         layer.rfind("head_", 0) == 0 || layer.rfind("dec_deconv", 0) == 0;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"data.next_ms", "ms", true},
        {"data.read_mb_per_s", "MB/s", false},
        {"gemm.peak_gflops", "GFLOP/s", false},
        {"gemm.tune_s", "s", true},
        {"gemm.tunes", "count", true},
        {"sched.tasks_per_step", "count", true},
        {"sched.steals_per_step", "count", true},
        {"data.pct_step", "%", true},
        {"nn.fwd_pct_step", "%", true},
        {"nn.loss_pct_step", "%", true},
        {"nn.bwd_pct_step", "%", true},
        {"solver.pct_step", "%", true},
        {"nn.unattributed_pct_step", "%", true},
    };
    for (const auto* layers : {&hep_layer_names(), &climate_layer_names()}) {
      for (const std::string& l : *layers) {
        s.push_back({"nn." + l + ".fwd_pct_step", "%", true});
        s.push_back({"nn." + l + ".bwd_pct_step", "%", true});
        if (is_conv_layer(l)) s.push_back({"nn." + l + ".pct_peak", "%", false});
      }
    }
    const std::vector<MetricSpec> tail = {
        {"graph.b1_runs_per_s", "1/s", false},
        {"graph.b16_img_per_s", "img/s", false},
        {"graph.arena_mb", "MB", true},
        {"graph.compile_pct_setup", "%", true},
        {"serve.mean_batch", "count", false},
        {"serve.queue_wait_pct_lat", "%", true},
        {"serve.p999_per_p50", "ratio", true},
        {"serve.late_send_pct", "%", true},
        {"hybrid.data_pct_iter", "%", true},
        {"hybrid.compute_pct_iter", "%", true},
        {"comm.allreduce_pct_iter", "%", true},
        {"ps.exchange_pct_iter", "%", true},
        {"comm.broadcast_pct_iter", "%", true},
        {"comm.wire_mb_per_iter", "MB", true},
        {"ps.compression_ratio", "ratio", true},
        {"ps.staleness_mean", "count", true},
    };
    s.insert(s.end(), tail.begin(), tail.end());
    return s;
  }();
  return specs;
}

}  // namespace pf15::bench
