// The benchmark's metric catalog: every metric rc4b_perfbench prints, with its
// unit. BENCHMARK.json at the repository root lists the same names and
// units; run.py refuses a run whose output disagrees with it.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

// Printed by every untraced run (--trace 0), on every workload.
inline constexpr std::array<MetricDef, 4> kEndToEnd = {{
    {"work_per_ref_s", "1/s"},
    {"success_share", "share"},
    {"peak_rss_mb", "MiB"},
    {"setup_s", "s"},
}};

// Printed by every traced run (--trace 1). A layer the workload does not
// exercise reads 0: that is the predicted "no change" of README.md.
inline constexpr std::array<MetricDef, 60> kPerLayer = {{
    {"crypto.keygen_busy_s", "s"},
    {"crypto.keygen_keys_per_s", "1/s"},
    {"crypto.keygen_share", "share"},
    {"rc4.ksa_busy_s", "s"},
    {"rc4.ksa_keys_per_s", "1/s"},
    {"rc4.ksa_share", "share"},
    {"rc4.prga_busy_s", "s"},
    {"rc4.prga_mb_per_s", "MiB/s"},
    {"rc4.prga_share", "share"},
    {"engine.accumulate_busy_s", "s"},
    {"engine.fold_busy_s", "s"},
    {"engine.self_s", "s"},
    {"engine.shard_setup_s", "s"},
    {"engine.shard_bytes", "B"},
    {"engine.scaling_4t", "x"},
    {"store.write_busy_s", "s"},
    {"store.validate_busy_s", "s"},
    {"store.merge_busy_s", "s"},
    {"store.checkpoints", "count"},
    {"store.bytes_written", "B"},
    {"store.bytes_read", "B"},
    {"orchestrate.run_s", "s"},
    {"orchestrate.overhead_s", "s"},
    {"orchestrate.worker_util", "share"},
    {"orchestrate.attempts", "count"},
    {"orchestrate.retries", "count"},
    {"orchestrate.quarantined", "count"},
    {"tkip.model_busy_s", "s"},
    {"tkip.capture_frames_per_s", "1/s"},
    {"tkip.likelihood_busy_s", "s"},
    {"tkip.truth_rank_log2_p50", "log2"},
    {"tkip.false_hits", "count"},
    {"sim.cookie_tables_busy_s", "s"},
    {"sim.trial_busy_s", "s"},
    {"sim.scaling_4t", "x"},
    {"sim.worker_idle_share", "share"},
    {"core.candidates_per_s", "1/s"},
    {"core.nbest_busy_s", "s"},
    {"core.rank_busy_s", "s"},
    {"recovery.candidates_tried", "count"},
    {"recovery.accepts_per_candidate", "share"},
    {"recovery.verify_busy_s", "s"},
    {"recovery.traverse_self_s", "s"},
    {"attack.tkip_trials", "count"},
    {"attack.tkip_failed_share", "share"},
    {"attack.tkip_accept_p50_s", "s"},
    {"attack.tkip_accept_p90_s", "s"},
    {"attack.cookie_trials", "count"},
    {"attack.cookie_failed_share", "share"},
    {"attack.cookie_accept_p50_s", "s"},
    {"attack.cookie_accept_p90_s", "s"},
    {"op.count", "count"},
    {"op.latency_p50_s", "s"},
    {"op.latency_tail_s", "s"},
    {"op.latency_tail_pct", "%"},
    {"op.work_per_s", "1/s"},
    {"op.work_per_cpu_s", "1/s"},
    {"op.ref_scale", "x"},
    {"trace.overhead_share", "share"},
    {"trace.spans", "count"},
}};

// Formats the result line: exactly the keys correct, attempted,
// failed and metrics, with every catalog metric of the chosen set present
// (unset per-layer metrics as 0) and each value printed with all its digits.
// Returns false, naming the metric, when a required metric is unset or any
// value is not a finite number.
template <size_t N>
bool FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                  const std::array<MetricDef, N>& catalog,
                  const std::map<std::string, double>& values,
                  bool require_all, std::string* out) {
  std::string metrics;
  for (const MetricDef& def : catalog) {
    const auto it = values.find(std::string(def.name));
    if (it == values.end() && require_all) {
      *out = std::string(def.name);
      return false;
    }
    const double value = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      *out = std::string(def.name);
      return false;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) {
      metrics += ", ";
    }
    metrics.append("\"").append(def.name).append("\": {\"value\": ");
    metrics.append(number).append(", \"unit\": \"").append(def.unit).append("\"}");
  }
  out->assign("{\"correct\": ").append(correct ? "true" : "false");
  out->append(", \"attempted\": ").append(std::to_string(attempted));
  out->append(", \"failed\": ").append(std::to_string(failed));
  out->append(", \"metrics\": {").append(metrics).append("}}");
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
