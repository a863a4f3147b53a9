#include "recovery/trial_record.hpp"

namespace xres {

void write_result(obs::JsonWriter& w, const ExecutionResult& r) {
  w.begin_object();
  w.key("completed").value(r.completed);
  w.key("wall_s").value(r.wall_time.to_seconds());
  w.key("baseline_s").value(r.baseline.to_seconds());
  w.key("efficiency").value(r.efficiency);
  w.key("failures_seen").value(r.failures_seen);
  w.key("failures_masked").value(r.failures_masked);
  w.key("rollbacks").value(r.rollbacks);
  w.key("checkpoints").value(r.checkpoints_completed);
  w.key("work_s").value(r.time_working.to_seconds());
  w.key("ckpt_s").value(r.time_checkpointing.to_seconds());
  w.key("restart_s").value(r.time_restarting.to_seconds());
  w.key("recover_s").value(r.time_recovering.to_seconds());
  w.key("rework_s").value(r.rework.to_seconds());
  w.key("node_s").value(r.node_seconds);
  w.end_object();
}

void read_result(const recovery::JsonValue& v, ExecutionResult& r) {
  r.completed = v.at("completed").as_bool();
  r.wall_time = Duration::seconds(v.at("wall_s").as_double());
  r.baseline = Duration::seconds(v.at("baseline_s").as_double());
  r.efficiency = v.at("efficiency").as_double();
  r.failures_seen = v.at("failures_seen").as_u64();
  r.failures_masked = v.at("failures_masked").as_u64();
  r.rollbacks = v.at("rollbacks").as_u64();
  r.checkpoints_completed = v.at("checkpoints").as_u64();
  r.time_working = Duration::seconds(v.at("work_s").as_double());
  r.time_checkpointing = Duration::seconds(v.at("ckpt_s").as_double());
  r.time_restarting = Duration::seconds(v.at("restart_s").as_double());
  r.time_recovering = Duration::seconds(v.at("recover_s").as_double());
  r.rework = Duration::seconds(v.at("rework_s").as_double());
  r.node_seconds = v.at("node_s").as_double();
}

}  // namespace xres

namespace xres::recovery {

using obs::JsonWriter;

/// Metric values by slot, in registry order. Slot counts are recorded so a
/// journal written against a different metric registry (another binary
/// revision) is rejected instead of silently misattributed.
void write_metric_set(JsonWriter& w, const obs::MetricSet& set) {
  const std::vector<obs::MetricDesc> descs = obs::MetricRegistry::global().descriptors();
  w.begin_object();
  w.key("counters").begin_array();
  for (const obs::MetricDesc& d : descs) {
    if (d.id.kind() == obs::MetricKind::kCounter) w.value(set.counter(d.id));
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const obs::MetricDesc& d : descs) {
    if (d.id.kind() == obs::MetricKind::kGauge) w.value(set.gauge(d.id));
  }
  w.end_array();
  w.key("hists").begin_array();
  for (const obs::MetricDesc& d : descs) {
    if (d.id.kind() != obs::MetricKind::kHistogram) continue;
    const obs::HistogramData& h = set.histogram(d.id);
    w.begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    // Sparse buckets: [index, count] pairs (most trial histograms touch a
    // handful of the 64 log2 buckets).
    w.key("b").begin_array();
    for (std::size_t b = 0; b < obs::HistogramData::kBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      w.begin_array();
      w.value(static_cast<std::uint64_t>(b));
      w.value(h.buckets[b]);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

obs::MetricSet read_metric_set(const JsonValue& v) {
  obs::MetricSet set;
  const std::vector<obs::MetricDesc> descs = obs::MetricRegistry::global().descriptors();
  std::vector<obs::MetricId> counters;
  std::vector<obs::MetricId> gauges;
  std::vector<obs::MetricId> hists;
  for (const obs::MetricDesc& d : descs) {
    switch (d.id.kind()) {
      case obs::MetricKind::kCounter: counters.push_back(d.id); break;
      case obs::MetricKind::kGauge: gauges.push_back(d.id); break;
      case obs::MetricKind::kHistogram: hists.push_back(d.id); break;
    }
  }

  const std::vector<JsonValue>& cvals = v.at("counters").as_array();
  const std::vector<JsonValue>& gvals = v.at("gauges").as_array();
  const std::vector<JsonValue>& hvals = v.at("hists").as_array();
  if (cvals.size() != counters.size() || gvals.size() != gauges.size() ||
      hvals.size() != hists.size()) {
    throw JsonParseError{"journaled metrics do not match this binary's metric "
                         "registry — re-running the trial"};
  }
  for (std::size_t i = 0; i < cvals.size(); ++i) set.set_counter(counters[i], cvals[i].as_u64());
  for (std::size_t i = 0; i < gvals.size(); ++i) set.set_gauge(gauges[i], gvals[i].as_double());
  for (std::size_t i = 0; i < hvals.size(); ++i) {
    const JsonValue& hv = hvals[i];
    obs::HistogramData h;
    h.count = hv.at("count").as_u64();
    h.sum = hv.at("sum").as_double();
    h.min = hv.at("min").as_double();
    h.max = hv.at("max").as_double();
    for (const JsonValue& pair : hv.at("b").as_array()) {
      const std::vector<JsonValue>& bc = pair.as_array();
      if (bc.size() != 2) throw JsonParseError{"bad histogram bucket pair"};
      const std::uint64_t bucket = bc[0].as_u64();
      if (bucket >= obs::HistogramData::kBuckets) {
        throw JsonParseError{"histogram bucket index out of range"};
      }
      h.buckets[bucket] = bc[1].as_u64();
    }
    set.restore_histogram(hists[i], h);
  }
  return set;
}

}  // namespace xres::recovery
