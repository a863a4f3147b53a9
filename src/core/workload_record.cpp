#include "core/workload_record.hpp"

#include <cstdint>

namespace xres {

namespace {

using obs::JsonWriter;
using recovery::JsonParseError;
using recovery::JsonValue;

// Summary as a fixed array [count, mean, stddev, min, max, ci95]: compact,
// and round-trips every double exactly (shortest-round-trip rendering).
void write_summary(JsonWriter& w, const Summary& s) {
  w.begin_array();
  w.value(static_cast<std::uint64_t>(s.count));
  w.value(s.mean);
  w.value(s.stddev);
  w.value(s.min);
  w.value(s.max);
  w.value(s.ci95_halfwidth);
  w.end_array();
}

Summary read_summary(const JsonValue& v) {
  const std::vector<JsonValue>& a = v.as_array();
  if (a.size() != 6) throw JsonParseError{"summary array must have 6 entries"};
  Summary s;
  s.count = a[0].as_u64();
  s.mean = a[1].as_double();
  s.stddev = a[2].as_double();
  s.min = a[3].as_double();
  s.max = a[4].as_double();
  s.ci95_halfwidth = a[5].as_double();
  return s;
}

}  // namespace

void write_result(JsonWriter& w, const WorkloadRunResult& r) {
  w.begin_object();
  w.key("jobs").value(static_cast<std::uint64_t>(r.total_jobs));
  w.key("completed").value(static_cast<std::uint64_t>(r.completed));
  w.key("dropped").value(static_cast<std::uint64_t>(r.dropped));
  w.key("dropped_frac").value(r.dropped_fraction);
  w.key("dropped_before").value(static_cast<std::uint64_t>(r.dropped_before_start));
  w.key("dropped_running").value(static_cast<std::uint64_t>(r.dropped_while_running));
  w.key("slowdown");
  write_summary(w, r.completed_slowdown);
  w.key("queue_wait_h");
  write_summary(w, r.queue_wait_hours);
  w.key("failures").value(r.failures_injected);
  w.key("makespan_s").value(r.makespan.to_seconds());
  w.key("util").value(r.mean_utilization);
  // Selection counts as [kind, count] pairs (std::map iterates in key
  // order, so the rendering is deterministic).
  w.key("sel").begin_array();
  for (const auto& [kind, count] : r.selection_counts) {
    w.begin_array();
    w.value(static_cast<std::uint64_t>(kind));
    w.value(static_cast<std::uint64_t>(count));
    w.end_array();
  }
  w.end_array();
  // Queued-PFS-device accounting, emitted only when a device ran (non-flat
  // platforms): flat-platform payloads stay byte-identical to older builds.
  if (r.pfs_transfers > 0) {
    w.key("pfs").begin_array();
    w.value(r.pfs_transfers);
    w.value(r.pfs_measured_s);
    w.value(r.pfs_nominal_s);
    w.end_array();
  }
  w.end_object();
}

void read_result(const JsonValue& v, WorkloadRunResult& r) {
  r.total_jobs = static_cast<std::uint32_t>(v.at("jobs").as_u64());
  r.completed = static_cast<std::uint32_t>(v.at("completed").as_u64());
  r.dropped = static_cast<std::uint32_t>(v.at("dropped").as_u64());
  r.dropped_fraction = v.at("dropped_frac").as_double();
  r.dropped_before_start = static_cast<std::uint32_t>(v.at("dropped_before").as_u64());
  r.dropped_while_running = static_cast<std::uint32_t>(v.at("dropped_running").as_u64());
  r.completed_slowdown = read_summary(v.at("slowdown"));
  r.queue_wait_hours = read_summary(v.at("queue_wait_h"));
  r.failures_injected = v.at("failures").as_u64();
  r.makespan = Duration::seconds(v.at("makespan_s").as_double());
  r.mean_utilization = v.at("util").as_double();
  for (const JsonValue& pair : v.at("sel").as_array()) {
    const std::vector<JsonValue>& kc = pair.as_array();
    if (kc.size() != 2) throw JsonParseError{"bad selection-count pair"};
    const std::uint64_t kind = kc[0].as_u64();
    if (kind > static_cast<std::uint64_t>(TechniqueKind::kSemiBlockingCheckpoint)) {
      throw JsonParseError{"selection-count technique out of range"};
    }
    r.selection_counts[static_cast<TechniqueKind>(kind)] =
        static_cast<std::uint32_t>(kc[1].as_u64());
  }
  if (const JsonValue* pfs = v.find("pfs"); pfs != nullptr) {
    const std::vector<JsonValue>& a = pfs->as_array();
    if (a.size() != 3) throw JsonParseError{"pfs array must have 3 entries"};
    r.pfs_transfers = a[0].as_u64();
    r.pfs_measured_s = a[1].as_double();
    r.pfs_nominal_s = a[2].as_double();
  }
}

}  // namespace xres
