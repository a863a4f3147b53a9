#pragma once

/// \file trial_record.hpp
/// Journal payload for one unit of a controlled executor loop: the unit's
/// result, the quarantine marker, an optional per-unit `MetricSet`, and
/// wall-clock telemetry. One envelope serves every unit type; a result
/// type joins by providing a `write_result`/`read_result` pair in namespace
/// `xres` (here for `ExecutionResult`, core/workload_record.hpp for
/// `WorkloadRunResult`). Everything needed to make a resumed study
/// indistinguishable from an uninterrupted one: numbers are rendered in
/// shortest-round-trip form (obs/json.hpp) and parsed back to the exact
/// same doubles, and the metric set is restored slot for slot, so
/// spec-order reductions and `--metrics` JSON come out byte-identical.

#include <cstdint>
#include <optional>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "recovery/json_parse.hpp"
#include "runtime/result.hpp"

namespace xres {

/// The trial result's part of the payload (the "result" object).
void write_result(obs::JsonWriter& w, const ExecutionResult& r);
void read_result(const recovery::JsonValue& v, ExecutionResult& r);

}  // namespace xres

namespace xres::recovery {

/// One journaled unit outcome.
template <typename Result>
struct Outcome {
  Result result{};
  /// Set when the unit exhausted its watchdog/retry budget; the stored
  /// result is the `Result{}` placeholder the study reduced.
  bool quarantined{false};
  std::string quarantine_reason;
  /// The unit's metrics when the run collected them (resume restores the
  /// observer from this instead of re-simulating).
  std::optional<obs::MetricSet> metrics;
  /// Wall-clock telemetry (nondeterministic, for the `xres journal`
  /// inspector only — journals are never byte-compared). Serialized as the
  /// optional "w"/"a" keys; old journals without them parse fine.
  double wall_seconds{0};
  unsigned attempts{1};  ///< tries this outcome took (retries = attempts-1)
};

/// MetricSet (de)serialization: values by slot in registry order,
/// histograms with sparse [bucket, count] pairs. read_metric_set throws
/// JsonParseError when the payload does not fit this binary's metric
/// registry.
void write_metric_set(obs::JsonWriter& w, const obs::MetricSet& set);
[[nodiscard]] obs::MetricSet read_metric_set(const JsonValue& v);

/// Serialize \p outcome as one JSON object (the journal record's "p" field).
template <typename Result>
[[nodiscard]] std::string serialize_outcome(const Outcome<Result>& outcome) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("result");
  write_result(w, outcome.result);
  if (outcome.quarantined) {
    w.key("quarantined").value(true);
    w.key("reason").value(outcome.quarantine_reason);
  }
  if (outcome.metrics.has_value()) {
    w.key("metrics");
    write_metric_set(w, *outcome.metrics);
  }
  if (outcome.wall_seconds > 0) w.key("w").value(outcome.wall_seconds);
  if (outcome.attempts > 1) {
    w.key("a").value(static_cast<std::uint64_t>(outcome.attempts));
  }
  w.end_object();
  return w.str();
}

/// Inverse of serialize_outcome. Throws JsonParseError on malformed
/// payloads and on metric payloads that do not fit the current registry
/// (e.g. a journal written by a different binary) — callers treat either as
/// "re-run this unit".
template <typename Result>
[[nodiscard]] Outcome<Result> parse_outcome(const std::string& payload) {
  const JsonValue v = parse_json(payload);
  Outcome<Result> out;
  read_result(v.at("result"), out.result);
  if (const JsonValue* q = v.find("quarantined"); q != nullptr && q->as_bool()) {
    out.quarantined = true;
    out.quarantine_reason = v.at("reason").as_string();
  }
  if (const JsonValue* m = v.find("metrics"); m != nullptr) {
    out.metrics = read_metric_set(*m);
  }
  if (const JsonValue* wall = v.find("w"); wall != nullptr) {
    out.wall_seconds = wall->as_double();
  }
  if (const JsonValue* a = v.find("a"); a != nullptr) {
    out.attempts = static_cast<unsigned>(a->as_u64());
  }
  return out;
}

}  // namespace xres::recovery
