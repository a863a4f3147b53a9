#pragma once

/// \file workload_record.hpp
/// The workload pattern run's part of the journal payload: the
/// `write_result`/`read_result` pair that lets recovery::Outcome
/// (recovery/trial_record.hpp) carry a `WorkloadRunResult`. Serializes the
/// full result except the occupancy log, which no journaled loop records,
/// in shortest-round-trip number form, so a resumed workload study reduces
/// to byte-identical tables and metrics.

#include "core/workload_engine.hpp"
#include "recovery/trial_record.hpp"

namespace xres {

/// The "result" object of a pattern run's payload. read_result throws
/// recovery::JsonParseError on a malformed object.
void write_result(obs::JsonWriter& w, const WorkloadRunResult& r);
void read_result(const recovery::JsonValue& v, WorkloadRunResult& r);

}  // namespace xres
