#include "failure/replay.hpp"

#include "util/check.hpp"
#include "util/log.hpp"

namespace xres {

TraceFailureProcess::TraceFailureProcess(Simulation& sim, const FailureTrace& trace,
                                         Callback on_failure)
    : sim_{sim}, trace_{trace}, on_failure_{std::move(on_failure)} {
  XRES_CHECK(static_cast<bool>(on_failure_), "failure callback must be non-empty");
}

TraceFailureProcess::~TraceFailureProcess() { stop(); }

void TraceFailureProcess::start() {
  XRES_CHECK(!active_, "trace replay already started");
  active_ = true;
  pending_.reserve(trace_.size());
  for (const Failure& failure : trace_.failures()) {
    if (failure.time < sim_.now()) {
      ++skipped_;
      continue;
    }
    pending_.push_back(sim_.schedule_at(failure.time, [this, &failure] {
      ++delivered_;
      on_failure_(failure);
    }));
  }
  if (skipped_ > 0) {
    XRES_LOG_WARN("trace replay skipped " + std::to_string(skipped_) +
                  " failures that predate the current simulation time");
  }
}

void TraceFailureProcess::stop() {
  if (!active_) return;
  active_ = false;
  for (EventId id : pending_) sim_.cancel(id);
  pending_.clear();
}

}  // namespace xres
