#include "util/deadline.hpp"

#include <algorithm>
#include <chrono>

namespace xres {

namespace {

/// Armed deadline as steady-clock nanoseconds since its epoch; 0 = none.
thread_local long long t_deadline_ns = 0;

long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScopedDeadline::ScopedDeadline(double seconds) : previous_{t_deadline_ns} {
  if (seconds <= 0.0) return;
  const long long candidate = now_ns() + static_cast<long long>(seconds * 1e9);
  t_deadline_ns =
      previous_ == 0 ? candidate : std::min(previous_, candidate);
}

ScopedDeadline::~ScopedDeadline() { t_deadline_ns = previous_; }

void deadline_poll() {
  if (t_deadline_ns == 0) return;
  if (now_ns() >= t_deadline_ns) {
    throw TrialTimeoutError{"trial exceeded its watchdog deadline"};
  }
}

}  // namespace xres
