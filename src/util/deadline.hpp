#pragma once

/// \file deadline.hpp
/// Cooperative per-trial watchdog. A simulated trial that diverges (a model
/// bug driving an unbounded event loop) would otherwise hang its worker
/// thread forever; std::thread offers no safe preemption, so the timeout is
/// cooperative instead: the executor arms a thread-local wall-clock
/// deadline around each trial and the discrete-event engine polls it every
/// few thousand events (sim/simulation.cpp). An expired deadline throws
/// `TrialTimeoutError`, which unwinds the trial cleanly and lands in the
/// executor's retry/quarantine logic (core/executor.hpp).
///
/// Disarmed (the default, and whenever no `ScopedDeadline` is live) the
/// poll is a single thread-local load — cheap enough for the engine's hot
/// loop.

#include <stdexcept>
#include <string>

namespace xres {

/// Thrown by deadline_poll() when the armed deadline has passed. Derives
/// from std::runtime_error (NOT CheckError): a timeout is an operational
/// condition the executor handles, not a programming error.
class TrialTimeoutError final : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Arm a wall-clock deadline \p seconds from now on the calling thread.
/// Nesting keeps the tighter (earlier) deadline; destruction restores the
/// previous one. `seconds <= 0` arms nothing (a scoped no-op).
class ScopedDeadline {
 public:
  explicit ScopedDeadline(double seconds);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  long long previous_;  ///< prior deadline (steady-clock ns since epoch; 0 = none)
};

/// Throw TrialTimeoutError if the calling thread's armed deadline has
/// passed; no-op when disarmed.
void deadline_poll();

}  // namespace xres
