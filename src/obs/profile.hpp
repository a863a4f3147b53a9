#pragma once

/// \file profile.hpp
/// Executor profiling: wall-clock phase timing and progress/ETA reporting
/// for study drivers.
///
/// These measure *host* time (std::chrono::steady_clock), unlike everything
/// else in obs which runs on simulated time — so profiler output is
/// intentionally kept OUT of the deterministic `--metrics` artifact and
/// goes to stderr instead.

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace xres::obs {

/// Accumulating named wall-clock phases (setup / run / reduce). begin()
/// closes the previous phase; repeated names accumulate into one entry.
/// Single-threaded: profile the driver's calling thread, not workers.
class PhaseProfiler {
 public:
  void begin(const std::string& name);
  void end();

  /// (name, seconds) in first-begin order; closes nothing (an open phase is
  /// reported up to now).
  [[nodiscard]] std::vector<std::pair<std::string, double>> phases() const;

  [[nodiscard]] double total_seconds() const;

  /// One line, e.g. "setup 0.01 s + run 3.21 s + reduce 0.02 s = 3.24 s".
  [[nodiscard]] std::string summary() const;

 private:
  [[nodiscard]] double open_elapsed() const;

  struct Phase {
    std::string name;
    double seconds{0.0};
  };
  std::vector<Phase> phases_;
  std::size_t open_index_{static_cast<std::size_t>(-1)};
  std::chrono::steady_clock::time_point open_start_{};
};

/// Pure progress-line rendering (unit-testable): "cell 12/40 (30%) eta 8 s".
/// \p elapsed_seconds is time since the sweep started; ETA extrapolates the
/// observed rate. No ETA is shown before the first completed unit.
[[nodiscard]] std::string render_progress(const std::string& unit, std::size_t done,
                                          std::size_t total, double elapsed_seconds);

/// Stderr progress meter with ETA, shaped to be handed to the executor as a
/// progress callback (`meter.callback()`); redraws in place with '\r' and
/// finishes the line at done == total. Updates are rate-limited to ~10 Hz
/// (the final update always prints).
class ProgressMeter {
 public:
  /// \p out null selects stderr.
  explicit ProgressMeter(std::string unit, std::FILE* out = nullptr);

  void update(std::size_t done, std::size_t total);

  /// A callback forwarding to update(); the meter must outlive it.
  [[nodiscard]] std::function<void(std::size_t, std::size_t)> callback();

 private:
  std::string unit_;
  std::FILE* out_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_draw_;
  std::size_t last_width_{0};
  bool drew_{false};
};

}  // namespace xres::obs
