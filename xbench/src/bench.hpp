#pragma once

/// \file bench.hpp
/// Shared pieces of the xres benchmark program: the span recorder behind the
/// traced run, the output checks, and the workload interface.
///
/// Spans are recorded only around the benchmark's own calls into xres module
/// functions (`generate_pattern`, `make_plan`, `run_trial`, ...); nothing
/// inside the library is instrumented. A span's layer is its name up to the
/// first '.', which is the xres module the call enters.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "obs/json.hpp"

namespace xbench {

/// Seconds on a steady clock (the epoch is arbitrary but fixed per process).
[[nodiscard]] double now_s();

/// Small per-thread number used as a span's lane (0 = first thread to ask,
/// normally the main thread).
[[nodiscard]] int lane_id();

struct Span {
  const char* name{""};  ///< "<module>.<call>"; static storage
  std::string tag;       ///< optional sub-key, e.g. "fcfs/fixed"
  double start{0.0};
  double end{0.0};
  int parent{-1};  ///< index of the enclosing span, -1 for a root
  int lane{0};
  /// Items done inside the span (failures generated, records appended) or,
  /// for an executor loop, its worker count.
  std::uint64_t work{0};
};

/// In-memory span recorder. Scopes nest on the calling thread; spans timed
/// on worker threads are added afterwards as children of the open scope.
/// A disabled recorder stores nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_{enabled} {}

  class Scope {
   public:
    Scope(Tracer& tracer, int index) : tracer_{&tracer}, index_{index} {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// End the span now (idempotent). Returns its duration in seconds.
    double close();
    /// End the span at \p end, a time taken earlier with now_s().
    double close_at(double end);
    void set_work(std::uint64_t work);

   private:
    Tracer* tracer_;
    int index_;
  };

  [[nodiscard]] Scope scope(const char* name, std::string tag = {});
  /// A completed span measured elsewhere, parented to the open scope.
  void add(const char* name, std::string tag, double start, double end, int lane,
           std::uint64_t work = 0);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every span called \p name, optionally only those
  /// whose tag contains \p tag_part.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              const std::string& tag_part = {}) const;
  /// Summed `work` of the spans called \p name.
  [[nodiscard]] std::uint64_t work(const std::string& name) const;
  /// Self time per layer: a span's duration minus the part of it its
  /// children cover (children on worker threads overlap; their union
  /// counts once).
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  /// 1 - sum(unit time) / (workers x loop wall) over every executor loop.
  [[nodiscard]] double executor_idle_fraction() const;

  /// Append this recorder's spans as Chrome trace events under \p pid.
  void write_events(xres::obs::JsonWriter& w, int pid) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open scope indices (calling thread)
};

/// Run `body(i)` for every i < count on \p executor, recording one span
/// \p name per unit (tagged with `tag(i)`) inside an executor-loop span.
void timed_for_each(const xres::TrialExecutor& executor, Tracer& tracer,
                    std::size_t count, const char* name,
                    const std::function<std::string(std::size_t)>& tag,
                    const std::function<void(std::size_t)>& body);

/// Linear-interpolated quantile; 0 for an empty sample.
[[nodiscard]] double quantile_or_zero(std::vector<double> samples, double q);

/// Output checks feeding `wrong_outputs`.
struct Checks {
  std::uint64_t wrong{0};
  std::vector<std::string> notes;  ///< first few failures, for the log
  void expect(bool ok, const std::string& what);
};

/// One timed unit's deterministic results.
struct Outcome {
  std::string digest;        ///< canonical text: CRC'd and byte-compared
  std::uint64_t units{0};    ///< trials, pattern runs or cells attempted
  std::uint64_t failed{0};   ///< units that threw or were quarantined
};

/// Per-layer values a workload measures outside the spans (counters,
/// MetricSet totals, platform accounting).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// The study's paper seed (the default `--seed`; also the seed of the
  /// warm-up unit whose CRC is checked on every run).
  [[nodiscard]] virtual std::uint64_t paper_seed() const = 0;
  /// Slices of the workload's fixed work: run() once per slice seed (the
  /// seed itself, then derive_seed(seed, k) for k = 1, 2, ...), each timed
  /// on its own. Several short slices keep a unit's time steady across
  /// seeds while each timed call stays short.
  [[nodiscard]] virtual std::uint32_t slices() const { return 1; }
  /// Units one run() attempts.
  [[nodiscard]] virtual std::uint64_t units() const = 0;
  /// False when the unit's studies pin one worker whatever the thread count
  /// (then the parallel wall time is the 1-thread one).
  [[nodiscard]] virtual bool parallel() const { return true; }

  /// The set-up the timed unit uses before its first study call: registry
  /// lookups and the study configurations. Everything else (patterns,
  /// plans) the studies make inside the unit.
  virtual void prepare() = 0;

  /// One timed slice: the workload's work for \p seed through the
  /// study-level entry points, nothing traced.
  [[nodiscard]] virtual Outcome run(std::uint64_t seed, unsigned threads) = 0;

  /// The same work decomposed into the benchmark's own calls into module
  /// functions (inputs included: patterns, plans), one span each. Runs the
  /// closure checks on every unit's result and, with tracing on, fills the
  /// counter-based layer values.
  virtual void run_decomposed(std::uint64_t seed, unsigned threads, Tracer& tracer,
                              Checks& checks, LayerValues& layers) = 0;

  /// Per-layer measurements that are not part of the unit's work (planner
  /// and selector per call, harness bare-vs-cell comparison, journal
  /// replay). Traced run only, after run_decomposed.
  virtual void probe(std::uint64_t /*seed*/, Tracer& /*tracer*/, Checks& /*checks*/,
                     LayerValues& /*layers*/) {}
};

/// nullptr for an unknown name. \p small selects the self-test sizes.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name, bool small);

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace xbench
