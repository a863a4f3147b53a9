#include "core/workload_engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "failure/process.hpp"
#include "failure/severity.hpp"
#include "obs/trial_obs.hpp"
#include "platform/machine.hpp"
#include "platform/platform_model.hpp"
#include "resilience/planner.hpp"
#include "resilience/selector.hpp"
#include "runtime/app_runtime.hpp"
#include "sim/pfs_device.hpp"
#include "sim/simulation.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace xres {

namespace {

OwnerId owner_of(JobId id) { return OwnerId{static_cast<std::uint64_t>(id)}; }

class WorkloadEngine final : public SchedulerContext {
 public:
  WorkloadEngine(const WorkloadEngineConfig& config, const ArrivalPattern& pattern)
      : config_{config},
        machine_{config.machine},
        severity_{config.resilience.severity_weights},
        scheduler_{make_scheduler(config.scheduler)},
        sched_rng_{derive_seed(config.seed, 0x7363686564ULL)},
        jobs_{pattern.jobs},
        platform_model_{make_platform_model(config.machine)} {
    config_.resilience.validate();
    if (config_.policy.mode == TechniquePolicy::Mode::kSelection) {
      selector_.emplace(config_.machine, config_.resilience);
    }
    if (config_.policy.mode != TechniquePolicy::Mode::kIdealBaseline) {
      failures_.emplace(
          sim_, machine_, config_.resilience.node_mtbf, severity_,
          Pcg32{derive_seed(config.seed, 0x73797366ULL)},
          [this](const Failure& f, const Machine::Victim& v) { deliver_failure(f, v); },
          config_.bursts);
    }
    if (const auto shape = platform_model_->pfs_device()) {
      pfs_device_.emplace(sim_, *shape);
    }
    if (config_.scheduler == SchedulerKind::kTopoPack) {
      // Pack allocations under common leaf switches; inert for timing
      // under the flat model but minimizes spanned uplinks under fattree.
      machine_.set_placement_group(config_.machine.platform.fattree.leaf_radix);
    }
  }

  WorkloadRunResult run() {
    for (const Job& job : jobs_) {
      sim_.schedule_at(job.arrival, [this, id = job.id] { on_arrival(id); });
    }
    if (failures_.has_value()) failures_->start();
    sim_.run();

    if (config_.obs != nullptr) {
      const obs::BuiltinMetrics& m = obs::builtin_metrics();
      config_.obs->count(m.jobs_submitted, jobs_.size());
      config_.obs->count(m.jobs_completed, completed_);
      config_.obs->count(m.jobs_dropped, dropped_);
      config_.obs->count(m.sim_events, sim_.events_processed());
      config_.obs->observe(m.trial_events,
                           static_cast<double>(sim_.events_processed()));
    }

    WorkloadRunResult result;
    result.total_jobs = static_cast<std::uint32_t>(jobs_.size());
    result.completed = completed_;
    result.dropped = dropped_;
    XRES_CHECK(result.completed + result.dropped == result.total_jobs,
               "job accounting mismatch at end of workload run");
    result.dropped_fraction =
        result.total_jobs == 0
            ? 0.0
            : static_cast<double>(result.dropped) / static_cast<double>(result.total_jobs);
    result.failures_injected =
        failures_.has_value() ? failures_->failures_delivered() : 0;
    result.dropped_before_start = dropped_before_start_;
    result.dropped_while_running = dropped_while_running_;
    XRES_CHECK(result.dropped_before_start + result.dropped_while_running ==
                   result.dropped,
               "drop breakdown mismatch");
    result.completed_slowdown = slowdown_.summary();
    result.queue_wait_hours = queue_wait_.summary();
    result.makespan = last_departure_.since_origin();
    const double horizon = sim_.now().to_seconds();
    result.mean_utilization =
        horizon > 0.0
            ? busy_integral_ / (horizon * static_cast<double>(machine_.capacity()))
            : 0.0;
    result.selection_counts = selection_counts_;
    result.occupancy = std::move(occupancy_);
    if (pfs_device_.has_value()) {
      result.pfs_transfers = pfs_device_->completed_transfers();
      result.pfs_measured_s = pfs_device_->measured_seconds();
      result.pfs_nominal_s = pfs_device_->nominal_seconds();
    }
    return result;
  }

  // SchedulerContext ------------------------------------------------------

  [[nodiscard]] TimePoint now() const override { return sim_.now(); }

  [[nodiscard]] std::uint32_t free_nodes() const override { return machine_.idle_nodes(); }

  bool try_start(const Job& job) override {
    // Never start a job at or past its deadline: the concurrently firing
    // deadline event is about to drop it from the queue.
    if (job.deadline <= sim_.now()) return false;
    ExecutionPlan plan = plan_for(job.spec);
    if (!plan.feasible) return false;
    const OwnerId owner = owner_of(job.id);
    auto range = machine_.allocate(plan.physical_nodes, owner);
    if (!range.has_value()) return false;
    on_utilization_changed();
    if (config_.record_occupancy) occupancy_.record_start(job.id, *range, sim_.now());

    if (config_.policy.mode == TechniquePolicy::Mode::kSelection) {
      ++selection_counts_[plan.kind];
    }

    queue_wait_.add((sim_.now() - job.arrival).to_hours());
    if (pfs_device_.has_value()) {
      // Placement is now known: tighten each PFS level's rate cap to what
      // the platform grants the actual allocated range (under the fat tree
      // a fragmented or unaligned placement spans more switches and may
      // inject less).
      for (CheckpointLevelSpec& level : plan.levels) {
        if (level.uses_shared_pfs && level.pfs_bytes > DataSize::zero()) {
          level.pfs_rate_cap =
              platform_model_->pfs_rate_cap_for_range(range->first, range->count);
        }
      }
    }
    auto runtime = std::make_unique<ResilientAppRuntime>(
        sim_, std::move(plan),
        derive_seed(config_.seed, static_cast<std::uint64_t>(job.id), 0x61707021ULL),
        [this, id = job.id](const ExecutionResult& r) { on_runtime_finished(id, r); });
    if (pfs_device_.has_value()) runtime->set_pfs_device(&*pfs_device_);
    runtime->set_observer(config_.obs);
    ResilientAppRuntime* raw = runtime.get();
    running_.emplace(job.id, std::move(runtime));
    remove_unmapped(job.id);
    raw->start();
    return true;
  }

  void drop(const Job& job) override {
    // Slack scheduler: deadline-infeasible, removed without executing.
    remove_unmapped(job.id);
    cancel_deadline(job.id);
    ++dropped_;
    ++dropped_before_start_;
    note_departure();
  }

 private:
  const Job& job_of(JobId id) const {
    for (const Job& job : jobs_) {
      if (job.id == id) return job;
    }
    XRES_CHECK(false, "unknown job id");
  }

  ExecutionPlan plan_for(const AppSpec& spec) {
    switch (config_.policy.mode) {
      case TechniquePolicy::Mode::kIdealBaseline:
        return make_plan(TechniqueKind::kNone, spec, config_.machine, config_.resilience);
      case TechniquePolicy::Mode::kFixed:
        return make_plan(config_.policy.fixed, spec, config_.machine, config_.resilience);
      case TechniquePolicy::Mode::kSelection:
        return selector_->select(spec).plan;
    }
    XRES_CHECK(false, "unhandled technique policy");
  }

  void on_arrival(JobId id) {
    unmapped_.push_back(id);
    const Job& job = job_of(id);
    deadline_events_[id] = sim_.schedule_at(job.deadline, [this, id] { on_deadline(id); });
    run_mapping();
  }

  void on_deadline(JobId id) {
    deadline_events_.erase(id);
    auto it = running_.find(id);
    if (it != running_.end()) {
      it->second->abort();
      retire_running(it);
      ++dropped_;
      ++dropped_while_running_;
      note_departure();
      run_mapping();
      return;
    }
    if (remove_unmapped(id)) {
      ++dropped_;
      ++dropped_before_start_;
      note_departure();
    }
    // Otherwise the job already completed and its deadline event was
    // cancelled; a stale fire is impossible, but harmless if it were.
  }

  void on_runtime_finished(JobId id, const ExecutionResult& result) {
    // Natural completion, or the wall-time-cap abort inside the runtime.
    auto it = running_.find(id);
    XRES_CHECK(it != running_.end(), "completion for a job that is not running");
    retire_running(it);
    cancel_deadline(id);
    if (result.completed) {
      ++completed_;
      if (result.baseline > Duration::zero()) {
        slowdown_.add(result.wall_time / result.baseline);
      }
    } else {
      ++dropped_;
      ++dropped_while_running_;
    }
    note_departure();
    run_mapping();
  }

  void deliver_failure(const Failure& failure, const Machine::Victim& victim) {
    const auto id = JobId{static_cast<std::uint64_t>(victim.owner)};
    auto it = running_.find(id);
    if (it == running_.end()) return;  // victim already left the machine
    it->second->on_failure(failure);
  }

  /// Release nodes and move the runtime to the retired list (it may be on
  /// the call stack; destruction is deferred to engine teardown).
  void retire_running(std::unordered_map<JobId, std::unique_ptr<ResilientAppRuntime>>::iterator it) {
    record_result_metrics(config_.obs, it->second->result());
    if (config_.record_occupancy) {
      occupancy_.record_end(it->first, sim_.now(),
                            it->second->result().completed);
    }
    machine_.release(owner_of(it->first));
    on_utilization_changed();
    retired_.push_back(std::move(it->second));
    running_.erase(it);
  }

  void run_mapping() {
    std::vector<const Job*> pending;
    pending.reserve(unmapped_.size());
    for (JobId id : unmapped_) pending.push_back(&job_of(id));
    scheduler_->map(pending, *this, sched_rng_);
  }

  bool remove_unmapped(JobId id) {
    auto it = std::find(unmapped_.begin(), unmapped_.end(), id);
    if (it == unmapped_.end()) return false;
    unmapped_.erase(it);
    return true;
  }

  void cancel_deadline(JobId id) {
    auto it = deadline_events_.find(id);
    if (it == deadline_events_.end()) return;
    sim_.cancel(it->second);
    deadline_events_.erase(it);
  }

  void on_utilization_changed() {
    const double now_s = sim_.now().to_seconds();
    busy_integral_ += static_cast<double>(last_busy_) * (now_s - last_busy_change_);
    last_busy_change_ = now_s;
    last_busy_ = machine_.busy_nodes();
    if (failures_.has_value()) failures_->notify_utilization_changed();
  }

  void note_departure() { last_departure_ = sim_.now(); }

  WorkloadEngineConfig config_;
  Simulation sim_;
  Machine machine_;
  SeverityModel severity_;
  std::unique_ptr<Scheduler> scheduler_;
  Pcg32 sched_rng_;
  std::vector<Job> jobs_;

  std::optional<ResilienceSelector> selector_;
  std::optional<SystemFailureProcess> failures_;
  std::unique_ptr<PlatformModel> platform_model_;
  /// The machine-wide PFS device, when the platform model has one.
  std::optional<PfsDevice> pfs_device_;

  std::vector<JobId> unmapped_;  // arrival order
  std::unordered_map<JobId, std::unique_ptr<ResilientAppRuntime>> running_;
  std::unordered_map<JobId, EventId> deadline_events_;
  std::vector<std::unique_ptr<ResilientAppRuntime>> retired_;

  std::uint32_t completed_{0};
  std::uint32_t dropped_{0};
  std::uint32_t dropped_before_start_{0};
  std::uint32_t dropped_while_running_{0};
  RunningStats slowdown_;
  RunningStats queue_wait_;
  OccupancyLog occupancy_;
  std::map<TechniqueKind, std::uint32_t> selection_counts_;
  TimePoint last_departure_{};
  double busy_integral_{0.0};
  double last_busy_change_{0.0};
  std::uint32_t last_busy_{0};
};

}  // namespace

WorkloadRunResult run_workload(const WorkloadEngineConfig& config,
                               const ArrivalPattern& pattern) {
  XRES_CHECK(!pattern.jobs.empty(), "workload pattern is empty");
  WorkloadEngine engine{config, pattern};
  return engine.run();
}

}  // namespace xres
