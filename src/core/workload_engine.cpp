#include "core/workload_engine.hpp"

#include <algorithm>
#include <memory>
#include <optional>
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

WorkloadPlanCache::WorkloadPlanCache(MachineSpec machine, ResilienceConfig resilience)
    : machine_{std::move(machine)}, resilience_{std::move(resilience)} {}

const ExecutionPlan& WorkloadPlanCache::plan(const TechniquePolicy& policy,
                                             const AppSpec& spec) {
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto [it, inserted] = plans_.try_emplace(Key{policy.mode, policy.fixed, spec});
  if (!inserted) return it->second;
  switch (policy.mode) {
    case TechniquePolicy::Mode::kIdealBaseline:
      it->second = make_plan(TechniqueKind::kNone, spec, machine_, resilience_);
      break;
    case TechniquePolicy::Mode::kFixed:
      it->second = make_plan(policy.fixed, spec, machine_, resilience_);
      break;
    case TechniquePolicy::Mode::kSelection:
      if (!selector_.has_value()) selector_.emplace(machine_, resilience_);
      it->second = selector_->select(spec).plan;
      break;
  }
  return it->second;
}

std::size_t WorkloadPlanCache::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return plans_.size();
}

namespace {

/// Per-job engine state is keyed by the job's position in the pattern, and
/// so is the machine allocation owner.
OwnerId owner_of(std::size_t job) { return OwnerId{job}; }

class WorkloadEngine final : public SchedulerContext {
 public:
  WorkloadEngine(const WorkloadEngineConfig& config, const ArrivalPattern& pattern,
                 WorkloadPlanCache& plan_cache)
      : config_{config},
        plan_cache_{plan_cache},
        machine_{config.machine},
        severity_{config.resilience.severity_weights},
        scheduler_{make_scheduler(config.scheduler)},
        sched_rng_{derive_seed(config.seed, 0x7363686564ULL)},
        jobs_{pattern.jobs},
        plans_(jobs_.size()),
        deadline_events_(jobs_.size()),
        platform_model_{make_platform_model(config.machine)},
        runtimes_(jobs_.size()) {
    config_.resilience.validate();
    XRES_CHECK(plan_cache.machine() == config.machine &&
                   plan_cache.resilience() == config.resilience,
               "the plan cache was built for another machine or resilience config");
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
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      sim_.schedule_at(jobs_[j].arrival, [this, j] { on_arrival(j); });
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
    const std::size_t j = index_of(job);
    // Looked up once per run, at the first attempt: schedulers retry waiting
    // jobs at every mapping event, and the plan depends only on the job.
    const ExecutionPlan*& memo = plans_[j];
    if (memo == nullptr) memo = &plan_cache_.plan(config_.policy, job.spec);
    if (!memo->feasible) return false;
    auto range = machine_.allocate(memo->physical_nodes, owner_of(j));
    if (!range.has_value()) return false;
    // The job starts and is never attempted again: its runtime takes a copy.
    ExecutionPlan plan = *memo;
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
    // The runtime stays allocated until engine teardown: it may be on the
    // call stack when it finishes.
    runtimes_[j] = std::make_unique<ResilientAppRuntime>(
        sim_, std::move(plan),
        derive_seed(config_.seed, static_cast<std::uint64_t>(job.id), 0x61707021ULL),
        [this, j](const ExecutionResult& r) { on_runtime_finished(j, r); });
    ResilientAppRuntime& runtime = *runtimes_[j];
    if (pfs_device_.has_value()) runtime.set_pfs_device(&*pfs_device_);
    runtime.set_observer(config_.obs);
    remove_unmapped(j);
    runtime.start();
    return true;
  }

  void drop(const Job& job) override {
    // Slack scheduler: deadline-infeasible, removed without executing.
    const std::size_t j = index_of(job);
    remove_unmapped(j);
    cancel_deadline(j);
    ++dropped_;
    ++dropped_before_start_;
    note_departure();
  }

 private:
  /// Position of \p job in jobs_: schedulers hand back the pointers
  /// run_mapping gave them.
  std::size_t index_of(const Job& job) const {
    XRES_CHECK(&job >= jobs_.data() && &job < jobs_.data() + jobs_.size(),
               "job is not one of this run's");
    return static_cast<std::size_t>(&job - jobs_.data());
  }

  /// The job's runtime while it runs, else null.
  ResilientAppRuntime* running(std::size_t j) const {
    ResilientAppRuntime* runtime = runtimes_[j].get();
    return runtime != nullptr && !runtime->finished() ? runtime : nullptr;
  }

  void on_arrival(std::size_t j) {
    unmapped_.push_back(j);
    deadline_events_[j] = sim_.schedule_at(jobs_[j].deadline, [this, j] { on_deadline(j); });
    run_mapping();
  }

  void on_deadline(std::size_t j) {
    deadline_events_[j] = EventId{};
    if (ResilientAppRuntime* runtime = running(j)) {
      runtime->abort();
      retire(j);
      ++dropped_;
      ++dropped_while_running_;
      note_departure();
      run_mapping();
      return;
    }
    if (remove_unmapped(j)) {
      ++dropped_;
      ++dropped_before_start_;
      note_departure();
    }
    // Otherwise the job already completed and its deadline event was
    // cancelled; a stale fire is impossible, but harmless if it were.
  }

  void on_runtime_finished(std::size_t j, const ExecutionResult& result) {
    // Natural completion, or the wall-time-cap abort inside the runtime.
    retire(j);
    cancel_deadline(j);
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
    // Allocation owners are job positions (owner_of).
    if (ResilientAppRuntime* runtime = running(static_cast<std::size_t>(victim.owner))) {
      runtime->on_failure(failure);
    }
  }

  /// Book a finished job's result and release its nodes.
  void retire(std::size_t j) {
    const ExecutionResult& result = runtimes_[j]->result();
    record_result_metrics(config_.obs, result);
    if (config_.record_occupancy) {
      occupancy_.record_end(jobs_[j].id, sim_.now(), result.completed);
    }
    machine_.release(owner_of(j));
    on_utilization_changed();
  }

  void run_mapping() {
    std::vector<const Job*> pending;
    pending.reserve(unmapped_.size());
    for (const std::size_t j : unmapped_) pending.push_back(&jobs_[j]);
    scheduler_->map(pending, *this, sched_rng_);
  }

  /// Take a waiting job out of the unmapped set (it will not be attempted
  /// again); false when it was not waiting.
  bool remove_unmapped(std::size_t j) {
    auto it = std::find(unmapped_.begin(), unmapped_.end(), j);
    if (it == unmapped_.end()) return false;
    unmapped_.erase(it);
    return true;
  }

  void cancel_deadline(std::size_t j) {
    sim_.cancel(deadline_events_[j]);
    deadline_events_[j] = EventId{};
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
  WorkloadPlanCache& plan_cache_;
  Simulation sim_;
  Machine machine_;
  SeverityModel severity_;
  std::unique_ptr<Scheduler> scheduler_;
  Pcg32 sched_rng_;
  std::vector<Job> jobs_;
  // Per-job state, parallel to jobs_.
  std::vector<const ExecutionPlan*> plans_;  ///< into plan_cache_, once looked up
  std::vector<EventId> deadline_events_;

  std::optional<SystemFailureProcess> failures_;
  std::unique_ptr<PlatformModel> platform_model_;
  /// The machine-wide PFS device, when the platform model has one.
  std::optional<PfsDevice> pfs_device_;
  /// Per-job runtimes, parallel to jobs_; declared after the device they
  /// may hold a transfer on, so they are destroyed first.
  std::vector<std::unique_ptr<ResilientAppRuntime>> runtimes_;

  std::vector<std::size_t> unmapped_;  // arrival order

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
  if (config.plans != nullptr) return WorkloadEngine{config, pattern, *config.plans}.run();
  WorkloadPlanCache plans{config.machine, config.resilience};
  return WorkloadEngine{config, pattern, plans}.run();
}

}  // namespace xres
