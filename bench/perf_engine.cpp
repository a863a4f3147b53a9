// google-benchmark microbenchmarks of the simulator substrates: event
// queue, allocator, RNG/distributions, failure process, interval
// optimizers, and end-to-end trial throughput. These guard the simulation
// engine's performance (a full Figure 1-5 reproduction executes tens of
// millions of events).
//
// Besides the usual console table, every run writes a machine-readable
// summary (default BENCH_engine.json, override with --out) so CI can diff
// engine throughput across commits without scraping stdout.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/workload_study.hpp"
#include "failure/process.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "platform/allocator.hpp"
#include "resilience/multilevel.hpp"
#include "resilience/planner.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace xres;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  Pcg32 rng{1};
  for (auto _ : state) {
    EventQueue queue;
    for (std::uint64_t i = 0; i < batch; ++i) {
      queue.schedule(TimePoint::at(Duration::seconds(rng.next_double() * 1e6)), [] {});
    }
    while (auto e = queue.pop()) benchmark::DoNotOptimize(e->time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(100000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The runtime cancels its pending event on every failure; measure the
  // lazy-deletion path.
  Pcg32 rng{2};
  for (auto _ : state) {
    EventQueue queue;
    std::vector<EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(
          queue.schedule(TimePoint::at(Duration::seconds(rng.next_double())), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) queue.cancel(ids[i]);
    while (auto e = queue.pop()) benchmark::DoNotOptimize(e->id);
  }
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_EventQueueFailureStorm(benchmark::State& state) {
  // The failure-storm shape: every failure cancels the victim's pending
  // phase-completion event and schedules the replacement further out, with
  // pops interleaved. Exercises schedule/cancel/pop together plus the
  // compaction path that keeps dead entries from accumulating.
  constexpr std::uint32_t kApps = 256;
  Pcg32 rng{6};
  for (auto _ : state) {
    EventQueue queue;
    std::array<EventId, kApps> pending{};
    double now = 0.0;
    for (auto& id : pending) {
      id = queue.schedule(TimePoint::at(Duration::seconds(rng.next_double() * 100.0)),
                          [] {});
    }
    for (int i = 0; i < 20000; ++i) {
      const std::uint32_t victim = rng.next_below(kApps);
      queue.cancel(pending[victim]);  // stale (already fired) ids are fine
      pending[victim] = queue.schedule(
          TimePoint::at(Duration::seconds(now + 1.0 + rng.next_double() * 100.0)), [] {});
      if ((i & 3) == 0) {
        if (auto e = queue.pop()) {
          now = e->time.to_seconds();
          benchmark::DoNotOptimize(e->id);
        }
      }
    }
    while (auto e = queue.pop()) benchmark::DoNotOptimize(e->id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_EventQueueFailureStorm);

void BM_SimulationSelfScheduling(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    std::uint64_t remaining = 100000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.schedule_after(Duration::seconds(1.0), tick);
    };
    sim.schedule_after(Duration::seconds(1.0), tick);
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_SimulationSelfScheduling);

void BM_AllocatorChurn(benchmark::State& state) {
  Pcg32 rng{3};
  for (auto _ : state) {
    NodeAllocator alloc{120000};
    std::vector<NodeRange> held;
    for (int i = 0; i < 5000; ++i) {
      if (held.empty() || rng.bernoulli(0.6)) {
        if (auto r = alloc.allocate(static_cast<std::uint32_t>(rng.uniform_int(100, 5000)))) {
          held.push_back(*r);
        }
      } else {
        const auto idx = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint32_t>(held.size())));
        alloc.release(held[idx]);
        held[idx] = held.back();
        held.pop_back();
      }
    }
    benchmark::DoNotOptimize(alloc.busy_count());
  }
}
BENCHMARK(BM_AllocatorChurn);

void BM_Pcg32Doubles(benchmark::State& state) {
  Pcg32 rng{4};
  double acc = 0.0;
  for (auto _ : state) acc += rng.next_double();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_Pcg32Doubles);

void BM_DiscreteDistributionSample(benchmark::State& state) {
  const std::vector<double> weights{0.55, 0.35, 0.10};
  DiscreteDistribution dist{weights};
  Pcg32 rng{5};
  std::size_t acc = 0;
  for (auto _ : state) acc += dist.sample(rng);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_DiscreteDistributionSample);

void BM_MultilevelOptimizer(benchmark::State& state) {
  const std::vector<CheckpointLevelSpec> levels{
      CheckpointLevelSpec{Duration::seconds(0.2), Duration::seconds(0.2), 1},
      CheckpointLevelSpec{Duration::seconds(0.8), Duration::seconds(0.8), 2},
      CheckpointLevelSpec{Duration::seconds(1067.0), Duration::seconds(1067.0), 3}};
  const Rate total = Rate::one_per(Duration::minutes(44.0));
  const std::vector<Rate> rates{total * 0.55, total * 0.35, total * 0.10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_multilevel(levels, rates, 128));
  }
}
BENCHMARK(BM_MultilevelOptimizer);

void BM_MakePlan(benchmark::State& state) {
  const MachineSpec machine = MachineSpec::exascale();
  const ResilienceConfig config;
  const AppSpec app{app_type_by_name("D64"), 30000, 1440};
  const auto kind = static_cast<TechniqueKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_plan(kind, app, machine, config));
  }
}
BENCHMARK(BM_MakePlan)
    ->Arg(static_cast<int>(TechniqueKind::kCheckpointRestart))
    ->Arg(static_cast<int>(TechniqueKind::kMultilevel))
    ->Arg(static_cast<int>(TechniqueKind::kRedundancyPartial));

void BM_SingleAppTrial(benchmark::State& state) {
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 1440};
  config.technique = static_cast<TechniqueKind>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_trial(config, ++seed));
  }
}
BENCHMARK(BM_SingleAppTrial)
    ->Arg(static_cast<int>(TechniqueKind::kCheckpointRestart))
    ->Arg(static_cast<int>(TechniqueKind::kMultilevel))
    ->Arg(static_cast<int>(TechniqueKind::kParallelRecovery))
    ->Unit(benchmark::kMillisecond);

void BM_SingleAppTrialFailureHeavy(benchmark::State& state) {
  // End-to-end trial throughput under a 10x failure rate (1-year node
  // MTBF): failure handling — cancel the pending completion, schedule
  // recovery — dominates, so this tracks the whole engine's cancel/
  // reschedule path, not just forward simulation.
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 1440};
  config.technique = TechniqueKind::kMultilevel;
  config.resilience.node_mtbf = Duration::years(1.0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_trial(config, ++seed));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["trials_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleAppTrialFailureHeavy)->Unit(benchmark::kMillisecond);

void BM_TrialBatchFailureHeavy(benchmark::State& state) {
  // The batched successor of BM_SingleAppTrialFailureHeavy: the same
  // failure-heavy cell executed as one TrialExecutor batch, the shape every
  // study cell actually runs as. Pre-derived seeds, the parked worker pool
  // and the per-worker caches all engage here; trials_per_second is the
  // acceptance number the perf gate tracks against the committed baseline.
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 1440};
  config.technique = TechniqueKind::kMultilevel;
  config.resilience.node_mtbf = Duration::years(1.0);
  std::vector<TrialSpec> specs;
  specs.reserve(64);
  for (std::uint64_t t = 0; t < 64; ++t) specs.push_back(TrialSpec{config, {t}});
  const TrialExecutor executor{static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run_batch(20170529, specs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["trials_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * 64.0,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrialBatchFailureHeavy)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TrialExecutorBatch(benchmark::State& state) {
  // Parallel scaling of a fixed 64-trial batch; compare Arg(1) against
  // Arg(N) to read the executor's speedup on this machine.
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 1440};
  config.technique = TechniqueKind::kMultilevel;
  std::vector<TrialSpec> specs;
  specs.reserve(64);
  for (std::uint64_t t = 0; t < 64; ++t) specs.push_back(TrialSpec{config, {t}});
  const TrialExecutor executor{static_cast<unsigned>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(executor.run_batch(20170529, specs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_TrialExecutorBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FullStudyFig1Efficiency(benchmark::State& state) {
  // End-to-end throughput of the Figure 1 workload (A32, full 8-point size
  // sweep, every technique) at a reduced trial count: what `xres run
  // fig1_efficiency_a32` actually spends its time on, journal and figure
  // rendering excluded. trials_per_second here is directly comparable to
  // the ledger's number for the same study.
  EfficiencyStudyConfig config;
  config.app_type = app_type_by_name("A32");
  config.resilience.node_mtbf = Duration::years(10.0);
  config.trials = 4;
  config.threads = static_cast<unsigned>(state.range(0));
  const auto trials_per_run = static_cast<std::int64_t>(
      config.size_fractions.size() * config.techniques.size() * config.trials);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_efficiency_study(config));
  }
  state.SetItemsProcessed(state.iterations() * trials_per_run);
  state.counters["trials_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * trials_per_run),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullStudyFig1Efficiency)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FullStudyResilienceSelection(benchmark::State& state) {
  // End-to-end throughput of one Figure 5 bias (unbiased arrivals, the
  // full scheduler x policy combo set including per-application Resilience
  // Selection) at a reduced pattern count. Pattern-runs are the executor's
  // trial unit here, so trials_per_second matches the ledger's unit for
  // `xres run fig5_resilience_selection`.
  WorkloadStudyConfig config;
  config.patterns = 2;
  config.threads = static_cast<unsigned>(state.range(0));
  const std::vector<WorkloadCombo> combos = figure5_combos();
  const auto runs_per_iter =
      static_cast<std::int64_t>(combos.size() * config.patterns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_workload_study(config, combos));
  }
  state.SetItemsProcessed(state.iterations() * runs_per_iter);
  state.counters["trials_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * runs_per_iter),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullStudyResilienceSelection)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_WorkloadFattreeStorm(benchmark::State& state) {
  // Topology benchmark: one oversubscribed arrival pattern on the fat-tree
  // platform, checkpoint/restart everywhere — the initial fill's first
  // coordinated checkpoints all land on the queued PFS device at once (an
  // 8-application checkpoint storm), exercising admission, fair-share rate
  // recomputation and exact completion rescheduling under contention.
  WorkloadStudyConfig study_config;
  WorkloadEngineConfig engine;
  engine.machine = study_config.machine;
  engine.machine.platform.model = PlatformModelKind::kFattree;
  engine.resilience = study_config.resilience;
  engine.policy = TechniquePolicy::fixed_technique(TechniqueKind::kCheckpointRestart);
  engine.scheduler = SchedulerKind::kSlack;
  engine.seed = derive_seed(20170530, kWorkloadEngineSeedKey, 0);
  const ArrivalPattern pattern = generate_pattern(study_config.workload, 20170530, 0);
  std::uint64_t transfers = 0;
  for (auto _ : state) {
    const WorkloadRunResult result = run_workload(engine, pattern);
    transfers += result.pfs_transfers;
    benchmark::DoNotOptimize(result.dropped_fraction);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(transfers));
  state.counters["pfs_transfers_per_second"] = benchmark::Counter(
      static_cast<double>(transfers), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkloadFattreeStorm)->Unit(benchmark::kMillisecond);

/// Prints the normal console table while also collecting every finished
/// run for the JSON summary.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    std::int64_t iterations{0};
    double real_s_per_iter{0.0};  ///< wall seconds per iteration
    double cpu_s_per_iter{0.0};
    std::vector<std::pair<std::string, double>> counters;
    bool error{false};
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      // With --benchmark_repetitions the library also emits aggregate rows
      // (_mean/_median/_stddev/_cv); the summary keeps the raw repetitions
      // and lets the consumer aggregate (the perf gate takes the minimum).
      if (run.run_type == Run::RT_Aggregate) {
        continue;
      }
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      row.error = run.error_occurred;
      if (run.iterations > 0) {
        row.real_s_per_iter =
            run.real_accumulated_time / static_cast<double>(run.iterations);
        row.cpu_s_per_iter =
            run.cpu_accumulated_time / static_cast<double>(run.iterations);
      }
      for (const auto& [key, counter] : run.counters) {
        row.counters.emplace_back(key, counter.value);
      }
      rows_.push_back(std::move(row));
    }
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

void write_summary(const std::string& path, const std::vector<CapturingReporter::Row>& rows,
                   double wall_seconds) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value("xres-bench-v1");
  json.key("wall_seconds");
  json.value(wall_seconds);
  json.key("benchmarks");
  json.begin_array();
  for (const CapturingReporter::Row& row : rows) {
    json.begin_object();
    json.key("name");
    json.value(row.name);
    json.key("iterations");
    json.value(static_cast<std::uint64_t>(row.iterations));
    json.key("real_s_per_iter");
    json.value(row.real_s_per_iter);
    json.key("cpu_s_per_iter");
    json.value(row.cpu_s_per_iter);
    if (row.error) {
      json.key("error");
      json.value(true);
    }
    for (const auto& [key, value] : row.counters) {
      json.key(key);
      json.value(value);
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off our own --out flag before google-benchmark sees the args.
  std::string out_path = "BENCH_engine.json";
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      continue;
    }
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;

  obs::PhaseProfiler profiler;
  profiler.begin("benchmarks");
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  profiler.end();

  if (!out_path.empty()) {
    write_summary(out_path, reporter.rows(), profiler.total_seconds());
    std::printf("benchmark summary written to %s (%zu rows)\n", out_path.c_str(),
                reporter.rows().size());
  }
  benchmark::Shutdown();
  return 0;
}
