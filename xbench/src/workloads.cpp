// The four benchmark workloads. Each one has two forms of the same work:
//
//  * run(): one timed slice, through the study-level entry points the paper
//    studies use (run_workload_study, run_efficiency_study,
//    study::run_suite_cells, study::run_study), nothing traced;
//  * run_decomposed(): the same work as the benchmark's own calls into module
//    functions (generate_pattern, make_plan, run_trial, run_workload, ...),
//    one span per call, with the closure checks applied to every unit.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/app_type.hpp"
#include "apps/workload.hpp"
#include "bench.hpp"
#include "core/single_app_study.hpp"
#include "core/workload_engine.hpp"
#include "core/workload_study.hpp"
#include "failure/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "recovery/journal.hpp"
#include "recovery/json_parse.hpp"
#include "resilience/planner.hpp"
#include "resilience/selector.hpp"
#include "study/capture.hpp"
#include "study/options.hpp"
#include "study/platform_params.hpp"
#include "study/registry.hpp"
#include "study/study_main.hpp"
#include "study/suite.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xbench {

namespace {

using namespace xres;
namespace fs = std::filesystem;

constexpr std::uint64_t kSingleAppSeed = 20170529;
constexpr std::uint64_t kMultiAppSeed = 20170530;
/// The engine-seed key the workload studies derive per pattern
/// (derive_seed(study seed, key, pattern)); the decomposed runs use it so
/// they simulate exactly the runs the studies simulate.
constexpr std::uint64_t kEngineSeedKey = 0x656e67696eULL;

std::string num(double v) { return obs::json_number(v); }

void append_summary(std::string& out, const Summary& s) {
  out += std::to_string(s.count) + ' ' + num(s.mean) + ' ' + num(s.stddev) + ' ' +
         num(s.min) + ' ' + num(s.max);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  XRES_CHECK(in.good(), "cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// runtime.* layer values from a merged MetricSet.
void runtime_layers(const obs::MetricSet& merged, LayerValues& layers) {
  const obs::BuiltinMetrics& m = obs::builtin_metrics();
  layers["runtime.sim_events"] = static_cast<double>(merged.counter(m.sim_events));
  layers["runtime.checkpoints_completed"] =
      static_cast<double>(merged.counter(m.checkpoints_completed));
  layers["runtime.rollbacks"] = static_cast<double>(merged.counter(m.rollbacks));
  layers["runtime.failures_seen"] = static_cast<double>(merged.counter(m.failures_seen));
  const obs::HistogramData& rework = merged.histogram(m.rollback_rework_minutes);
  layers["runtime.rollback_rework_min_minutes"] = rework.count > 0 ? rework.min : 0.0;
}

/// Closure checks on one pattern run's job accounting.
void check_run(const WorkloadRunResult& r, Checks& checks, const std::string& where) {
  checks.expect(r.completed + r.dropped == r.total_jobs,
                where + ": completed + dropped != total_jobs");
  checks.expect(r.dropped_before_start + r.dropped_while_running == r.dropped,
                where + ": dropped_before_start + dropped_while_running != dropped");
  checks.expect(r.dropped_fraction >= 0.0 && r.dropped_fraction <= 1.0,
                where + ": dropped fraction outside [0, 1]");
  checks.expect(r.mean_utilization >= 0.0 && r.mean_utilization <= 1.0,
                where + ": utilization outside [0, 1]");
}

/// Closure checks on one single-application trial.
void check_trial(const ExecutionResult& r, Checks& checks, const std::string& where) {
  checks.expect(r.efficiency >= 0.0 && r.efficiency <= 1.0,
                where + ": efficiency outside [0, 1]");
  checks.expect(r.completed || r.efficiency == 0.0,
                where + ": an aborted trial reports nonzero efficiency");
  checks.expect(r.rollbacks <= r.failures_seen, where + ": more rollbacks than failures");
}

const char* scheduler_tag(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFcfs: return "fcfs";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kSlack: return "slack";
    default: return to_string(kind);
  }
}

const char* policy_tag(const TechniquePolicy& policy) {
  switch (policy.mode) {
    case TechniquePolicy::Mode::kIdealBaseline: return "ideal";
    case TechniquePolicy::Mode::kFixed: return "fixed";
    case TechniquePolicy::Mode::kSelection: return "selection";
  }
  return "?";
}

const study::StudyDefinition* find_study(const std::string& name) {
  const study::StudyDefinition* def = study::StudyRegistry::instance().find(name);
  XRES_CHECK(def != nullptr, "study not registered: " + name);
  return def;
}

/// The planner over every (job, workload technique) pair of \p patterns.
void plan_jobs(const std::vector<ArrivalPattern>& patterns, const MachineSpec& machine,
               Tracer& tracer) {
  const ResilienceConfig resilience;
  for (const ArrivalPattern& pattern : patterns) {
    for (const Job& job : pattern.jobs) {
      for (TechniqueKind kind : workload_techniques()) {
        const Tracer::Scope span = tracer.scope("resilience.make_plan");
        const ExecutionPlan plan = make_plan(kind, job.spec, machine, resilience);
        XRES_CHECK(plan.app.nodes == job.spec.nodes, "planner changed the application");
      }
    }
  }
}

// --------------------------------------------------------------------------
// The paper's single-application figures (1-3).

struct Figure {
  const char* study;
  const char* app_type;
  double mtbf_years;
};

constexpr Figure kFigures[] = {{"fig1_efficiency_a32", "A32", 10.0},
                               {"fig2_efficiency_d64", "D64", 10.0},
                               {"fig3_efficiency_d64_mtbf2p5", "D64", 2.5}};

EfficiencyStudyConfig figure_config(const Figure& figure, std::uint32_t trials,
                                    std::uint64_t seed, unsigned threads) {
  EfficiencyStudyConfig config;
  config.app_type = app_type_by_name(figure.app_type);
  config.resilience.node_mtbf = Duration::years(figure.mtbf_years);
  config.trials = trials;
  config.seed = seed;
  config.threads = threads;
  return config;
}

/// The study's application for one size fraction (its node rounding).
AppSpec figure_app(const EfficiencyStudyConfig& config, double fraction) {
  const auto nodes = static_cast<std::uint32_t>(
      std::llround(fraction * static_cast<double>(config.machine.node_count)));
  return AppSpec::from_baseline(config.app_type, std::max(1U, nodes), config.baseline);
}

/// plans[figure][size][technique], each built inside a make_plan span.
using FigurePlans = std::vector<std::vector<std::vector<ExecutionPlan>>>;

FigurePlans plan_figures(std::uint32_t trials, Tracer& tracer) {
  FigurePlans plans;
  for (const Figure& figure : kFigures) {
    const EfficiencyStudyConfig config = figure_config(figure, trials, 0, 1);
    auto& by_size = plans.emplace_back();
    for (double fraction : config.size_fractions) {
      const AppSpec app = figure_app(config, fraction);
      auto& by_tech = by_size.emplace_back();
      for (TechniqueKind kind : config.techniques) {
        const Tracer::Scope span = tracer.scope("resilience.make_plan");
        by_tech.push_back(make_plan(kind, app, config.machine, config.resilience));
      }
    }
  }
  return plans;
}

void append_efficiency(std::string& out, const EfficiencyStudyResult& r) {
  for (std::size_t si = 0; si < r.efficiency.size(); ++si) {
    for (std::size_t ti = 0; ti < r.efficiency[si].size(); ++ti) {
      out += std::to_string(si) + '.' + std::to_string(ti) + ' ';
      append_summary(out, r.efficiency[si][ti]);
      out += ' ' + num(r.mean_failures[si][ti]) + '\n';
    }
  }
}

// --------------------------------------------------------------------------
// multiapp: Figure 4 plus Figure 5 for all four biases.

constexpr WorkloadBias kBiases[] = {WorkloadBias::kUnbiased, WorkloadBias::kHighMemory,
                                    WorkloadBias::kHighCommunication,
                                    WorkloadBias::kLargeApps};

struct ComboGroup {
  std::size_t bias;  ///< index into kBiases
  std::vector<WorkloadCombo> combos;
};

std::vector<ComboGroup> multiapp_groups() {
  std::vector<ComboGroup> groups{{0, figure4_combos()}};
  for (std::size_t b = 0; b < std::size(kBiases); ++b) {
    groups.push_back({b, figure5_combos()});
  }
  return groups;
}

class MultiApp final : public Workload {
 public:
  explicit MultiApp(std::uint32_t patterns) : patterns_{patterns} {}

  std::uint64_t paper_seed() const override { return kMultiAppSeed; }
  std::uint32_t slices() const override { return 3; }
  std::uint64_t units() const override {
    std::uint64_t runs = 0;
    for (const ComboGroup& g : multiapp_groups()) runs += g.combos.size() * patterns_;
    return runs;
  }

  void prepare() override { groups_ = multiapp_groups(); }

  Outcome run(std::uint64_t seed, unsigned threads) override {
    Outcome out;
    for (const ComboGroup& group : groups_) {
      WorkloadStudyConfig config;
      config.patterns = patterns_;
      config.seed = seed;
      config.threads = threads;
      config.workload.bias = kBiases[group.bias];
      const std::vector<WorkloadComboResult> results =
          run_workload_study(config, group.combos);
      out.digest += std::string{"bias "} + to_string(kBiases[group.bias]) + '\n';
      for (const WorkloadComboResult& r : results) {
        out.digest += r.combo.name() + " | ";
        append_summary(out.digest, r.dropped_fraction);
        out.digest += " | ";
        append_summary(out.digest, r.mean_utilization);
        out.digest += " | " + num(r.mean_failures);
        for (const auto& [kind, count] : r.selection_counts) {
          out.digest += std::string{" "} + to_string(kind) + '=' + std::to_string(count);
        }
        out.digest += '\n';
      }
      out.units += group.combos.size() * patterns_;
    }
    return out;
  }

  void run_decomposed(std::uint64_t seed, unsigned threads, Tracer& tracer,
                      Checks& checks, LayerValues& layers) override {
    // The patterns run_workload_study generates for each bias.
    patterns_by_bias_.assign(std::size(kBiases), {});
    for (std::size_t b = 0; b < std::size(kBiases); ++b) {
      WorkloadConfig config;
      config.bias = kBiases[b];
      for (std::uint32_t p = 0; p < patterns_; ++p) {
        const Tracer::Scope span = tracer.scope("apps.generate_pattern");
        patterns_by_bias_[b].push_back(generate_pattern(config, seed, p));
      }
    }
    const TrialExecutor executor{threads};
    obs::MetricSet merged;
    for (const ComboGroup& group : groups_) {
      const std::vector<ArrivalPattern>& patterns = patterns_by_bias_[group.bias];
      const std::size_t count = group.combos.size() * patterns_;
      std::vector<WorkloadRunResult> runs(count);
      std::vector<obs::TrialObs> observers(tracer.enabled() ? count : 0);
      timed_for_each(
          executor, tracer, count, "core.run_workload",
          [&](std::size_t i) {
            const WorkloadCombo& combo = group.combos[i / patterns_];
            return std::string{scheduler_tag(combo.scheduler)} + '/' +
                   policy_tag(combo.policy);
          },
          [&](std::size_t i) {
            const WorkloadCombo& combo = group.combos[i / patterns_];
            const auto p = static_cast<std::uint32_t>(i % patterns_);
            WorkloadEngineConfig engine;
            engine.policy = combo.policy;
            engine.scheduler = combo.scheduler;
            engine.seed = derive_seed(seed, kEngineSeedKey, p);
            if (!observers.empty()) {
              observers[i].enable_metrics();
              engine.obs = &observers[i];
            }
            runs[i] = run_workload(engine, patterns[p]);
          });
      for (std::size_t i = 0; i < count; ++i) {
        check_run(runs[i], checks,
                  group.combos[i / patterns_].name() + " pattern " +
                      std::to_string(i % patterns_));
        if (!observers.empty()) merged.merge(*observers[i].metrics());
      }
    }
    if (tracer.enabled()) runtime_layers(merged, layers);
  }

  /// The planner and the selector over every job of the pass's patterns.
  void probe(std::uint64_t /*seed*/, Tracer& tracer, Checks& checks,
             LayerValues& /*layers*/) override {
    const MachineSpec machine;
    const ResilienceSelector selector{machine, ResilienceConfig{}};
    for (const auto& patterns : patterns_by_bias_) {
      plan_jobs(patterns, machine, tracer);
      for (const ArrivalPattern& pattern : patterns) {
        for (const Job& job : pattern.jobs) {
          const Tracer::Scope span = tracer.scope("resilience.select");
          const ResilienceSelector::Selection choice = selector.select(job.spec);
          checks.expect(choice.predicted_efficiency >= 0.0, "negative predicted efficiency");
        }
      }
    }
  }

 private:
  std::uint32_t patterns_;
  std::vector<ComboGroup> groups_;
  std::vector<std::vector<ArrivalPattern>> patterns_by_bias_;
};

// --------------------------------------------------------------------------
// singleapp: Figures 1-3.

class SingleApp final : public Workload {
 public:
  explicit SingleApp(std::uint32_t trials) : trials_{trials} {}

  std::uint64_t paper_seed() const override { return kSingleAppSeed; }
  std::uint32_t slices() const override { return 2; }
  std::uint64_t units() const override {
    const EfficiencyStudyConfig config;
    return std::size(kFigures) * config.size_fractions.size() * config.techniques.size() *
           trials_;
  }

  void prepare() override {
    configs_.clear();
    for (const Figure& figure : kFigures) configs_.push_back(figure_config(figure, trials_, 0, 1));
  }

  Outcome run(std::uint64_t seed, unsigned threads) override {
    Outcome out;
    for (std::size_t f = 0; f < std::size(kFigures); ++f) {
      EfficiencyStudyConfig config = configs_[f];
      config.seed = seed;
      config.threads = threads;
      const EfficiencyStudyResult r = run_efficiency_study(config);
      out.digest += std::string{kFigures[f].study} + '\n';
      append_efficiency(out.digest, r);
    }
    out.units = units();
    return out;
  }

  void run_decomposed(std::uint64_t seed, unsigned threads, Tracer& tracer,
                      Checks& checks, LayerValues& layers) override {
    const FigurePlans plans = plan_figures(trials_, tracer);
    const TrialExecutor executor{threads};
    obs::MetricSet merged;
    const std::uint64_t root = seed;
    for (std::size_t f = 0; f < std::size(kFigures); ++f) {
      const EfficiencyStudyConfig config = figure_config(kFigures[f], trials_, root, threads);
      const SeverityModel severity{config.resilience.severity_weights};
      for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
        const AppSpec app = figure_app(config, config.size_fractions[si]);
        for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
          const ExecutionPlan& plan = plans[f][si][ti];
          if (plan.feasible) {
            // One failure trace at the cell's rate over its baseline.
            Pcg32 rng{derive_seed(root, si, ti)};
            Tracer::Scope span = tracer.scope("failure.generate_trace");
            const FailureTrace trace = FailureTrace::generate(
                plan.failure_rate, plan.baseline, severity, config.failure_distribution,
                rng);
            span.set_work(trace.size());
          }
          SingleAppTrialConfig trial;
          trial.app = app;
          trial.technique = config.techniques[ti];
          trial.machine = config.machine;
          trial.resilience = config.resilience;
          trial.failure_distribution = config.failure_distribution;
          std::vector<TrialSpec> specs;
          specs.reserve(trials_);
          for (std::uint32_t t = 0; t < trials_; ++t) {
            specs.push_back(TrialSpec{trial, {si, ti, t}});
          }
          std::vector<ExecutionResult> results(specs.size());
          std::vector<obs::TrialObs> observers(tracer.enabled() ? specs.size() : 0);
          timed_for_each(executor, tracer, specs.size(), "core.run_trial", {},
                         [&](std::size_t i) {
                           obs::TrialObs* o = nullptr;
                           if (!observers.empty()) {
                             observers[i].enable_metrics();
                             o = &observers[i];
                           }
                           results[i] = run_trial(specs[i], root, o);
                         });
          for (std::size_t i = 0; i < results.size(); ++i) {
            check_trial(results[i], checks,
                        std::string{kFigures[f].study} + " cell " + std::to_string(si) +
                            '.' + std::to_string(ti));
            if (!observers.empty()) merged.merge(*observers[i].metrics());
          }
        }
      }
    }
    if (tracer.enabled()) runtime_layers(merged, layers);
  }

 private:
  std::uint32_t trials_;
  std::vector<EfficiencyStudyConfig> configs_;
};

// --------------------------------------------------------------------------
// harness: Figures 1-3 plus a small Figure-4 cell as `xres suite` cells.

constexpr const char* kHarnessFig4 = "fig4_resource_management";

/// The cell artifacts a manifest lists, as "<path> <crc32> <bytes>" lines
/// (the manifest's build-describe field is left out: it names the commit).
std::string manifest_digest(const std::string& out_dir) {
  const recovery::JsonValue manifest =
      recovery::parse_json(read_file(out_dir + "/" + study::kManifestName));
  std::string out;
  for (const recovery::JsonValue& cell : manifest.at("studies").as_array()) {
    out += cell.at("study").as_string() + " seed " + cell.at("seed").number_text() + '\n';
    for (const recovery::JsonValue& a : cell.at("artifacts").as_array()) {
      out += a.at("path").as_string() + ' ' + a.at("crc32").as_string() + ' ' +
             a.at("bytes").number_text() + '\n';
    }
  }
  return out;
}

class Harness final : public Workload {
 public:
  Harness(std::uint32_t trials, std::uint32_t fig4_patterns)
      : trials_{trials}, fig4_patterns_{fig4_patterns} {}

  std::uint64_t paper_seed() const override { return kSingleAppSeed; }
  std::uint64_t units() const override { return std::size(kFigures) + 1; }

  void prepare() override {
    registered_.clear();
    for (const Figure& figure : kFigures) registered_.push_back(find_study(figure.study));
    registered_.push_back(find_study(kHarnessFig4));
    fs::create_directories("results");  // where the run ledger lands
  }

  Outcome run(std::uint64_t seed, unsigned threads) override {
    build_cells(seed);
    study::SuiteOptions options;
    options.out_dir = "suite";
    options.threads = threads;
    Outcome out;
    out.units = units();
    if (study::run_suite_cells("xbench", cells_, options) != 0) {
      out.failed = out.units;
      out.digest = "suite failed\n";
      return out;
    }
    out.digest = manifest_digest(options.out_dir);
    return out;
  }

  /// Each cell as its own suite run, so its span holds exactly that cell.
  void run_decomposed(std::uint64_t seed, unsigned threads, Tracer& tracer,
                      Checks& checks, LayerValues& layers) override {
    build_cells(seed);
    fs::create_directories("cells");
    const obs::PerfCounters before = obs::perf_snapshot();
    for (const study::SuiteCell& cell : cells_) {
      study::SuiteOptions options;
      options.out_dir = "cells/" + cell.name;
      options.threads = threads;
      const Tracer::Scope span = tracer.scope("study.run_suite_cells", cell.name);
      checks.expect(study::run_suite_cells("xbench", {cell}, options) == 0,
                    cell.name + ": suite cell failed");
    }
    if (tracer.enabled()) {
      layers["recovery.fsync_batches"] =
          static_cast<double>(obs::perf_delta(before).journal_fsync_batches);
    }
    for (const study::SuiteCell& cell : cells_) {
      const Tracer::Scope span = tracer.scope("study.verify_suite", cell.name);
      checks.expect(study::verify_suite("cells/" + cell.name) == 0,
                    cell.name + ": artifacts do not match the manifest");
    }
  }

  /// Bare study calls against suite cells on the same cells, then the
  /// journal and metrics-artifact writes on the cells' real data.
  void probe(std::uint64_t seed, Tracer& tracer, Checks& checks,
             LayerValues& layers) override {
    build_cells(seed);
    fs::create_directories("probe");
    double bare_s = 0.0;
    double cell_s = 0.0;
    std::vector<obs::MetricSet> metrics;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const study::SuiteCell& cell = cells_[c];
      double start = now_s();
      {
        const Tracer::Scope span = tracer.scope(
            c < std::size(kFigures) ? "core.run_efficiency_study" : "core.run_workload_study",
            cell.name);
        if (c < std::size(kFigures)) {
          EfficiencyStudyConfig config = figure_config(kFigures[c], trials_, seed, 1);
          config.collect_metrics = true;
          const EfficiencyStudyResult r = run_efficiency_study(config);
          for (const auto& by_tech : r.efficiency) {
            for (const Summary& e : by_tech) {
              checks.expect(e.min >= 0.0 && e.max <= 1.0, "efficiency outside [0, 1]");
            }
          }
          metrics.push_back(*r.metrics);
        } else {
          WorkloadStudyConfig config;
          config.patterns = fig4_patterns_;
          config.seed = seed;
          config.threads = 1;
          config.collect_metrics = true;
          obs::MetricSet merged;
          for (const WorkloadComboResult& r : run_workload_study(config, figure4_combos())) {
            checks.expect(r.dropped_fraction.min >= 0.0 && r.dropped_fraction.max <= 1.0,
                          "fig4 dropped fraction outside [0, 1]");
            merged.merge(*r.metrics);
          }
          metrics.push_back(std::move(merged));
        }
      }
      bare_s += now_s() - start;
      study::SuiteOptions options;
      options.out_dir = "probe/" + cell.name;
      options.threads = 1;
      start = now_s();
      {
        const Tracer::Scope span = tracer.scope("study.run_suite_cells", cell.name);
        checks.expect(study::run_suite_cells("xbench", {cell}, options) == 0,
                      cell.name + ": suite cell failed");
      }
      cell_s += now_s() - start;
    }
    layers["study.cell_overhead_frac"] = bare_s > 0.0 ? cell_s / bare_s - 1.0 : 0.0;

    fs::create_directories("replay");
    for (const study::SuiteCell& cell : cells_) replay_journal(cell, seed, tracer, checks);

    obs::MetricSet all;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      const Tracer::Scope span = tracer.scope("obs.write_json", cells_[c].name);
      metrics[c].write_json("replay/" + cells_[c].name + ".metrics.json");
      all.merge(metrics[c]);
    }
    runtime_layers(all, layers);
  }

 private:
  void build_cells(std::uint64_t seed) {
    defs_.clear();
    cells_.clear();
    for (const study::StudyDefinition* def : registered_) {
      const std::string name = def->name;
      // The suite runs every cell at its definition's default seed; a copy
      // with the benchmark seed as that default keeps the registered study.
      auto copy = std::make_unique<study::StudyDefinition>(*def);
      copy->options.default_seed = seed;
      study::SuiteCell cell;
      cell.def = copy.get();
      cell.name = name;
      cell.params = study::ParamSet{*copy};
      cell.params.set(name == kHarnessFig4 ? "patterns" : "trials",
                      std::to_string(name == kHarnessFig4 ? fig4_patterns_ : trials_));
      defs_.push_back(std::move(copy));
      cells_.push_back(std::move(cell));
    }
  }

  /// Re-append the cell's journaled records to a fresh journal, one span
  /// per append (the same record stream the cell wrote).
  void replay_journal(const study::SuiteCell& cell, std::uint64_t seed, Tracer& tracer,
                      Checks& checks) {
    const recovery::JournalMeta meta{cell.def->journal_study(), seed};
    Tracer::Scope load = tracer.scope("recovery.resume_index_load", cell.name);
    const recovery::ResumeIndex index = recovery::ResumeIndex::load(
        "probe/" + cell.name + "/journals/" + cell.name + ".jsonl", meta);
    load.close();
    std::vector<const recovery::JournalRecord*> records;
    if (cell.name == kHarnessFig4) {
      const std::size_t runs = figure4_combos().size() * fig4_patterns_;
      for (std::size_t i = 0; i < runs; ++i) records.push_back(index.find("workload", i));
    } else {
      const EfficiencyStudyConfig config;
      for (std::size_t si = 0; si < config.size_fractions.size(); ++si) {
        for (std::size_t ti = 0; ti < config.techniques.size(); ++ti) {
          const std::string batch = "s" + std::to_string(si) + ".t" + std::to_string(ti);
          for (std::uint32_t t = 0; t < trials_; ++t) records.push_back(index.find(batch, t));
        }
      }
    }
    recovery::TrialJournal journal{"replay/" + cell.name + ".jsonl", meta};
    for (const recovery::JournalRecord* record : records) {
      checks.expect(record != nullptr, cell.name + ": journal is missing a unit");
      if (record == nullptr) continue;
      const Tracer::Scope span = tracer.scope("recovery.journal_append");
      journal.append(*record);
    }
    const Tracer::Scope span = tracer.scope("recovery.journal_flush");
    journal.flush();
  }

  std::uint32_t trials_;
  std::uint32_t fig4_patterns_;
  std::vector<const study::StudyDefinition*> registered_;
  std::vector<std::unique_ptr<study::StudyDefinition>> defs_;
  std::vector<study::SuiteCell> cells_;
};

// --------------------------------------------------------------------------
// pfs_contended: the two PFS-contention ablations through the registry.

constexpr const char* kPfsContention = "ablation_pfs_contention";
constexpr const char* kPfsTopology = "ablation_pfs_contention_topology";

/// The topology ablation's platform variants as `--set`-style bindings.
struct PfsVariant {
  const char* model;
  const char* channels;  ///< PFS service channels; 0 = the machine's N_S
};
constexpr PfsVariant kPfsVariants[] = {
    {"flat", "0"}, {"fattree", "0"}, {"fattree", "4"}, {"fattree", "1"}};

class PfsContended final : public Workload {
 public:
  explicit PfsContended(std::uint32_t patterns) : patterns_{patterns} {}

  std::uint64_t paper_seed() const override { return kMultiAppSeed; }
  std::uint32_t slices() const override { return 3; }
  std::uint64_t units() const override {
    // Each study: 4 variants x 3 techniques x patterns pattern runs.
    return 2 * 4 * workload_techniques().size() * patterns_;
  }

  bool parallel() const override { return false; }

  void prepare() override {
    contention_ = find_study(kPfsContention);
    topology_ = find_study(kPfsTopology);
  }

  Outcome run(std::uint64_t seed, unsigned threads) override {
    Outcome out;
    for (const study::StudyDefinition* def : {contention_, topology_}) {
      out.digest += run_registered(*def, seed, threads);
    }
    out.units = units();
    return out;
  }

  /// The contention ablation runs as the study (its shared-channel model is
  /// reachable only through study params); the topology ablation runs as
  /// the benchmark's own pattern runs over the same platform variants.
  void run_decomposed(std::uint64_t seed, unsigned threads, Tracer& tracer,
                      Checks& checks, LayerValues& layers) override {
    {
      const Tracer::Scope span = tracer.scope("study.run_study", kPfsContention);
      run_registered(*contention_, seed, threads);
    }
    machines_.clear();
    for (const PfsVariant& v : kPfsVariants) {
      const Tracer::Scope span = tracer.scope("study.materialize_platform", v.model);
      study::ParamSet params{*topology_};
      params.set(study::kPlatformModelKey, v.model);
      params.set(study::kPlatformPfsChannelsKey, v.channels);
      MachineSpec machine;
      study::materialize_platform(machine, params);
      machines_.push_back(machine);
    }
    patterns_list_.clear();
    const WorkloadConfig config;
    for (std::uint32_t p = 0; p < patterns_; ++p) {
      const Tracer::Scope span = tracer.scope("apps.generate_pattern");
      patterns_list_.push_back(generate_pattern(config, seed, p));
    }
    const TrialExecutor executor{threads};
    obs::MetricSet merged;
    std::uint64_t transfers = 0;
    double measured_s = 0.0;
    double nominal_s = 0.0;
    for (std::size_t v = 0; v < std::size(kPfsVariants); ++v) {
      for (TechniqueKind kind : workload_techniques()) {
        std::vector<WorkloadRunResult> runs(patterns_);
        std::vector<obs::TrialObs> observers(tracer.enabled() ? patterns_ : 0);
        timed_for_each(
            executor, tracer, patterns_, "core.run_workload",
            [&](std::size_t) { return std::string{"slack/fixed/"} + kPfsVariants[v].model; },
            [&](std::size_t p) {
              WorkloadEngineConfig engine;
              engine.machine = machines_[v];
              engine.policy = TechniquePolicy::fixed_technique(kind);
              engine.scheduler = SchedulerKind::kSlack;
              engine.seed = derive_seed(seed, kEngineSeedKey, p);
              if (!observers.empty()) {
                observers[p].enable_metrics();
                engine.obs = &observers[p];
              }
              runs[p] = run_workload(engine, patterns_list_[p]);
            });
        for (std::uint32_t p = 0; p < patterns_; ++p) {
          check_run(runs[p], checks,
                    std::string{kPfsVariants[v].model} + '/' + to_string(kind) + " pattern " +
                        std::to_string(p));
          checks.expect(runs[p].pfs_measured_s >= 0.0 && runs[p].pfs_nominal_s >= 0.0,
                        "negative PFS transfer time");
          transfers += runs[p].pfs_transfers;
          measured_s += runs[p].pfs_measured_s;
          nominal_s += runs[p].pfs_nominal_s;
          if (!observers.empty()) merged.merge(*observers[p].metrics());
        }
      }
    }
    if (tracer.enabled()) {
      runtime_layers(merged, layers);
      layers["platform.pfs_transfers"] = static_cast<double>(transfers);
      layers["platform.pfs_measured_over_nominal"] =
          nominal_s > 0.0 ? measured_s / nominal_s : 0.0;
    }
  }

  /// The planner over the pass's jobs on the flat and fat-tree platforms.
  void probe(std::uint64_t /*seed*/, Tracer& tracer, Checks& /*checks*/,
             LayerValues& /*layers*/) override {
    plan_jobs(patterns_list_, machines_[0], tracer);
    plan_jobs(patterns_list_, machines_[1], tracer);
  }

 private:
  /// Run a registered study with `--set patterns=P`, its stdout captured;
  /// returns the captured output (the study's deterministic table).
  std::string run_registered(const study::StudyDefinition& def, std::uint64_t seed,
                             unsigned threads) const {
    const std::string name = def.name;
    study::ParamSet params{def};
    params.set("patterns", std::to_string(patterns_));
    study::HarnessOptions options = study::default_harness_options(def);
    options.seed = seed;
    options.threads = threads;
    options.ledger = false;
    fs::create_directories("pfs");
    const std::string path = "pfs/" + name + ".txt";
    // Status lines carry wall-clock timings: keep them out of the capture.
    study::set_status_stream(stderr);
    int rc = 0;
    {
      study::StdoutCapture capture{path};
      rc = study::run_study(def, std::move(params), std::move(options));
      capture.finish();
    }
    study::set_status_stream(stdout);
    XRES_CHECK(rc == 0, name + " exited with " + std::to_string(rc));
    return name + '\n' + read_file(path);
  }

  std::uint32_t patterns_;
  const study::StudyDefinition* contention_{nullptr};
  const study::StudyDefinition* topology_{nullptr};
  std::vector<MachineSpec> machines_;
  std::vector<ArrivalPattern> patterns_list_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"multiapp", "singleapp", "harness",
                                              "pfs_contended"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool small) {
  // Slices of a few tenths of a second: a run takes the best of many, and on
  // a shared machine short ones are the likelier to fall in a quiet moment.
  if (name == "multiapp") return std::make_unique<MultiApp>(1);
  if (name == "singleapp") return std::make_unique<SingleApp>(small ? 20 : 200);
  if (name == "harness") return std::make_unique<Harness>(small ? 20 : 200, 1);
  if (name == "pfs_contended") return std::make_unique<PfsContended>(small ? 1 : 2);
  return nullptr;
}

}  // namespace xbench
