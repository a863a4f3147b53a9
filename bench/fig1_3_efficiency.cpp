// Reproduces paper Figures 1-3 from one definition: resilience-technique
// efficiency at increasing percentages of total system use, one
// application type and node MTBF per figure.

#include "apps/app_type.hpp"
#include "study/figure.hpp"
#include "study/registry.hpp"

namespace {
using namespace xres;

struct EfficiencyFigure {
  const char* name;
  const char* description;
  const char* summary;
  /// The printed title, and the historical journal identity: the title the
  /// pre-registry driver passed to its RecoveryCoordinator, so old journals
  /// keep resuming.
  const char* title;
  const char* app_type;
  double node_mtbf_years;
};

constexpr EfficiencyFigure kFigures[] = {
    // Reproduces paper Figure 1: resilience-technique efficiency at
    // increasing percentages of total system use for the low-memory,
    // low-communication application A32, with a 10-year processor MTBF.
    {"fig1_efficiency_a32",
     "paper Figure 1: efficiency vs. system share for A32, node MTBF 10 years",
     "fig1_efficiency_a32 — paper Figure 1: efficiency vs. application size "
     "for A32 (low memory, no communication), node MTBF 10 years.",
     "Figure 1: efficiency vs. system share, application A32, MTBF 10 y", "A32", 10.0},
    // Reproduces paper Figure 2: resilience-technique efficiency at
    // increasing percentages of total system use for the high-memory,
    // high-communication application D64, with a 10-year processor MTBF.
    // The headline feature is the optimal-technique crossover from
    // multilevel checkpointing to parallel recovery around 25% of the
    // system.
    {"fig2_efficiency_d64",
     "paper Figure 2: efficiency vs. system share for D64, node MTBF 10 years",
     "fig2_efficiency_d64 — paper Figure 2: efficiency vs. application size "
     "for D64 (high memory, 75% communication), node MTBF 10 years.",
     "Figure 2: efficiency vs. system share, application D64, MTBF 10 y", "D64", 10.0},
    // Reproduces paper Figure 3: the Figure-2 study under degraded
    // component reliability (node MTBF 2.5 years). Traditional
    // checkpoint/restart collapses — at exascale it spends so long
    // checkpointing and restarting that applications cannot complete.
    {"fig3_efficiency_d64_mtbf2p5",
     "paper Figure 3: the Figure-2 study with node MTBF degraded to 2.5 years",
     "fig3_efficiency_d64_mtbf2p5 — paper Figure 3: efficiency vs. "
     "application size for D64 with node MTBF reduced to 2.5 years.",
     "Figure 3: efficiency vs. system share, application D64, MTBF 2.5 y", "D64", 2.5},
};

study::StudyDefinition make(const EfficiencyFigure& figure) {
  study::StudyDefinition def;
  def.name = figure.name;
  def.group = study::StudyGroup::kFigure;
  def.description = figure.description;
  def.summary = figure.summary;
  def.journal_id = figure.title;
  def.options.csv = true;
  def.options.chart = true;
  def.options.report = true;
  def.params.integer("trials", "trials per bar (paper: 200)", 200).min(1);
  study::add_surrogate_param(def.params);
  def.run = [&figure](study::StudyContext& ctx) {
    EfficiencyStudyConfig config;
    config.app_type = app_type_by_name(figure.app_type);
    config.resilience.node_mtbf = Duration::years(figure.node_mtbf_years);
    return study::run_efficiency_figure(figure.title, config, ctx);
  };
  return def;
}

const study::Registration fig1{make(kFigures[0])};
const study::Registration fig2{make(kFigures[1])};
const study::Registration fig3{make(kFigures[2])};

}  // namespace
