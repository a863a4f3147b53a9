#include "apps/workload.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace xres {

const char* to_string(WorkloadBias bias) {
  switch (bias) {
    case WorkloadBias::kUnbiased: return "unbiased";
    case WorkloadBias::kHighMemory: return "high-memory";
    case WorkloadBias::kHighCommunication: return "high-communication";
    case WorkloadBias::kLargeApps: return "large-apps";
  }
  return "?";
}

WorkloadBias workload_bias_from_string(const std::string& name) {
  for (WorkloadBias bias : {WorkloadBias::kUnbiased, WorkloadBias::kHighMemory,
                            WorkloadBias::kHighCommunication, WorkloadBias::kLargeApps}) {
    if (name == to_string(bias)) return bias;
  }
  XRES_CHECK(false, "unknown workload bias: " + name);
}

void WorkloadConfig::validate() const {
  XRES_CHECK(machine_nodes > 0, "workload needs a machine");
  XRES_CHECK(arrival_count > 0, "workload needs arrivals");
  XRES_CHECK(mean_interarrival > Duration::zero(), "mean inter-arrival must be positive");
  XRES_CHECK(!size_fractions.empty(), "workload needs size options");
  XRES_CHECK(!baseline_hours.empty(), "workload needs baseline options");
  for (double f : size_fractions) {
    XRES_CHECK(f > 0.0 && f <= 1.0, "size fraction must be in (0, 1]");
  }
  for (double h : baseline_hours) {
    XRES_CHECK(h > 0.0, "baseline hours must be positive");
  }
}

namespace {

/// The candidate Table-I types under a bias.
std::vector<AppType> biased_types(WorkloadBias bias) {
  std::vector<AppType> types;
  for (const AppType& t : all_app_types()) {
    switch (bias) {
      case WorkloadBias::kUnbiased:
        types.push_back(t);
        break;
      case WorkloadBias::kHighMemory:
        if (t.memory_per_node >= DataSize::gigabytes(64.0)) types.push_back(t);
        break;
      case WorkloadBias::kHighCommunication:
        if (t.comm_fraction > 0.25) types.push_back(t);
        break;
      case WorkloadBias::kLargeApps:
        types.push_back(t);  // bias applies to sizes, not types
        break;
    }
  }
  XRES_CHECK(!types.empty(), "bias produced an empty type set");
  return types;
}

/// The candidate size fractions under a bias.
std::vector<double> biased_sizes(const WorkloadConfig& config) {
  if (config.bias != WorkloadBias::kLargeApps) return config.size_fractions;
  std::vector<double> large;
  for (double f : config.size_fractions) {
    if (f >= 0.12) large.push_back(f);
  }
  XRES_CHECK(!large.empty(), "large-app bias produced an empty size set");
  return large;
}

std::uint32_t nodes_for_fraction(double fraction, std::uint32_t machine_nodes) {
  const double exact = fraction * static_cast<double>(machine_nodes);
  const auto nodes = static_cast<std::uint32_t>(std::llround(exact));
  return std::max(1U, nodes);
}

AppSpec draw_spec(const WorkloadConfig& config, const std::vector<AppType>& types,
                  const std::vector<double>& sizes, Pcg32& rng) {
  const AppType& type = types[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint32_t>(types.size())))];
  const double fraction = sizes[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint32_t>(sizes.size())))];
  const double hours = config.baseline_hours[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint32_t>(config.baseline_hours.size())))];
  return AppSpec::from_baseline(type, nodes_for_fraction(fraction, config.machine_nodes),
                                Duration::hours(hours));
}

}  // namespace

ArrivalPattern generate_pattern(const WorkloadConfig& config, std::uint64_t root_seed,
                                std::uint32_t index) {
  config.validate();
  Pcg32 rng{derive_seed(root_seed, 0x776b6c6421ULL, index)};
  const std::vector<AppType> types = biased_types(config.bias);
  const std::vector<double> sizes = biased_sizes(config);

  ArrivalPattern pattern;
  std::uint64_t next_id = 1;

  if (config.initial_fill) {
    // Fill the machine at t = 0 (the paper "begins by filling the entire
    // exascale system"): keep drawing applications while one of the size
    // options still fits the remaining node budget.
    const double min_fraction = *std::min_element(sizes.begin(), sizes.end());
    const std::uint32_t min_nodes = nodes_for_fraction(min_fraction, config.machine_nodes);
    std::uint32_t free_nodes = config.machine_nodes;
    while (free_nodes >= min_nodes) {
      AppSpec spec = draw_spec(config, types, sizes, rng);
      if (spec.nodes > free_nodes) continue;  // redraw a size that fits
      Job job;
      job.id = JobId{next_id++};
      job.spec = spec;
      job.arrival = TimePoint::origin();
      job.deadline = assign_deadline(job.arrival, spec.baseline_time(), rng);
      free_nodes -= spec.nodes;
      pattern.jobs.push_back(std::move(job));
    }
  }

  // Poisson arrivals with the configured mean gap.
  TimePoint t = TimePoint::origin();
  const Rate arrival_rate = Rate::one_per(config.mean_interarrival);
  for (std::uint32_t i = 0; i < config.arrival_count; ++i) {
    t += rng.exponential(arrival_rate);
    Job job;
    job.id = JobId{next_id++};
    job.spec = draw_spec(config, types, sizes, rng);
    job.arrival = t;
    job.deadline = assign_deadline(job.arrival, job.spec.baseline_time(), rng);
    pattern.jobs.push_back(std::move(job));
  }
  return pattern;
}

}  // namespace xres
