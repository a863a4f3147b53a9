// xres_bench: runs one benchmark workload and prints one JSON line.
//
//   xres_bench --workload multiapp [--seed N] [--seconds S] [--trace 0|1]
//              [--small] [--spans PATH] [--crc-only] [--setup-only]
//
// --trace 0 measures the end-to-end figures (set-up time, wall time at one
// and at min(nproc, 4) worker threads, peak RSS) with nothing traced.
// --trace 1 is the separate traced run: the workload's work decomposed into
// spans around the benchmark's calls into each module, timed against the
// same decomposed work untraced, and the per-layer values (README.md lists
// them). --setup-only stops when the first study call would start and
// prints the set-up time alone. Both full modes check the outputs; run.py
// compares the CRCs with the stored reference and prints the benchmark's
// result line.

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"
#include "obs/perf.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace {

using namespace xbench;

/// Process start: taken by the executable's first static initializer, which
/// runs before the study registrations (default priority).
double g_process_start = 0.0;
__attribute__((constructor(101))) void mark_process_start() { g_process_start = now_s(); }

struct Options {
  std::string workload;
  bool seed_given{false};
  std::uint64_t seed{0};
  double seconds{10.0};
  int trace{0};
  bool small{false};
  std::string spans_path;
  bool crc_only{false};
  bool setup_only{false};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "xres_bench: %s\nusage: xres_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--small] [--spans PATH] [--crc-only] "
               "[--setup-only]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small" || arg == "--crc-only" || arg == "--setup-only") {
      (arg == "--small" ? o.small : arg == "--crc-only" ? o.crc_only : o.setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
        o.seed_given = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value);
      } else if (arg == "--spans") {
        o.spans_path = value;
      } else {
        usage(("unknown option " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

/// min(nproc, 4): the CPUs this process may run on (affinity mask), as
/// nproc counts them.
unsigned parallel_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(std::clamp(CPU_COUNT(&set), 1, 4));
}

/// Seed of slice \p k of the unit at \p seed.
std::uint64_t slice_seed(std::uint64_t seed, std::uint32_t k) {
  return k == 0 ? seed : xres::derive_seed(seed, std::uint64_t{k});
}

double median(const std::vector<double>& v) { return quantile_or_zero(v, 0.5); }
double best(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// The set-up of a fresh process: this executable run again with the same
/// workload and seed and --setup-only. Returns the set-up seconds it reports.
double relaunched_setup_s(const Options& o) {
  static const std::string exe = [] {
    char path[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
    XRES_CHECK(n > 0, "cannot resolve /proc/self/exe");
    return std::string(path, static_cast<std::size_t>(n));
  }();
  std::vector<std::string> args{exe, "--workload", o.workload, "--seed", std::to_string(o.seed),
                                "--setup-only"};
  if (o.small) args.emplace_back("--small");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  XRES_CHECK(pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[512];
  for (ssize_t n; (n = read(fds[0], buffer, sizeof buffer)) > 0;) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (rc == 0) waitpid(pid, &status, 0);
  constexpr std::string_view kKey = "\"setup_s\":";
  const std::size_t at = out.find(kKey);
  XRES_CHECK(rc == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                 at != std::string::npos,
             "set-up relaunch failed");
  return std::stod(out.substr(at + kKey.size()));
}

/// Peak resident set of this process image in bytes: VmHWM, which exec
/// resets. (getrusage's ru_maxrss, behind obs::peak_rss_bytes, keeps the
/// launching process's peak across exec, so under a Python launcher it
/// reports the launcher's memory.) Falls back to obs::peak_rss_bytes.
double peak_rss_bytes() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) * 1024.0;
  }
  return static_cast<double>(xres::obs::peak_rss_bytes());
}

/// The shared bookkeeping of one benchmark process.
struct Run {
  Run(Workload& w, const Options& o, unsigned threads) : workload{w}, options{o}, par{threads} {}

  Workload& workload;
  const Options& options;
  unsigned par;
  /// Set-up seconds: this process's, then one relaunch per timed round.
  std::vector<double> setup_s;
  Checks checks;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::string crc_seed;
  std::string crc_paper;
  /// End-to-end figures (--trace 0) or per-layer values (--trace 1); run.py
  /// picks the ones BENCHMARK.json names and gives them their units.
  LayerValues metrics;
  /// Timed seconds per slice, at 1 and at `par` threads.
  std::vector<std::vector<double>> samples_t1;
  std::vector<std::vector<double>> samples_par;

  /// One slice; a slice that throws counts every unit it held as failed.
  Outcome unit(std::uint64_t seed, unsigned threads) {
    try {
      return workload.run(seed, threads);
    } catch (const std::exception& e) {
      checks.expect(false, std::string{"unit threw: "} + e.what());
      return Outcome{"error\n", workload.units(), workload.units()};
    }
  }

  /// Every slice's digest at \p seed, untimed.
  std::vector<std::string> digests(std::uint64_t seed, unsigned threads) {
    std::vector<std::string> out;
    for (std::uint32_t k = 0; k < workload.slices(); ++k) {
      const Outcome o = unit(slice_seed(seed, k), threads);
      attempted += o.units;
      failed += o.failed;
      out.push_back(o.digest);
    }
    return out;
  }

  static std::string crc_of(const std::vector<std::string>& digests) {
    std::string all;
    for (const std::string& d : digests) all += d;
    return xres::crc32_hex(xres::crc32(all));
  }

  /// The warm-up: the paper seed's unit, whose CRC run.py checks against
  /// the stored reference on every run whatever --seed says.
  void warm_up() { crc_paper = crc_of(digests(workload.paper_seed(), par)); }

  /// One decomposed pass over slice \p k, counted as attempted units;
  /// returns its seconds.
  double decomposed(std::uint32_t k, unsigned threads, Tracer& tracer, LayerValues& layers) {
    const double t0 = now_s();
    workload.run_decomposed(slice_seed(options.seed, k), threads, tracer, checks, layers);
    attempted += workload.units();
    return now_s() - t0;
  }

  /// Timed rounds at --seed until \p budget seconds have passed (at least
  /// three): every slice at 1 thread and, if \p parallel, at `par` threads,
  /// alternating which goes first. Every slice's digest must equal its
  /// entry in \p reference (or its first one's where that is empty):
  /// repeatable and thread-count invariant.
  void timed(double budget, bool parallel, std::vector<std::string> reference,
             const std::function<void()>& between_rounds) {
    const xres::obs::PerfCounters before = xres::obs::perf_snapshot();
    const std::uint32_t slices = workload.slices();
    samples_t1.assign(slices, {});
    samples_par.assign(parallel ? slices : 0, {});
    reference.resize(slices);
    const double start = now_s();
    for (int round = 0; round < 3 || now_s() - start < budget; ++round) {
      between_rounds();
      for (std::uint32_t k = 0; k < slices; ++k) {
        for (int m = 0; m < 2; ++m) {
          const bool single = (m == 0) == (round % 2 == 0);
          if (!single && !parallel) continue;
          const double t0 = now_s();
          const Outcome o = unit(slice_seed(options.seed, k), single ? 1 : par);
          (single ? samples_t1 : samples_par)[k].push_back(now_s() - t0);
          attempted += o.units;
          failed += o.failed;
          if (reference[k].empty()) reference[k] = o.digest;
          checks.expect(o.digest == reference[k],
                        single ? "1-thread results differ from the reference slice's"
                               : "parallel results differ from the reference slice's");
        }
      }
    }
    failed += xres::obs::perf_delta(before).trials_quarantined;
    crc_seed = crc_of(reference);
  }
};

/// Sum over slices of \p stat of each slice's samples.
double over_slices(const std::vector<std::vector<double>>& samples,
                   double (*stat)(const std::vector<double>&)) {
  double total = 0.0;
  for (const std::vector<double>& v : samples) total += stat(v);
  return total;
}

void end_to_end(Run& run) {
  Workload& wl = run.workload;
  run.warm_up();
  Tracer off{false};
  LayerValues unused;
  for (std::uint32_t k = 0; k < wl.slices(); ++k) {
    run.decomposed(k, run.par, off, unused);  // closure checks, not timed
  }

  // A workload whose studies pin one worker times the 1-thread slices only:
  // its parallel wall time is the same figure. One untimed parallel unit
  // still gives the reference the timed slices must match byte for byte.
  const bool parallel = wl.parallel();
  std::vector<std::string> reference;
  if (!parallel) reference = run.digests(run.options.seed, run.par);
  // Set-up is short and the machine's speed drifts over seconds, so it is
  // taken once per round, spread through the run, and the median reported.
  run.timed(run.options.seconds, parallel, reference,
            [&] { run.setup_s.push_back(relaunched_setup_s(run.options)); });
  const auto& samples_par = parallel ? run.samples_par : run.samples_t1;
  // Wall times sum each slice's best sample. On a shared machine the noise
  // only ever slows a sample down, and it comes in slow phases of seconds:
  // across runs the median of one run's samples swings up to twice as far
  // as their minimum. The medians are reported beside them.
  run.metrics = {{"setup_s", median(run.setup_s)},
                 {"setup_samples", static_cast<double>(run.setup_s.size())},
                 {"wall_s_t1", over_slices(run.samples_t1, best)},
                 {"wall_s_par", over_slices(samples_par, best)},
                 {"peak_rss_mb", peak_rss_bytes() / 1e6},
                 {"wall_s_t1_median", over_slices(run.samples_t1, median)},
                 {"wall_s_par_median", over_slices(samples_par, median)},
                 {"rounds", static_cast<double>(run.samples_t1.front().size())}};
}

void per_layer(Run& run) {
  Workload& wl = run.workload;
  const Options& o = run.options;
  const xres::obs::PerfCounters start_counters = xres::obs::perf_snapshot();
  run.warm_up();

  // Untraced and traced decomposed passes over the first slice (the --seed
  // itself) at one thread, alternating, for the run's budget (at least three
  // of each). The tracing overhead compares the best of each; the per-layer
  // values come from the best traced pass.
  LayerValues& layers = run.metrics;
  std::vector<double> untraced;
  std::vector<double> traced;
  Tracer pass{true};
  xres::obs::PerfCounters perf{};
  std::uint64_t io_ops = 0;
  const double start = now_s();
  while (traced.size() < 3 || now_s() - start < o.seconds) {
    Tracer off{false};
    LayerValues unused;
    untraced.push_back(run.decomposed(0, 1, off, unused));

    Tracer tracer{true};
    xres::io::install_faults(xres::io::FaultConfig{});  // count-only: no faults
    const std::uint64_t ops_before = xres::io::ops_performed();
    const xres::obs::PerfCounters perf_before = xres::obs::perf_snapshot();
    {
      Tracer::Scope root = tracer.scope("bench.pass");
      run.decomposed(0, 1, tracer, layers);
      traced.push_back(root.close());
    }
    const xres::obs::PerfCounters delta = xres::obs::perf_delta(perf_before);
    const std::uint64_t ops = xres::io::ops_performed() - ops_before;
    xres::io::clear_faults();
    if (traced.back() == best(traced)) {
      pass = std::move(tracer);
      perf = delta;
      io_ops = ops;
    }
  }
  layers["util.io_ops"] = static_cast<double>(io_ops);

  Tracer parallel{true};
  {
    LayerValues unused;
    const Tracer::Scope root = parallel.scope("bench.pass");
    run.decomposed(0, run.par, parallel, unused);
  }
  Tracer probe{true};
  {
    const Tracer::Scope root = probe.scope("bench.probe");
    wl.probe(o.seed, probe, run.checks, layers);
  }

  // Durations of the spans called \p name in the single-thread pass and the
  // probes (a call is timed in one of them, by workload).
  const auto spans = [&](const char* name, const std::string& tag = {}) {
    std::vector<double> v = pass.durations(name, tag);
    const std::vector<double> more = probe.durations(name, tag);
    v.insert(v.end(), more.begin(), more.end());
    return v;
  };
  const auto p = [](std::vector<double> v, double q, double scale) {
    return quantile_or_zero(std::move(v), q) * scale;
  };
  const auto count = [](const std::vector<double>& v) { return static_cast<double>(v.size()); };
  layers["apps.generate_pattern_ms"] = sum(spans("apps.generate_pattern")) * 1e3;
  layers["apps.generate_pattern_calls"] = count(spans("apps.generate_pattern"));
  layers["resilience.make_plan_us_p50"] = p(spans("resilience.make_plan"), 0.5, 1e6);
  layers["resilience.make_plan_calls"] = count(spans("resilience.make_plan"));
  layers["resilience.select_us_p50"] = p(spans("resilience.select"), 0.5, 1e6);
  layers["resilience.select_calls"] = count(spans("resilience.select"));
  const std::uint64_t failures = pass.work("failure.generate_trace");
  layers["failure.trace_failures"] = static_cast<double>(failures);
  layers["failure.trace_ns_per_failure"] =
      failures > 0 ? sum(pass.durations("failure.generate_trace")) * 1e9 /
                         static_cast<double>(failures)
                   : 0.0;
  const std::vector<double> trials = pass.durations("core.run_trial");
  layers["core.run_trial_us_p50"] = p(trials, 0.5, 1e6);
  layers["core.run_trial_us_p99"] = p(trials, 0.99, 1e6);
  layers["core.run_trial_samples"] = count(trials);
  const std::vector<double> runs = pass.durations("core.run_workload");
  layers["core.run_workload_ms_p50"] = p(runs, 0.5, 1e3);
  layers["core.run_workload_ms_p99"] = p(runs, 0.99, 1e3);
  layers["core.run_workload_samples"] = count(runs);
  for (const char* key : {"fcfs/", "random/", "slack/", "/selection", "/fixed"}) {
    std::string suffix{key};
    suffix.erase(std::remove(suffix.begin(), suffix.end(), '/'), suffix.end());
    layers["core.run_workload_ms_p50." + suffix] =
        p(pass.durations("core.run_workload", key), 0.5, 1e3);
  }
  for (const char* platform : {"flat", "fattree"}) {
    layers[std::string{"platform.run_workload_ms_p50."} + platform] =
        p(pass.durations("core.run_workload", std::string{"/"} + platform), 0.5, 1e3);
  }
  layers["core.executor_idle_frac"] = parallel.executor_idle_fraction();
  layers["sim.events_popped"] = static_cast<double>(perf.events_popped);
  layers["sim.events_scheduled"] = static_cast<double>(perf.events_scheduled);
  layers["sim.events_cancelled"] = static_cast<double>(perf.events_cancelled);
  layers["sim.heap_compactions"] = static_cast<double>(perf.heap_compactions);
  // Events executed inside the run_workload calls themselves (on multiapp
  // this equals events_popped; pfs_contended also pops events in the
  // contention study, which has no run_workload spans).
  const double run_events = layers["runtime.sim_events"];
  layers["sim.ns_per_event"] = !runs.empty() && run_events > 0 ? sum(runs) * 1e9 / run_events : 0.0;
  const std::vector<double> appends = probe.durations("recovery.journal_append");
  layers["recovery.journal_append_us_p50"] = p(appends, 0.5, 1e6);
  layers["recovery.journal_append_us_p99"] = p(appends, 0.99, 1e6);
  layers["recovery.journal_appends"] = count(appends);
  layers["obs.metrics_json_ms"] = sum(probe.durations("obs.write_json")) * 1e3;

  layers["trace.untraced_s"] = best(untraced);
  layers["trace.traced_s"] = best(traced);
  layers["trace.overhead_frac"] = best(traced) / best(untraced) - 1.0;
  layers["trace.spans"] =
      static_cast<double>(pass.spans().size() + parallel.spans().size() + probe.spans().size());
  run.failed += xres::obs::perf_delta(start_counters).trials_quarantined;
  // Self time over the traced single-thread pass and the probes.
  for (const Tracer* tracer : {&pass, &probe}) {
    for (const auto& [layer, seconds] : tracer->self_seconds_by_layer()) {
      layers["self_ms." + layer] += seconds * 1e3;
    }
  }

  if (!o.spans_path.empty()) {
    xres::obs::JsonWriter w;
    w.begin_object();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").begin_array();
    pass.write_events(w, 1);
    parallel.write_events(w, 2);
    probe.write_events(w, 3);
    w.end_array();
    w.end_object();
    w.write(o.spans_path);
  }
}

void print_result(const Run& run) {
  xres::obs::JsonWriter w;
  w.begin_object();
  w.key("workload").value(run.options.workload);
  w.key("seed").value(run.options.seed);
  w.key("setup_s").value(run.setup_s.front());
  if (!run.options.setup_only) {
    w.key("paper_seed").value(run.workload.paper_seed());
    w.key("trace").value(run.options.trace);
    w.key("threads_par").value(static_cast<std::uint64_t>(run.par));
    w.key("attempted").value(run.attempted);
    w.key("failed").value(run.failed);
    w.key("wrong_outputs").value(run.checks.wrong);
    w.key("notes").begin_array();
    for (const std::string& note : run.checks.notes) w.value(note);
    w.end_array();
    w.key("crc_seed").value(run.crc_seed);
    w.key("crc_paper").value(run.crc_paper);
    for (const auto& [key, samples] :
         {std::pair{"samples_t1", &run.samples_t1}, std::pair{"samples_par", &run.samples_par}}) {
      w.key(key).begin_array();
      for (const std::vector<double>& slice : *samples) {
        w.begin_array();
        for (double v : slice) w.value(v);
        w.end_array();
      }
      w.end_array();
    }
    w.key("metrics").begin_object();
    for (const auto& [name, value] : run.metrics) w.key(name).value(value);
    w.end_object();
  }
  w.end_object();
  std::fflush(stdout);
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(options.workload, options.small);
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());
  if (!options.seed_given) options.seed = workload->paper_seed();
  Run run{*workload, options, parallel_threads()};
  try {
    // Set-up: from process start (static study registration included) to
    // the moment the first study call would start.
    workload->prepare();
    run.setup_s.push_back(now_s() - g_process_start);
    if (options.setup_only) {
      // Nothing more: run.py launches these to take the set-up's median.
    } else if (options.crc_only) {
      // One unit at --seed (parallel): how run.py records the reference.
      run.crc_seed = Run::crc_of(run.digests(options.seed, run.par));
    } else if (options.trace == 0) {
      end_to_end(run);
    } else {
      per_layer(run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xres_bench: %s\n", e.what());
    return 1;
  }
  print_result(run);
  return 0;
}
