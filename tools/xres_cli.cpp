// xres — unified command-line driver for the library's studies.
//
//   xres list --markdown
//   xres run fig1_efficiency_a32 --set trials=50
//   xres describe ablation_severity_pmf
//   xres suite paper --out-dir out/paper
//   xres efficiency --type D64 --mtbf-years 10 --trials 50
//   xres workload  --scheduler Slack --technique selection --patterns 10
//   xres advise    --type C64 --system-share 0.25
//   xres trace     --mtbf-years 10 --days 7 --out failures.csv
//   xres info
//
// Each subcommand accepts --help. Every paper figure/table/ablation/
// extension lives in the xres::study registry (src/study/) and runs with
// `xres run <study>`.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "study/runlog.hpp"
#include "util/io.hpp"
#include "xres.hpp"

namespace {

using namespace xres;

int cmd_info() {
  std::printf("xres %s — exascale resilience simulation library\n", kVersionString);
  std::printf("machine: %s\n", MachineSpec::exascale().describe().c_str());
  std::printf("application types:");
  for (const AppType& t : all_app_types()) std::printf(" %s", t.name.c_str());
  std::printf("\ntechniques:");
  for (TechniqueKind kind : evaluated_techniques()) std::printf(" %s", to_string(kind));
  std::printf(" %s", to_string(TechniqueKind::kSemiBlockingCheckpoint));
  std::printf("\nschedulers:");
  for (SchedulerKind kind : extended_schedulers()) std::printf(" %s", to_string(kind));
  std::printf("\nstudies:   %zu registered — see `xres list`\n",
              study::StudyRegistry::instance().size());
  return 0;
}

const char* group_heading(study::StudyGroup group) {
  switch (group) {
    case study::StudyGroup::kFigure: return "Figures";
    case study::StudyGroup::kTable: return "Tables";
    case study::StudyGroup::kAblation: return "Ablations";
    case study::StudyGroup::kExtension: return "Extensions";
    case study::StudyGroup::kAdhoc: return "Ad-hoc exploration";
  }
  return "?";
}

constexpr study::StudyGroup kGroupOrder[] = {
    study::StudyGroup::kFigure, study::StudyGroup::kTable,
    study::StudyGroup::kAblation, study::StudyGroup::kExtension,
    study::StudyGroup::kAdhoc};

/// One line summarizing the harness options a study exposes, for
/// describe/--markdown output.
std::string options_line(const study::StudyOptionsSpec& spec) {
  std::string out;
  const auto add = [&out](const char* flag) {
    if (!out.empty()) out += ", ";
    out += flag;
  };
  if (spec.seed) add("--seed");
  if (spec.threads) add("--threads");
  if (spec.csv) add("--csv/--csv-path");
  if (spec.chart) add("--chart");
  if (spec.report) add("--report");
  if (spec.obs != study::StudyOptionsSpec::Obs::kNone) {
    add("--metrics");
    if (spec.obs == study::StudyOptionsSpec::Obs::kWithTrace) add("--trace");
    add("--log-level");
  }
  if (spec.recovery) add("--journal/--resume/--trial-timeout/--trial-retries");
  if (out.empty()) out = "none (static output)";
  return out;
}

void list_text() {
  const auto all = study::StudyRegistry::instance().all();
  std::size_t width = 0;
  for (const study::StudyDefinition* def : all) {
    width = std::max(width, def->name.size());
  }
  for (study::StudyGroup group : kGroupOrder) {
    bool any = false;
    for (const study::StudyDefinition* def : all) {
      if (def->group != group) continue;
      if (!any) std::printf("%s:\n", group_heading(group));
      any = true;
      std::printf("  %-*s  %s\n", static_cast<int>(width), def->name.c_str(),
                  def->description.c_str());
    }
    if (any) std::printf("\n");
  }
  std::printf("run 'xres describe <study>' for the parameter schema and\n"
              "'xres run <study> [--set key=value ...]' to execute one\n");
}

void list_markdown() {
  std::printf("# Study catalog\n\n");
  std::printf("Every paper figure, table, ablation and extension experiment is\n"
              "registered in the `xres::study` registry (src/study/). Run one with\n"
              "`xres run <study> [--set key=value ...]`;\n"
              "`xres suite paper --out-dir <dir>` regenerates every figure/table\n"
              "artifact with a checksummed manifest. Studies can also be derived\n"
              "at runtime from TOML/JSON spec files (`xres run --from spec.toml`)\n"
              "and fanned across parameter grids (`xres sweep <study> --axis\n"
              "key=v1,v2,...`) — see docs/SPECS.md.\n\n");
  std::printf(
      "Efficiency studies take a `surrogate` parameter (`--set\n"
      "surrogate=sim|analytic|auto`, sweepable like any other axis):\n\n"
      "- `sim` (default) — every sweep cell is fully simulated.\n"
      "- `analytic` — only anchor cells (every other sweep size, plus the\n"
      "  endpoints) are simulated, with the exact per-trial seeds the `sim`\n"
      "  path would use, so anchor rows are bit-identical to a full run.\n"
      "  Interior cells are answered from the closed-form analytic model\n"
      "  (paper Eqs. 1-8, src/resilience/analytic) corrected by linear\n"
      "  interpolation of the anchor residuals, and each carries an error\n"
      "  bound: |residual spread between its anchors| + 2x both anchors'\n"
      "  standard error + a curvature margin (0.02 flat + 0.30x the\n"
      "  anchors' machine-share span squared). The run prints a \"Surrogate\n"
      "  provenance\" table naming each cell's source (anchor / surrogate /\n"
      "  fallback / sim) with its analytic value, prediction and bound.\n"
      "- `auto` — like `analytic`, but any interior cell whose bound\n"
      "  exceeds 0.05 falls back to full simulation (counted in the\n"
      "  `surrogate_fallbacks` perf counter; answered cells count as\n"
      "  `surrogate_hits`, and both land in the run ledger).\n\n"
      "Surrogate-answered cells carry zero-count summaries (no fake\n"
      "spread). The contract — anchors bit-identical, predictions within\n"
      "the reported bound — is enforced by tests/surrogate_diff_test.cpp.\n\n");
  std::printf("Generated by `xres list --markdown` — do not edit by hand.\n");
  const auto all = study::StudyRegistry::instance().all();
  for (study::StudyGroup group : kGroupOrder) {
    bool any = false;
    for (const study::StudyDefinition* def : all) {
      if (def->group != group) continue;
      if (!any) std::printf("\n## %s\n", group_heading(group));
      any = true;
      std::printf("\n### `%s`\n\n%s\n", def->name.c_str(), def->description.c_str());
      if (!def->params.empty()) {
        std::printf("\n| parameter | type | default | range | description |\n");
        std::printf("|---|---|---|---|---|\n");
        for (const study::ParamSpec& p : def->params) {
          const std::string range = p.range_text();
          std::printf("| `%s` | %s | `%s` | %s | %s |\n", p.key.c_str(),
                      p.type_name(), p.default_value.c_str(),
                      range.empty() ? "—" : range.c_str(), p.help.c_str());
        }
      }
      std::printf("\nHarness options: %s", options_line(def->options).c_str());
      if (def->options.seed) {
        std::printf(" (default seed %llu)",
                    static_cast<unsigned long long>(def->options.default_seed));
      }
      std::printf("\n");
    }
  }
}

int cmd_list(int argc, const char* const* argv) {
  CliParser cli{"xres list — the registered study catalog, grouped"};
  cli.add_flag("--markdown", "emit the catalog as markdown (docs/STUDIES.md)");
  cli.add_flag("--json", "emit the catalog as JSON (schemas included)");
  if (!cli.parse_or_exit(argc, argv)) return 0;
  if (cli.flag("--markdown") && cli.flag("--json")) {
    CliParser::usage_error("pick one of --markdown and --json");
  }
  if (cli.flag("--json")) {
    std::printf("%s\n", study::catalog_json().c_str());
  } else if (cli.flag("--markdown")) {
    list_markdown();
  } else {
    list_text();
  }
  return 0;
}

int cmd_describe(int argc, const char* const* argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fputs("usage: xres describe <study> [--json]\n\n"
               "print a study's group, description, parameter schema and the\n"
               "harness options it accepts; see `xres list` for the catalog.\n"
               "--json emits the machine-readable form (the same schema\n"
               "serialization spec files bind against, docs/SPECS.md)\n",
               argc < 2 ? stderr : stdout);
    return argc < 2 ? 1 : 0;
  }
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      CliParser::usage_error(std::string{"unknown option for xres describe: "} +
                             argv[i]);
    }
  }
  const study::StudyDefinition* def = study::StudyRegistry::instance().find(argv[1]);
  if (def == nullptr) {
    std::fprintf(stderr, "unknown study '%s' — see `xres list` for the catalog\n",
                 argv[1]);
    return 1;
  }
  if (json) {
    std::printf("%s\n", study::describe_study_json(*def).c_str());
    return 0;
  }
  std::printf("study:       %s\n", def->name.c_str());
  std::printf("group:       %s\n", study::to_string(def->group));
  std::printf("description: %s\n", def->description.c_str());
  if (def->journal_study() != def->name) {
    std::printf("journal id:  %s\n", def->journal_study().c_str());
  }
  if (def->params.empty()) {
    std::printf("parameters:  none\n");
  } else {
    std::printf("parameters:\n");
    for (const study::ParamSpec& p : def->params) {
      const std::string range = p.range_text();
      std::printf("  %-14s %-6s default %-10s %s%s%s\n", p.key.c_str(), p.type_name(),
                  p.default_value.c_str(), p.help.c_str(), range.empty() ? "" : " ",
                  range.c_str());
    }
  }
  std::printf("options:     %s\n", options_line(def->options).c_str());
  if (def->options.seed) {
    std::printf("default seed %llu\n",
                static_cast<unsigned long long>(def->options.default_seed));
  }
  return 0;
}

int cmd_run(int argc, const char* const* argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fputs("usage: xres run <study>            [--set key=value ...] [harness options]\n"
               "       xres run --from <spec.toml> [--set key=value ...] [harness options]\n\n"
               "execute a registered study, or one defined at runtime by a\n"
               "TOML/JSON spec file (docs/SPECS.md). `--set key=value` binds a\n"
               "schema parameter (an unknown key is a usage error); harness\n"
               "options (--seed, --threads, --csv, --metrics, --journal, ...)\n"
               "pass through unchanged. `xres run <study> --help` lists all of\n"
               "them.\n",
               argc < 2 ? stderr : stdout);
    return argc < 2 ? 1 : 0;
  }
  const std::string name = argv[1];
  study::LoadedStudy loaded;  // keeps a spec-defined definition alive
  const study::StudyDefinition* from_def = nullptr;
  int first_arg = 2;
  if (name == "--from") {
    if (argc < 3) CliParser::usage_error("--from needs a spec file path");
    loaded = study::load_study_from_file_or_exit(argv[2]);
    from_def = loaded.def.get();
    first_arg = 3;
  }
  // Translate each `--set key=value` into the study parser's native
  // `--key=value`; an unknown key then fails parse with exit 2, exactly as
  // a typo'd `--key` option would.
  std::vector<std::string> args;
  args.emplace_back("xres run " +
                    (from_def != nullptr ? from_def->name : name));  // argv[0]
  for (int i = first_arg; i < argc; ++i) {
    if (std::strcmp(argv[i], "--set") == 0) {
      if (i + 1 >= argc) CliParser::usage_error("--set needs a key=value binding");
      const std::string binding = argv[++i];
      const std::size_t eq = binding.find('=');
      if (eq == std::string::npos || eq == 0) {
        CliParser::usage_error("--set expects key=value, got '" + binding + "'");
      }
      args.push_back("--" + binding);
    } else {
      args.emplace_back(argv[i]);
    }
  }
  std::vector<const char*> sub_argv;
  sub_argv.reserve(args.size());
  for (const std::string& a : args) sub_argv.push_back(a.c_str());
  if (from_def != nullptr) {
    return study::study_main(*from_def, static_cast<int>(sub_argv.size()),
                             sub_argv.data());
  }
  return study::study_main(name, static_cast<int>(sub_argv.size()), sub_argv.data());
}

int cmd_suite(int argc, const char* const* argv) {
  const char* usage =
      "usage: xres suite paper  --out-dir <dir> [--trials N] [--threads N] [--resume]\n"
      "       xres suite verify --out-dir <dir>\n\n"
      "paper:  run every figure/table study with artifacts, captured stdout\n"
      "        and trial journals under --out-dir, then write manifest.json\n"
      "        (study, params, seed, git describe, artifact CRC32s). Two runs\n"
      "        with the same options are byte-identical, whatever --threads\n"
      "        says; after a crash or SIGKILL, --resume completes the suite\n"
      "        from the journals with identical artifacts.\n"
      "verify: re-checksum an output directory against its manifest\n";
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fputs(usage, argc < 2 ? stderr : stdout);
    return argc < 2 ? 1 : 0;
  }
  const std::string mode = argv[1];
  if (mode == "paper") {
    CliParser cli{"xres suite paper — regenerate every paper figure/table artifact"};
    cli.add_option("--out-dir", "write artifacts, journals/ and manifest.json here", "");
    cli.add_option("--trials", "override every study's trials/patterns/traces "
                   "parameter (0 = study defaults)", "0");
    add_threads_option(cli);
    cli.add_flag("--resume", "resume a killed suite run from its journals");
    if (!cli.parse_or_exit(argc - 1, argv + 1)) return 0;
    study::SuiteOptions options;
    options.out_dir = cli.str("--out-dir");
    if (options.out_dir.empty()) CliParser::usage_error("--out-dir is required");
    const std::int64_t trials = cli.integer("--trials");
    if (trials < 0) CliParser::usage_error("--trials must be >= 0");
    options.trials = static_cast<std::uint32_t>(trials);
    options.threads = parse_threads_option(cli);
    options.resume = cli.flag("--resume");
    return study::run_suite_paper(options);
  }
  if (mode == "verify") {
    CliParser cli{"xres suite verify — re-checksum a suite directory against its manifest"};
    cli.add_option("--out-dir", "the directory a previous `xres suite paper` wrote", "");
    if (!cli.parse_or_exit(argc - 1, argv + 1)) return 0;
    const std::string out_dir = cli.str("--out-dir");
    if (out_dir.empty()) CliParser::usage_error("--out-dir is required");
    return study::verify_suite(out_dir);
  }
  std::fprintf(stderr, "unknown suite mode: %s\n\n%s", mode.c_str(), usage);
  return 1;
}

int cmd_advise(int argc, const char* const* argv) {
  CliParser cli{"xres advise — recommend a resilience technique"};
  cli.add_option("--type", "application type (Table I)", "C64");
  cli.add_option("--system-share", "fraction of the machine used", "0.25");
  cli.add_option("--baseline-hours", "delay-free execution time", "24");
  cli.add_option("--mtbf-years", "per-node MTBF", "10");
  cli.add_option("--log-level", "override XRES_LOG: trace|debug|info|warn|error|off",
                 "");
  if (!cli.parse_or_exit(argc, argv)) return 0;
  const std::string level = cli.str("--log-level");
  if (!level.empty()) Logger::global().set_level(parse_log_level(level));

  const MachineSpec machine = MachineSpec::exascale();
  ResilienceConfig resilience;
  resilience.node_mtbf = Duration::years(cli.real("--mtbf-years"));
  const auto nodes = static_cast<std::uint32_t>(
      cli.real("--system-share") * machine.node_count);
  const AppSpec app = AppSpec::from_baseline(app_type_by_name(cli.str("--type")),
                                             std::max(1U, nodes),
                                             Duration::hours(cli.real("--baseline-hours")));

  Table table{{"technique", "predicted efficiency", "expected wall time"}};
  for (TechniqueKind kind : evaluated_techniques()) {
    const ExecutionPlan plan = make_plan(kind, app, machine, resilience);
    const double eff = predict_efficiency(plan, resilience);
    table.add_row({to_string(kind), fmt_double(eff, 3),
                   plan.feasible ? to_string(predict_wall_time(plan, resilience))
                                 : "infeasible"});
  }
  std::printf("application: %s\n%s", app.describe().c_str(), table.to_text().c_str());

  const ResilienceSelector selector{machine, resilience};
  const auto selection = selector.select(app);
  std::printf("recommendation: %s (predicted %.3f)\n", to_string(selection.kind),
              selection.predicted_efficiency);
  return 0;
}

int cmd_trace(int argc, const char* const* argv) {
  CliParser cli{"xres trace — generate a failure trace CSV"};
  cli.add_option("--mtbf-years", "per-node MTBF", "10");
  cli.add_option("--system-share", "fraction of the machine busy", "1.0");
  cli.add_option("--days", "horizon in days", "7");
  cli.add_option("--weibull-shape", "0 = exponential, else Weibull shape", "0");
  cli.add_option("--seed", "RNG seed", "1");
  cli.add_option("--out", "output path (empty: stdout)", "");
  cli.add_option("--log-level", "override XRES_LOG: trace|debug|info|warn|error|off",
                 "");
  if (!cli.parse_or_exit(argc, argv)) return 0;
  const std::string level = cli.str("--log-level");
  if (!level.empty()) Logger::global().set_level(parse_log_level(level));

  const Rate rate = Rate::one_per(Duration::years(cli.real("--mtbf-years"))) *
                    (cli.real("--system-share") * 120000.0);
  const double shape = cli.real("--weibull-shape");
  const FailureDistribution dist = shape > 0.0 ? FailureDistribution::weibull(shape)
                                               : FailureDistribution::exponential();
  Pcg32 rng{static_cast<std::uint64_t>(cli.integer("--seed"))};
  const SeverityModel severity = SeverityModel::bluegene_default();
  const FailureTrace trace = FailureTrace::generate(
      rate, Duration::days(cli.real("--days")), severity, dist, rng);

  const std::string out = cli.str("--out");
  if (out.empty()) {
    std::fputs(trace.to_csv().c_str(), stdout);
  } else {
    trace.save(out);
    std::printf("%zu failures written to %s\n", trace.size(), out.c_str());
  }
  return 0;
}

int cmd_journal(int argc, const char* const* argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0) {
    std::fputs("usage: xres journal <path>\n\n"
               "inspect a write-ahead trial journal (docs/ROBUSTNESS.md): print the\n"
               "owning study, per-batch record counts, and any corruption observed\n",
               argc < 2 ? stderr : stdout);
    return argc < 2 ? CliParser::kExitUsage : 0;
  }
  const std::string path = argv[1];
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    // Missing / unreadable input is a usage problem (exit 2): one clean
    // line naming the path, never an exception or stack trace.
    std::fprintf(stderr, "error: cannot read journal %s\n", path.c_str());
    return CliParser::kExitUsage;
  }
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(std::move(line));

  bool saw_meta = false;
  std::size_t corrupt = 0;
  std::size_t quarantined = 0;
  bool torn_tail = false;
  std::map<std::string, std::size_t> batches;  // sorted for stable output
  std::map<std::string, std::size_t> reasons;  // quarantine reason -> count
  double wall_total = 0.0;
  std::size_t wall_records = 0;
  std::size_t retried_records = 0;
  std::size_t extra_attempts = 0;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    std::string record_json;
    try {
      if (!recovery::unframe_journal_line(lines[li], record_json)) {
        throw recovery::JsonParseError{"bad frame"};
      }
      const recovery::JsonValue record = recovery::parse_json(record_json);
      if (record.find("journal") != nullptr) {
        std::printf("journal:   %s (format v%llu)\n", record.at("journal").as_string().c_str(),
                    static_cast<unsigned long long>(record.at("v").as_u64()));
        std::printf("study:     %s\n", record.at("study").as_string().c_str());
        std::printf("root seed: %llu\n",
                    static_cast<unsigned long long>(record.at("root_seed").as_u64()));
        saw_meta = true;
        continue;
      }
      batches[record.at("b").as_string()] += 1;
      const recovery::JsonValue& payload = record.at("p");
      const recovery::JsonValue* q = payload.find("quarantined");
      if (q != nullptr && q->as_bool()) {
        ++quarantined;
        const recovery::JsonValue* reason = payload.find("reason");
        reasons[reason != nullptr ? reason->as_string() : "(unrecorded)"] += 1;
      }
      // Optional per-trial telemetry ("w" wall seconds, "a" attempts) —
      // journals written before these fields existed simply lack them.
      if (const recovery::JsonValue* w = payload.find("w"); w != nullptr) {
        wall_total += w->as_double();
        ++wall_records;
      }
      if (const recovery::JsonValue* a = payload.find("a"); a != nullptr) {
        const std::uint64_t attempts = a->as_u64();
        if (attempts > 1) {
          ++retried_records;
          extra_attempts += attempts - 1;
        }
      }
    } catch (const recovery::JsonParseError&) {
      if (li + 1 == lines.size()) {
        torn_tail = true;  // the usual SIGKILL artifact — dropped on resume
      } else {
        ++corrupt;
      }
    }
  }
  if (!saw_meta) {
    std::fprintf(stderr, "error: %s is not an xres trial journal (no readable meta "
                 "record)\n", path.c_str());
    return CliParser::kExitUsage;
  }
  std::size_t total = 0;
  for (const auto& [batch, count] : batches) {
    std::printf("batch %-24s %zu record(s)\n", ("'" + batch + "':").c_str(), count);
    total += count;
  }
  std::printf("total:     %zu record(s)", total);
  if (quarantined != 0) std::printf(", %zu quarantined", quarantined);
  if (corrupt != 0) std::printf(", %zu corrupt (skipped on resume)", corrupt);
  if (torn_tail) std::printf(", torn tail (dropped on resume)");
  std::printf("\n");
  if (wall_records != 0) {
    std::printf("wall:      %.3f s across %zu trial(s), mean %.4f s/trial\n",
                wall_total, wall_records, wall_total / static_cast<double>(wall_records));
  }
  if (retried_records != 0) {
    std::printf("retries:   %zu trial(s) needed %zu extra attempt(s)\n",
                retried_records, extra_attempts);
  }
  for (const auto& [reason, count] : reasons) {
    std::printf("quarantine %-24s %zu trial(s)\n", ("'" + reason + "':").c_str(), count);
  }
  return 0;
}

/// Install a fault plan from `--io-faults <spec>` (stripped from \p args so
/// subcommand parsers never see it) and/or the XRES_IO_FAULTS environment
/// variable; the flag wins when both are present. Malformed specs exit 2.
void setup_io_faults(std::vector<char*>& args) {
  std::string spec;
  if (const char* env = std::getenv("XRES_IO_FAULTS"); env != nullptr) spec = env;
  for (std::size_t i = 1; i < args.size();) {
    const std::string_view arg{args[i]};
    if (arg == "--io-faults") {
      if (i + 1 >= args.size()) {
        CliParser::usage_error("--io-faults needs a seed:rate[:kinds] spec");
      }
      spec = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
    } else if (arg.rfind("--io-faults=", 0) == 0) {
      spec = std::string{arg.substr(std::strlen("--io-faults="))};
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (spec.empty()) return;
  try {
    io::install_faults(io::parse_fault_spec(spec));
  } catch (const CheckError& e) {
    std::string message = e.what();
    if (const std::size_t mark = message.find(" — "); mark != std::string::npos) {
      message = message.substr(mark + std::strlen(" — "));
    }
    CliParser::usage_error(message);
  }
  std::fprintf(stderr, "io-faults: armed with spec '%s'\n", spec.c_str());
}

void print_usage() {
  std::fputs(
      "usage: xres <command> [options]\n\n"
      "commands:\n"
      "  info        library, machine and model summary\n"
      "  list        the registered study catalog (--markdown for docs)\n"
      "  describe    a study's parameter schema and option surface\n"
      "  run         execute a study: xres run <study|--from spec> [--set k=v ...]\n"
      "  sweep       fan a study across a parameter grid: xres sweep <study> --axis k=v1,v2\n"
      "  suite       regenerate/verify every paper artifact (paper | verify)\n"
      "  efficiency  technique-efficiency sweep over application sizes\n"
      "  workload    oversubscribed-machine dropped-applications study\n"
      "  advise      recommend a resilience technique for an application\n"
      "  trace       generate a failure trace CSV\n"
      "  journal     inspect a --journal write-ahead trial journal\n"
      "  log         list recent runs from the ledger (results/ledger.jsonl)\n"
      "  show        one ledger record in full: xres show <run-id>\n"
      "  compare     diff two runs' deterministic identity: xres compare <a> <b>\n\n"
      "global options:\n"
      "  --io-faults seed:rate[:kinds]   deterministic I/O fault injection for\n"
      "              robustness testing (also XRES_IO_FAULTS; docs/ROBUSTNESS.md)\n\n"
      "run 'xres <command> --help' for per-command options\n",
      stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args{argv, argv + argc};
  setup_io_faults(args);
  if (args.size() < 2) {
    print_usage();
    return 1;
  }
  const std::string command = args[1];
  // Shift argv so each subcommand parses its own options.
  const int sub_argc = static_cast<int>(args.size()) - 1;
  const char* const* sub_argv = args.data() + 1;
  try {
    if (command == "info") return cmd_info();
    if (command == "list") return cmd_list(sub_argc, sub_argv);
    if (command == "describe") return cmd_describe(sub_argc, sub_argv);
    if (command == "run") return cmd_run(sub_argc, sub_argv);
    if (command == "sweep") return study::sweep_main(sub_argc, sub_argv);
    if (command == "suite") return cmd_suite(sub_argc, sub_argv);
    if (command == "efficiency") return study::study_main("efficiency", sub_argc, sub_argv);
    if (command == "workload") return study::study_main("workload", sub_argc, sub_argv);
    if (command == "advise") return cmd_advise(sub_argc, sub_argv);
    if (command == "trace") return cmd_trace(sub_argc, sub_argv);
    if (command == "journal") return cmd_journal(sub_argc, sub_argv);
    if (command == "log") return study::cmd_log(sub_argc, sub_argv);
    if (command == "show") return study::cmd_show(sub_argc, sub_argv);
    if (command == "compare") return study::cmd_compare(sub_argc, sub_argv);
    if (command == "--help" || command == "-h" || command == "help") {
      print_usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    print_usage();
    return 1;
  } catch (const io::IoError& e) {
    // Persistent I/O failure that survived the retry policy. ENOSPC is the
    // documented resumable interruption (exit 75, journals intact); every
    // other errno is an ordinary failure. One line, never a stack trace.
    std::fprintf(stderr, "error: %s\n", e.what());
    if (e.disk_full()) {
      std::fprintf(stderr, "disk full — free space and re-run with --resume\n");
      return recovery::kExitInterrupted;
    }
    return 1;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Exit-code contract (docs/ROBUSTNESS.md): no input, however corrupt,
    // may escape as an uncaught exception.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
