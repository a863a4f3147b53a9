#include "study/study_main.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/ledger.hpp"
#include "obs/perf.hpp"
#include "recovery/shutdown.hpp"
#include "study/options.hpp"
#include "study/runlog.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace xres::study {

namespace {

/// Fill in everything about \p record that is only known after the study
/// ran, then stash it (for the suite's per-cell collection), append it to
/// the ledger, and print the status banner + wall-clock summary.
void finish_run_record(obs::RunRecord& record, const obs::PerfCounters& before,
                       std::chrono::steady_clock::time_point start,
                       const std::string& metrics_path, bool ledger_enabled,
                       const std::string& ledger_path) {
  record.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const obs::PerfCounters delta = obs::perf_delta(before);
  record.counters = obs::perf_counter_items(delta);
  if (record.wall_seconds > 0) {
    record.trials_per_second =
        static_cast<double>(delta.trials_executed) / record.wall_seconds;
    record.events_per_second =
        static_cast<double>(delta.events_executed) / record.wall_seconds;
  }
  record.peak_rss = obs::peak_rss_bytes();
  if (record.status == 0 && !metrics_path.empty()) {
    std::ifstream in{metrics_path, std::ios::binary};
    if (in.good()) {
      std::ostringstream buf;
      buf << in.rdbuf();
      record.metrics_crc = crc32_hex(crc32(buf.str()));
    }
  }

  obs::set_last_run_record(record);
  if (ledger_enabled && obs::append_run_record(ledger_path, record)) {
    // Deterministic banner: the path only — never the study name, run id or
    // timings, so captured stdout stays byte-identical across runs and
    // between spec-file and compiled-in invocations.
    statusf("run recorded in ledger %s\n", ledger_path.c_str());
  }
  // Wall-clock telemetry is nondeterministic by design, so it goes to
  // stderr unconditionally (like the progress meter), never into a
  // captured or byte-compared stream.
  std::fprintf(stderr,
               "perf: %.2fs wall, %.1f trials/s, %.0f events/s, peak rss %.1f MiB\n",
               record.wall_seconds, record.trials_per_second,
               record.events_per_second,
               static_cast<double>(record.peak_rss) / (1024.0 * 1024.0));
}

}  // namespace

int study_main(const std::string& name, int argc, const char* const* argv) {
  const StudyDefinition* def = StudyRegistry::instance().find(name);
  if (def == nullptr) {
    std::fprintf(stderr, "unknown study '%s' — see `xres list` for the catalog\n",
                 name.c_str());
    return 1;
  }
  return study_main(*def, argc, argv);
}

int study_main(const StudyDefinition& def, int argc, const char* const* argv) {
  CliParser cli{def.help_summary()};
  add_study_options(cli, def);
  if (!cli.parse_or_exit(argc, argv)) return 0;
  ParamSet params = read_study_params(cli, def);
  HarnessOptions options = read_harness_options(cli, def);
  return run_study(def, std::move(params), std::move(options));
}

int run_study(const StudyDefinition& def, ParamSet params, HarnessOptions options) {
  obs::RunRecord record;
  record.id = obs::mint_run_id();
  record.study = def.name;
  record.cell = options.run_label;
  record.suite = options.run_suite;
  record.seed = options.seed;
  record.threads =
      options.threads != 0 ? options.threads
                           : std::max(1U, std::thread::hardware_concurrency());
  record.build = build_describe();
  for (const auto& [key, value] : params.values()) {
    record.params.emplace_back(key, value);
  }
  {
    // The params digest excludes the registry-injected platform.* params so
    // it stays comparable with pre-topology ledger records; the platform
    // params get their own digest (platform_crc), which `xres compare`
    // reports as a warning, not drift — two runs on different platforms are
    // expected to produce different artifacts.
    std::vector<std::pair<std::string, std::string>> study_params;
    std::vector<std::pair<std::string, std::string>> platform_params;
    for (const auto& kv : record.params) {
      if (kv.first.rfind("platform.", 0) == 0) {
        platform_params.push_back(kv);
      } else {
        study_params.push_back(kv);
      }
    }
    record.params_digest = obs::params_digest(study_params);
    if (!platform_params.empty()) {
      record.platform_crc = obs::params_digest(platform_params);
    }
  }

  const bool ledger_enabled = options.ledger;
  const std::string ledger_path = options.ledger_path;
  const std::string metrics_path = options.obs.metrics_path;
  const obs::PerfCounters before = obs::perf_snapshot();
  const auto start = std::chrono::steady_clock::now();

  StudyContext ctx{def, std::move(params), std::move(options)};
  try {
    record.status = def.run(ctx);
  } catch (const io::IoError& e) {
    if (e.disk_full()) {
      // ENOSPC on a critical artifact (journal, CSV, metrics): the journal
      // is fsync'd up to the failure, so this is a *resumable* interruption
      // — exit 75, not 1, and tell the user how to finish the run.
      record.status = recovery::kExitInterrupted;
      finish_run_record(record, before, start, metrics_path, ledger_enabled,
                        ledger_path);
      std::fprintf(stderr,
                   "disk full: %s\nre-run with --journal <path> --resume once "
                   "space is available to complete the study (exit %d)\n",
                   e.what(), recovery::kExitInterrupted);
      return recovery::kExitInterrupted;
    }
    record.status = -1;
    finish_run_record(record, before, start, metrics_path, ledger_enabled,
                      ledger_path);
    throw;
  } catch (...) {
    // Record the failed run too (status -1): a crash that leaves no trace
    // is exactly what the ledger exists to prevent.
    record.status = -1;
    finish_run_record(record, before, start, metrics_path, ledger_enabled,
                      ledger_path);
    throw;
  }
  finish_run_record(record, before, start, metrics_path, ledger_enabled,
                    ledger_path);
  return record.status;
}

}  // namespace xres::study
