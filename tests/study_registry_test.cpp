// Tests for the xres::study registry: the catalog is complete and
// well-formed, parameter schemas validate, and the generic study_main
// rejects bad invocations with the usage exit code.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "study/context.hpp"
#include "study/options.hpp"
#include "study/registry.hpp"
#include "study/spec.hpp"
#include "study/study_main.hpp"
#include "study/sweep.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace xres::study {
namespace {

TEST(StudyRegistry, CatalogIsEnumerableAndWellFormed) {
  const StudyRegistry& registry = StudyRegistry::instance();
  const std::vector<const StudyDefinition*> all = registry.all();
  EXPECT_GE(all.size(), 21u);
  EXPECT_EQ(all.size(), registry.size());

  std::set<std::string> names;
  for (const StudyDefinition* def : all) {
    ASSERT_NE(def, nullptr);
    EXPECT_FALSE(def->name.empty());
    EXPECT_TRUE(names.insert(def->name).second) << "duplicate name: " << def->name;
    EXPECT_FALSE(def->description.empty()) << def->name;
    EXPECT_TRUE(static_cast<bool>(def->run)) << def->name;
    EXPECT_EQ(registry.find(def->name), def);
  }
}

TEST(StudyRegistry, CatalogOrderedByGroupThenName) {
  const std::vector<const StudyDefinition*> all = StudyRegistry::instance().all();
  for (std::size_t i = 1; i < all.size(); ++i) {
    const StudyDefinition& a = *all[i - 1];
    const StudyDefinition& b = *all[i];
    const bool ordered =
        a.group < b.group || (a.group == b.group && a.name < b.name);
    EXPECT_TRUE(ordered) << a.name << " before " << b.name;
  }
}

TEST(StudyRegistry, PaperStudiesArePresent) {
  const StudyRegistry& registry = StudyRegistry::instance();
  for (const char* name :
       {"fig1_efficiency_a32", "fig2_efficiency_d64", "fig3_efficiency_d64_mtbf2p5",
        "fig4_resource_management", "fig5_resilience_selection", "table1_app_types",
        "table2_parameters", "efficiency", "workload"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.find("no_such_study"), nullptr);

  // The suite membership: every paper figure and table, nothing else.
  const auto suite =
      registry.group_members({StudyGroup::kFigure, StudyGroup::kTable});
  EXPECT_EQ(suite.size(), 7u);
}

TEST(StudyRegistry, JournalIdsKeepHistoricalIdentities) {
  const StudyRegistry& registry = StudyRegistry::instance();
  // Figure 1-3 journals are identified by their historical title strings so
  // pre-registry journals stay resumable.
  EXPECT_EQ(registry.find("fig1_efficiency_a32")->journal_study(),
            "Figure 1: efficiency vs. system share, application A32, MTBF 10 y");
  EXPECT_EQ(registry.find("fig2_efficiency_d64")->journal_study(),
            "Figure 2: efficiency vs. system share, application D64, MTBF 10 y");
  EXPECT_EQ(registry.find("fig3_efficiency_d64_mtbf2p5")->journal_study(),
            "Figure 3: efficiency vs. system share, application D64, MTBF 2.5 y");
  EXPECT_EQ(registry.find("efficiency")->journal_study(), "xres efficiency");
  EXPECT_EQ(registry.find("workload")->journal_study(), "xres workload");
  // Everything else journals under its own name.
  EXPECT_EQ(registry.find("ablation_severity_pmf")->journal_study(),
            "ablation_severity_pmf");
}

TEST(StudyRegistry, SchemaDefaultsParseThroughAccessors) {
  for (const StudyDefinition* def : StudyRegistry::instance().all()) {
    const ParamSet params{*def};
    EXPECT_EQ(params.values().size(), def->params.size()) << def->name;
    for (const ParamSpec& spec : def->params) {
      EXPECT_FALSE(spec.help.empty()) << def->name << " --" << spec.key;
      switch (spec.type) {
        case ParamSpec::Type::kInt:
          EXPECT_NO_THROW((void)params.integer(spec.key))
              << def->name << " --" << spec.key;
          break;
        case ParamSpec::Type::kReal:
          EXPECT_NO_THROW((void)params.real(spec.key))
              << def->name << " --" << spec.key;
          break;
        case ParamSpec::Type::kString:
          EXPECT_NO_THROW((void)params.str(spec.key))
              << def->name << " --" << spec.key;
          break;
      }
      // The default must satisfy the spec's own validation.
      EXPECT_NO_THROW(validate_param_value(spec, spec.default_value))
          << def->name << " --" << spec.key;
    }
  }
}

TEST(StudyRegistry, ParamBindingValidation) {
  const StudyDefinition* def = StudyRegistry::instance().find("fig1_efficiency_a32");
  ASSERT_NE(def, nullptr);
  ParamSet params{*def};

  EXPECT_NO_THROW(params.set("trials", "80"));
  EXPECT_EQ(params.u32("trials"), 80u);

  EXPECT_THROW(params.set("no_such_key", "1"), CheckError);
  EXPECT_THROW(params.set("trials", "bogus"), CheckError);
  EXPECT_THROW(params.set("trials", "0"), CheckError);  // below the minimum
}

TEST(StudyRegistry, CsvPathImpliesCsv) {
  const StudyDefinition* def = StudyRegistry::instance().find("fig1_efficiency_a32");
  ASSERT_NE(def, nullptr);
  CliParser cli{def->help_summary()};
  add_study_options(cli, *def);
  const char* argv[] = {"prog", "--csv-path", "/tmp/implied.csv"};
  ASSERT_TRUE(cli.parse(3, argv));
  const HarnessOptions options = read_harness_options(cli, *def);
  EXPECT_TRUE(options.csv);
  EXPECT_EQ(options.csv_path, "/tmp/implied.csv");
}

// A definition without --threads runs on one worker whatever the harness
// options hold (a program driving run_study may pass any count).
TEST(StudyRegistry, StudiesWithoutThreadsOptionRunOnOneWorker) {
  for (const char* name : {"ablation_burst_failures", "ablation_pfs_contention",
                           "ablation_pfs_contention_topology", "fig4_resource_management"}) {
    const StudyDefinition* def = StudyRegistry::instance().find(name);
    ASSERT_NE(def, nullptr) << name;
    HarnessOptions options = default_harness_options(*def);
    options.threads = 4;
    const StudyContext ctx{*def, ParamSet{*def}, options};
    const unsigned expected = def->options.threads ? 4 : 1;
    EXPECT_EQ(ctx.threads(), expected) << name;
    EXPECT_EQ(ctx.make_executor().threads(), expected) << name;
  }
}

using StudyMainDeathTest = ::testing::Test;

TEST(StudyMainDeathTest, UnknownStudyReturnsOne) {
  const char* argv[] = {"prog"};
  EXPECT_EQ(study_main("no_such_study", 1, argv), 1);
}

TEST(StudyMainDeathTest, UnknownOptionExitsUsage) {
  // `xres run <study> --set nonexistent=5` lowers into exactly this argv, so
  // this is the unknown-`--set`-key exit path.
  const char* argv[] = {"prog", "--nonexistent=5"};
  EXPECT_EXIT(study_main("fig1_efficiency_a32", 2, argv),
              ::testing::ExitedWithCode(CliParser::kExitUsage),
              "unknown option");
}

TEST(StudyMainDeathTest, BadParamValueExitsUsage) {
  const char* argv[] = {"prog", "--trials=bogus"};
  EXPECT_EXIT(study_main("fig1_efficiency_a32", 2, argv),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "trials");
}

TEST(StudyMainDeathTest, ResumeWithoutJournalExitsUsage) {
  const char* argv[] = {"prog", "--resume"};
  EXPECT_EXIT(study_main("fig1_efficiency_a32", 2, argv),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "--resume");
}

// A value outside a choice parameter's set is a usage error, raised before
// any trial or pattern runs.
TEST(StudyMainDeathTest, UnknownChoiceValuesExitUsage) {
  struct Case {
    const char* study;
    const char* count;
    const char* value;
    const char* message;
  };
  for (const Case& c : {Case{"workload", "--patterns=1", "--bias=high-mem", "high-mem"},
                        Case{"workload", "--patterns=1", "--scheduler=bogus", "scheduler"},
                        Case{"workload", "--patterns=1", "--technique=bogus", "technique"},
                        Case{"efficiency", "--trials=1", "--type=Z99", "Z99"}}) {
    const char* argv[] = {"prog", "--no-ledger", c.count, c.value};
    EXPECT_EXIT(study_main(c.study, 4, argv),
                ::testing::ExitedWithCode(CliParser::kExitUsage), c.message)
        << c.value;
  }
}

TEST(StudyMainDeathTest, PfsAblationsRejectNonFlatPlatform) {
  // Both PFS ablations sweep the PFS model themselves, so a platform
  // override would silently run their rows on the wrong platform.
  for (const char* name : {"ablation_pfs_contention", "ablation_pfs_contention_topology"}) {
    const char* argv[] = {"prog", "--patterns=1", "--platform.model=fattree"};
    EXPECT_EXIT(study_main(name, 3, argv),
                ::testing::ExitedWithCode(CliParser::kExitUsage), "platform.model")
        << name;
  }
}

TEST(StudyMainDeathTest, WorkloadAblationsRejectThreads) {
  for (const char* name : {"ablation_burst_failures", "ablation_pfs_contention",
                           "ablation_pfs_contention_topology"}) {
    const char* argv[] = {"prog", "--patterns=1", "--threads=4"};
    EXPECT_EXIT(study_main(name, 3, argv),
                ::testing::ExitedWithCode(CliParser::kExitUsage), "threads")
        << name;
  }
}

// The exit-2 contract for `xres sweep`: every malformed invocation dies with
// the usage exit code and a one-line diagnostic naming the offending key.
using SweepMainDeathTest = ::testing::Test;

int sweep_argv(std::vector<const char*> args) {
  args.insert(args.begin(), "sweep");
  return sweep_main(static_cast<int>(args.size()), args.data());
}

TEST(SweepMainDeathTest, UnknownAxisExitsUsage) {
  EXPECT_EXIT(sweep_argv({"efficiency", "--axis", "bogus=1,2", "--out-dir", "/tmp/x"}),
              ::testing::ExitedWithCode(CliParser::kExitUsage),
              "unknown sweep axis 'bogus'");
}

TEST(SweepMainDeathTest, MalformedAxisExitsUsage) {
  EXPECT_EXIT(sweep_argv({"efficiency", "--axis", "noequals", "--out-dir", "/tmp/x"}),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "malformed --axis");
}

TEST(SweepMainDeathTest, DuplicateAxisExitsUsage) {
  EXPECT_EXIT(sweep_argv({"efficiency", "--axis", "trials=1,2", "--axis",
                          "trials=4,8", "--out-dir", "/tmp/x"}),
              ::testing::ExitedWithCode(CliParser::kExitUsage),
              "duplicate axis 'trials'");
}

TEST(SweepMainDeathTest, OutOfRangeAxisValueExitsUsage) {
  EXPECT_EXIT(sweep_argv({"efficiency", "--axis", "trials=0", "--out-dir", "/tmp/x"}),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "trials");
}

TEST(SweepMainDeathTest, MissingOutDirExitsUsage) {
  EXPECT_EXIT(sweep_argv({"efficiency", "--axis", "trials=1,2"}),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "--out-dir");
}

TEST(SweepMainDeathTest, BadThreadsExitsUsage) {
  EXPECT_EXIT(sweep_argv({"efficiency", "--axis", "trials=1,2", "--out-dir",
                          "/tmp/x", "--threads", "zero"}),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "--threads");
}

TEST(SweepMainDeathTest, UnknownStudyReturnsOne) {
  const char* argv[] = {"sweep", "no_such_study", "--axis", "trials=1",
                        "--out-dir", "/tmp/x"};
  EXPECT_EQ(sweep_main(6, argv), 1);
}

// The same contract for spec files: a bad spec dies with exit 2 and a
// diagnostic prefixed by the spec path.
using SpecLoadDeathTest = ::testing::Test;

std::string write_spec(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream{path, std::ios::binary} << content;
  return path;
}

TEST(SpecLoadDeathTest, MissingFileExitsUsage) {
  EXPECT_EXIT((void)load_study_from_file_or_exit("/tmp/spec_no_such_file.toml"),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "cannot read");
}

TEST(SpecLoadDeathTest, MalformedTomlExitsUsageWithLine) {
  const std::string path = write_spec("spec_death_bad.toml", "[study\nname=1\n");
  EXPECT_EXIT((void)load_study_from_file_or_exit(path),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "line 1");
}

TEST(SpecLoadDeathTest, UnknownBaseExitsUsage) {
  const std::string path = write_spec(
      "spec_death_base.toml", "[study]\nname = \"x\"\nbase = \"no_such_study\"\n");
  EXPECT_EXIT((void)load_study_from_file_or_exit(path),
              ::testing::ExitedWithCode(CliParser::kExitUsage),
              "unknown base study 'no_such_study'");
}

TEST(SpecLoadDeathTest, UnknownParamExitsUsage) {
  const std::string path = write_spec(
      "spec_death_param.toml",
      "[study]\nname = \"x\"\nbase = \"efficiency\"\n[params]\nbogus = 1\n");
  EXPECT_EXIT((void)load_study_from_file_or_exit(path),
              ::testing::ExitedWithCode(CliParser::kExitUsage),
              "unknown parameter 'bogus'");
}

TEST(SpecLoadDeathTest, OutOfRangeParamExitsUsage) {
  const std::string path = write_spec(
      "spec_death_range.toml",
      "[study]\nname = \"x\"\nbase = \"efficiency\"\n[params]\ntrials = 0\n");
  EXPECT_EXIT((void)load_study_from_file_or_exit(path),
              ::testing::ExitedWithCode(CliParser::kExitUsage), "trials");
}

}  // namespace
}  // namespace xres::study
