// Tests for the crash-safety layer's storage primitives: CRC-32, atomic
// file replacement, journal line framing, the tolerant ResumeIndex loader
// (torn tails, corrupt records, duplicates, foreign journals), and the
// outcome payload round-trips, for both unit result types, that make
// resumed studies byte-identical (docs/ROBUSTNESS.md).

#include "recovery/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/app_type.hpp"
#include "core/single_app_study.hpp"
#include "core/workload_record.hpp"
#include "recovery/json_parse.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"

namespace xres::recovery {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_raw(const std::string& path, const std::string& content) {
  std::ofstream out{path, std::ios::binary};
  out << content;
}

JournalMeta test_meta() {
  JournalMeta meta;
  meta.study = "journal-test";
  meta.root_seed = 42;
  return meta;
}

JournalRecord make_record(std::uint64_t index, const std::string& payload = "{}") {
  JournalRecord record;
  record.batch = "b";
  record.index = index;
  record.seed = 1000 + index;
  record.payload = payload;
  return record;
}

/// A temp journal path, removed on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) : path{"/tmp/xres_" + name} {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(Crc32, KnownAnswerAndChunking) {
  // The canonical CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32_hex(crc32("123456789")), "cbf43926");
  EXPECT_EQ(crc32(""), 0U);
  // Chunked continuation matches the one-shot result.
  EXPECT_EQ(crc32("456789", crc32("123")), crc32("123456789"));
  // Any flipped byte changes the checksum.
  EXPECT_NE(crc32("123456788"), crc32("123456789"));
}

TEST(AtomicFile, WritesAndReplacesWholeFiles) {
  const TempPath tmp{"atomic_test.txt"};
  write_file_atomic(tmp.path, "first");
  EXPECT_EQ(read_file(tmp.path), "first");
  write_file_atomic(tmp.path, "second, longer content\n");
  EXPECT_EQ(read_file(tmp.path), "second, longer content\n");
}

TEST(JournalFrame, RoundTripsAndRejectsTampering) {
  const std::string record = R"({"b":"x","i":1,"s":2,"p":{}})";
  const std::string line = frame_journal_line(record);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  std::string parsed;
  ASSERT_TRUE(unframe_journal_line(
      std::string_view{line}.substr(0, line.size() - 1), parsed));
  EXPECT_EQ(parsed, record);

  // Flip one payload byte: the CRC must catch it.
  std::string tampered = line.substr(0, line.size() - 1);
  tampered[tampered.size() / 2] ^= 0x01;
  EXPECT_FALSE(unframe_journal_line(tampered, parsed));

  // Truncation (a torn append) is rejected, not misread.
  EXPECT_FALSE(unframe_journal_line(
      std::string_view{line}.substr(0, line.size() / 2), parsed));
  EXPECT_FALSE(unframe_journal_line("", parsed));
  EXPECT_FALSE(unframe_journal_line("not a journal line", parsed));
}

TEST(ResumeIndex, MissingFileIsAFreshStart) {
  const ResumeIndex index = ResumeIndex::load("/tmp/xres_does_not_exist.jsonl",
                                              test_meta());
  EXPECT_FALSE(index.stats().found);
  EXPECT_TRUE(index.empty());
}

TEST(ResumeIndex, EmptyFileIsAFreshStart) {
  const TempPath tmp{"journal_empty.jsonl"};
  write_raw(tmp.path, "");
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_TRUE(index.stats().found);
  EXPECT_TRUE(index.empty());
}

TEST(ResumeIndex, LoadsWhatTheJournalWrote) {
  const TempPath tmp{"journal_roundtrip.jsonl"};
  {
    TrialJournal journal{tmp.path, test_meta(), /*flush_every=*/2};
    journal.append(make_record(0, R"({"v":0})"));
    journal.append(make_record(1, R"({"v":1})"));
    journal.append(make_record(2, R"({"v":2})"));
    EXPECT_EQ(journal.appended(), 3U);
  }
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.size(), 3U);
  EXPECT_EQ(index.stats().valid_records, 3U);
  EXPECT_EQ(index.stats().corrupt_records, 0U);
  EXPECT_FALSE(index.stats().torn_tail);

  const JournalRecord* r1 = index.find("b", 1);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r1->seed, 1001U);
  EXPECT_EQ(r1->payload, R"({"v":1})");
  EXPECT_EQ(index.find("b", 99), nullptr);
  EXPECT_EQ(index.find("other", 1), nullptr);
}

TEST(ResumeIndex, TornTailIsDroppedWithoutLosingTheRest) {
  const TempPath tmp{"journal_torn.jsonl"};
  {
    TrialJournal journal{tmp.path, test_meta()};
    journal.append(make_record(0));
    journal.append(make_record(1));
  }
  // Simulate a SIGKILL mid-append: half a framed line, no newline.
  const std::string torn = frame_journal_line(to_record_json(make_record(2)));
  std::ofstream out{tmp.path, std::ios::binary | std::ios::app};
  out << torn.substr(0, torn.size() / 2);
  out.close();

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.size(), 2U);
  EXPECT_TRUE(index.stats().torn_tail);
  EXPECT_EQ(index.stats().corrupt_records, 0U);
  EXPECT_NE(index.find("b", 0), nullptr);
  EXPECT_NE(index.find("b", 1), nullptr);
  EXPECT_EQ(index.find("b", 2), nullptr);
}

TEST(ResumeIndex, CorruptRecordMidFileIsSkippedLoudly) {
  const TempPath tmp{"journal_corrupt.jsonl"};
  {
    TrialJournal journal{tmp.path, test_meta()};
    journal.append(make_record(0));
    journal.append(make_record(1));
    journal.append(make_record(2));
  }
  // Flip one byte inside record 1's line (bit-rot / partial overwrite).
  std::string content = read_file(tmp.path);
  std::size_t line_start = 0;
  for (int skip = 0; skip < 2; ++skip) {  // meta + record 0
    line_start = content.find('\n', line_start) + 1;
  }
  content[line_start + 20] ^= 0x01;
  write_raw(tmp.path, content);

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.size(), 2U);
  EXPECT_EQ(index.stats().corrupt_records, 1U);
  EXPECT_FALSE(index.stats().torn_tail);
  EXPECT_NE(index.find("b", 0), nullptr);
  EXPECT_EQ(index.find("b", 1), nullptr);  // the corrupt one re-runs
  EXPECT_NE(index.find("b", 2), nullptr);
}

TEST(ResumeIndex, DuplicateRecordsFirstWins) {
  const TempPath tmp{"journal_dupes.jsonl"};
  {
    TrialJournal journal{tmp.path, test_meta()};
    journal.append(make_record(0, R"({"v":"first"})"));
    journal.append(make_record(0, R"({"v":"second"})"));
    journal.append(make_record(1));
  }
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.size(), 2U);
  EXPECT_EQ(index.stats().duplicate_records, 1U);
  const JournalRecord* r0 = index.find("b", 0);
  ASSERT_NE(r0, nullptr);
  EXPECT_EQ(r0->payload, R"({"v":"first"})");
}

TEST(ResumeIndex, RefusesForeignJournalsLoudly) {
  const TempPath tmp{"journal_foreign.jsonl"};
  {
    TrialJournal journal{tmp.path, test_meta()};
    journal.append(make_record(0));
  }
  JournalMeta other_study = test_meta();
  other_study.study = "someone-else";
  EXPECT_THROW((void)ResumeIndex::load(tmp.path, other_study), CheckError);

  JournalMeta other_seed = test_meta();
  other_seed.root_seed = 43;
  EXPECT_THROW((void)ResumeIndex::load(tmp.path, other_seed), CheckError);

  // Data records with no meta record at all: cannot verify ownership.
  const TempPath headless{"journal_headless.jsonl"};
  write_raw(headless.path, frame_journal_line(to_record_json(make_record(0))));
  EXPECT_THROW((void)ResumeIndex::load(headless.path, test_meta()), CheckError);

  // Garbage that happens to have valid CRC framing but a non-journal meta.
  const TempPath alien{"journal_alien.jsonl"};
  write_raw(alien.path, frame_journal_line(R"({"journal":"other-format","v":1})"));
  EXPECT_THROW((void)ResumeIndex::load(alien.path, test_meta()), CheckError);
}

TEST(ResumeIndex, WholeFileOfGarbageNeverCrashes) {
  const TempPath tmp{"journal_garbage.jsonl"};
  write_raw(tmp.path, "not\x01json\nat\x02" "all\n\n{\"c\":\"zzzz\"}\n");
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.stats().corrupt_records, 2U);
  EXPECT_TRUE(index.stats().torn_tail);
}

TEST(TrialRecord, OutcomeRoundTripsByteIdentically) {
  // A real simulated trial, so every double is an honest product of the
  // engine rather than a hand-picked round number.
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 360};
  config.technique = TechniqueKind::kMultilevel;

  Outcome<ExecutionResult> outcome;
  outcome.result = run_trial(config, 12345);
  const std::string payload = serialize_outcome(outcome);

  const Outcome<ExecutionResult> parsed = parse_outcome<ExecutionResult>(payload);
  EXPECT_EQ(parsed.result.efficiency, outcome.result.efficiency);
  EXPECT_EQ(parsed.result.wall_time.to_seconds(), outcome.result.wall_time.to_seconds());
  EXPECT_EQ(parsed.result.failures_seen, outcome.result.failures_seen);
  EXPECT_FALSE(parsed.quarantined);
  // Serialize(parse(x)) == x: nothing is lost or reformatted.
  EXPECT_EQ(serialize_outcome(parsed), payload);
}

TEST(TrialRecord, OutcomeWithMetricsRoundTrips) {
  SingleAppTrialConfig config;
  config.app = AppSpec{app_type_by_name("C64"), 30000, 360};
  config.technique = TechniqueKind::kCheckpointRestart;

  obs::TrialObs obs;
  obs.enable_metrics();
  Outcome<ExecutionResult> outcome;
  outcome.result = run_trial(config, 777, &obs);
  outcome.metrics = *obs.metrics();

  const std::string payload = serialize_outcome(outcome);
  const Outcome<ExecutionResult> parsed = parse_outcome<ExecutionResult>(payload);
  ASSERT_TRUE(parsed.metrics.has_value());
  EXPECT_EQ(serialize_outcome(parsed), payload);
}

TEST(TrialRecord, QuarantineMarkerRoundTrips) {
  Outcome<ExecutionResult> outcome;
  outcome.quarantined = true;
  outcome.quarantine_reason = "watchdog: trial exceeded 2.5s";
  const Outcome<ExecutionResult> parsed =
      parse_outcome<ExecutionResult>(serialize_outcome(outcome));
  EXPECT_TRUE(parsed.quarantined);
  EXPECT_EQ(parsed.quarantine_reason, outcome.quarantine_reason);
  EXPECT_EQ(parsed.result.efficiency, 0.0);
}

TEST(TrialRecord, MalformedPayloadsThrowNotCrash) {
  EXPECT_THROW((void)parse_outcome<ExecutionResult>(""), JsonParseError);
  EXPECT_THROW((void)parse_outcome<ExecutionResult>("{"), JsonParseError);
  EXPECT_THROW((void)parse_outcome<ExecutionResult>("{}"), JsonParseError);
  EXPECT_THROW((void)parse_outcome<ExecutionResult>(R"({"eff":true})"), JsonParseError);
  EXPECT_THROW((void)parse_outcome<ExecutionResult>("[1,2,3]"), JsonParseError);
}

TEST(WorkloadRecord, OutcomeRoundTripsByteIdentically) {
  Outcome<WorkloadRunResult> outcome;
  outcome.result.total_jobs = 40;
  outcome.result.completed = 37;
  outcome.result.dropped = 3;
  outcome.result.dropped_fraction = 3.0 / 40.0;
  outcome.result.mean_utilization = 0.8375;
  outcome.result.failures_injected = 17;
  outcome.result.selection_counts[TechniqueKind::kMultilevel] = 12;
  outcome.result.selection_counts[TechniqueKind::kParallelRecovery] = 25;

  const std::string payload = serialize_outcome(outcome);
  const Outcome<WorkloadRunResult> parsed = parse_outcome<WorkloadRunResult>(payload);
  EXPECT_EQ(parsed.result.total_jobs, 40U);
  EXPECT_EQ(parsed.result.dropped_fraction, outcome.result.dropped_fraction);
  EXPECT_EQ(parsed.result.mean_utilization, outcome.result.mean_utilization);
  EXPECT_EQ(parsed.result.selection_counts.at(TechniqueKind::kMultilevel), 12U);
  EXPECT_EQ(serialize_outcome(parsed), payload);
}

TEST(WorkloadRecord, MalformedPayloadsThrowNotCrash) {
  EXPECT_THROW((void)parse_outcome<WorkloadRunResult>("{}"), JsonParseError);
  EXPECT_THROW((void)parse_outcome<WorkloadRunResult>("null"), JsonParseError);
  // An out-of-range technique id in the selection counts is corruption.
  Outcome<WorkloadRunResult> outcome;
  outcome.result.selection_counts[TechniqueKind::kMultilevel] = 1;
  std::string payload = serialize_outcome(outcome);
  const std::size_t sel = payload.find("\"sel\":[[");
  ASSERT_NE(sel, std::string::npos);
  payload.replace(sel + 8, 1, "99");
  EXPECT_THROW((void)parse_outcome<WorkloadRunResult>(payload), JsonParseError);
}

}  // namespace
}  // namespace xres::recovery
