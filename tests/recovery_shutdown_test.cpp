// Tests for graceful-shutdown semantics under fire (recovery/shutdown.hpp):
// signal-storm escalation (first signal drains, every repeat hard-exits
// with 128+sig), a drain that still flushes the journal, and the journal's
// fsync/append retry policy holding up when faults are injected exactly at
// the flush op — including with a shutdown already requested, the "SIGTERM
// lands during the fsync batch" case.

#include "recovery/shutdown.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>

#include "core/executor.hpp"
#include "recovery/journal.hpp"
#include "util/io.hpp"

namespace xres {
namespace {

using recovery::JournalMeta;
using recovery::JournalRecord;
using recovery::ResumeIndex;
using recovery::TrialJournal;

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path{::testing::TempDir() + name} {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

JournalMeta test_meta() {
  JournalMeta meta;
  meta.study = "shutdown-test";
  meta.root_seed = 11;
  return meta;
}

JournalRecord make_record(std::uint64_t index) {
  JournalRecord record;
  record.batch = "b";
  record.index = index;
  record.seed = 500 + index;
  record.payload = "{}";
  return record;
}

class ShutdownTest : public ::testing::Test {
 protected:
  void TearDown() override {
    io::clear_faults();
    recovery::clear_shutdown_for_tests();
  }
};

TEST_F(ShutdownTest, SignalStormEscalates) {
  recovery::clear_shutdown_for_tests();
  EXPECT_FALSE(recovery::shutdown_requested());

  // First signal: start draining (handler returns, no exit).
  EXPECT_EQ(recovery::note_shutdown_signal(SIGINT), 0);
  EXPECT_TRUE(recovery::shutdown_requested());
  EXPECT_EQ(recovery::shutdown_signal(), SIGINT);

  // Every subsequent signal of the storm escalates with the shell
  // convention 128+sig — a wedged drain can always be killed.
  EXPECT_EQ(recovery::note_shutdown_signal(SIGINT), 128 + SIGINT);
  EXPECT_EQ(recovery::note_shutdown_signal(SIGTERM), 128 + SIGTERM);
  EXPECT_EQ(recovery::note_shutdown_signal(SIGINT), 128 + SIGINT);
  EXPECT_TRUE(recovery::shutdown_requested());
}

TEST_F(ShutdownTest, FirstSignalOfEitherKindDrains) {
  recovery::clear_shutdown_for_tests();
  EXPECT_EQ(recovery::note_shutdown_signal(SIGTERM), 0);
  EXPECT_EQ(recovery::shutdown_signal(), SIGTERM);
  EXPECT_EQ(recovery::note_shutdown_signal(SIGTERM), 128 + SIGTERM);
}

TEST_F(ShutdownTest, DrainStillFlushesJournal) {
  // A shutdown arrives mid-batch: the journaled loop drains in-flight units
  // and the journal must still land every completed record on disk — that
  // is the whole point of exiting 75 instead of dying.
  const TempPath tmp{"xres_shutdown_drain.jsonl"};
  recovery::clear_shutdown_for_tests();
  {
    TrialJournal journal{tmp.path, test_meta(), /*flush_every=*/1000};
    recovery::TrialRecoveryOptions rec;
    rec.journal = &journal;
    std::atomic<std::uint64_t> started{0};
    recovery::BatchReport report;
    (void)TrialExecutor{2}.run_journaled<ExecutionResult>(
        64,
        [&](std::size_t, obs::TrialObs*) {
          if (started.fetch_add(1) == 4) recovery::request_shutdown_for_tests();
          return ExecutionResult{};
        },
        {}, rec, "b", [](std::size_t i) { return std::uint64_t{500 + i}; }, &report);
    EXPECT_TRUE(report.interrupted);
    EXPECT_LT(report.executed, 64U);
    EXPECT_EQ(journal.appended(), report.executed);
    // The driver's drain path: flush before exiting kExitInterrupted.
    journal.flush();
  }
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_TRUE(index.stats().found);
  EXPECT_GE(index.stats().valid_records, 5U);  // at least up to the signal
  EXPECT_EQ(index.stats().corrupt_records, 0U);
  EXPECT_FALSE(index.stats().torn_tail);
}

/// The 1-based op index of the flush() fsync for a journal that appended
/// \p records records (measured, not hardcoded, so layout changes in the
/// write path cannot silently invalidate the fault aim).
std::uint64_t journal_flush_op(std::size_t records) {
  const TempPath tmp{"xres_shutdown_probe.jsonl"};
  io::install_faults(io::FaultConfig{});
  std::uint64_t ops = 0;
  {
    TrialJournal journal{tmp.path, test_meta(), 1000};
    for (std::size_t i = 0; i < records; ++i) {
      journal.append(make_record(i));
    }
    journal.flush();
    ops = io::ops_performed();  // last op so far IS the flush fsync
  }
  io::clear_faults();
  return ops;
}

TEST_F(ShutdownTest, InjectedFsyncFaultAtFlushIsRetriedAndJournalSurvives) {
  constexpr std::size_t kRecords = 3;
  const std::uint64_t flush_op = journal_flush_op(kRecords);
  ASSERT_GE(flush_op, kRecords + 2);  // open + meta writes precede appends

  const TempPath tmp{"xres_shutdown_fsync_fault.jsonl"};
  io::FaultConfig config;
  config.one_shots.push_back({flush_op, io::kFaultFsync});
  io::install_faults(config);
  {
    TrialJournal journal{tmp.path, test_meta(), 1000};
    for (std::size_t i = 0; i < kRecords; ++i) {
      journal.append(make_record(i));
    }
    EXPECT_NO_THROW(journal.flush());  // first fsync fails, retry lands it
  }
  io::clear_faults();
  EXPECT_GE(io::faults_injected(), 1U);

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.stats().valid_records, kRecords);
  EXPECT_EQ(index.stats().corrupt_records, 0U);
}

TEST_F(ShutdownTest, ShortWriteMidAppendIsIsolatedByRetry) {
  constexpr std::size_t kRecords = 3;
  // Aim a short write at the second data record's fwrite: one op after the
  // state reached by (open, meta, append #1) with nothing injected.
  const std::uint64_t ops_before = journal_flush_op(1) - 1;  // minus flush fsync
  const std::uint64_t target = ops_before + 1;

  const TempPath tmp{"xres_shutdown_short.jsonl"};
  io::FaultConfig config;
  config.one_shots.push_back({target, io::kFaultShort});
  io::install_faults(config);
  {
    TrialJournal journal{tmp.path, test_meta(), 1000};
    for (std::size_t i = 0; i < kRecords; ++i) {
      journal.append(make_record(i));
    }
    journal.flush();
  }
  io::clear_faults();
  EXPECT_GE(io::faults_injected(), 1U);

  // The torn half-line was isolated behind a '\n' by the retry, so the
  // tolerant loader drops exactly one corrupt line and keeps every record.
  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.stats().valid_records, kRecords);
  EXPECT_EQ(index.stats().corrupt_records, 1U);
  for (std::size_t i = 0; i < kRecords; ++i) {
    EXPECT_NE(index.find("b", i), nullptr) << "record " << i;
  }
}

TEST_F(ShutdownTest, SigtermDuringFsyncBatchStillFlushes) {
  // The race satellite 3 pins: SIGTERM arrives while the journal is inside
  // its fsync batch AND the fsync itself fails transiently. The drain must
  // neither drop the batch nor clear the shutdown request.
  constexpr std::size_t kRecords = 4;
  const std::uint64_t flush_op = journal_flush_op(kRecords);

  const TempPath tmp{"xres_shutdown_term_fsync.jsonl"};
  io::FaultConfig config;
  config.one_shots.push_back({flush_op, io::kFaultFsync});
  io::install_faults(config);
  recovery::clear_shutdown_for_tests();
  {
    TrialJournal journal{tmp.path, test_meta(), 1000};
    for (std::size_t i = 0; i < kRecords; ++i) {
      journal.append(make_record(i));
    }
    EXPECT_EQ(recovery::note_shutdown_signal(SIGTERM), 0);  // SIGTERM lands
    EXPECT_NO_THROW(journal.flush());
  }
  io::clear_faults();
  EXPECT_TRUE(recovery::shutdown_requested());
  EXPECT_EQ(recovery::shutdown_signal(), SIGTERM);

  const ResumeIndex index = ResumeIndex::load(tmp.path, test_meta());
  EXPECT_EQ(index.stats().valid_records, kRecords);
  EXPECT_EQ(index.stats().corrupt_records, 0U);
  recovery::clear_shutdown_for_tests();
}

}  // namespace
}  // namespace xres
