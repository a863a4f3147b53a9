#include "core/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/workload_record.hpp"
#include "obs/perf.hpp"
#include "recovery/journal.hpp"
#include "recovery/shutdown.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"

namespace xres {

namespace {

/// Process-wide persistent worker pool shared by every TrialExecutor batch.
/// Workers are spawned on demand, parked on a condition variable between
/// batches and reused, so a study that calls run_batch per cell pays the
/// thread spawn/join cost once per process instead of once per cell — and
/// per-worker thread_local caches (plans, severity models) survive across
/// batches. Determinism is unaffected: the pool changes only which OS
/// threads run the same atomic-handout loop, and result slots are indexed.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  /// Invoke `fn` once on each of \p workers pool threads and block until
  /// every invocation returns. `fn` must be a drain-until-empty loop over
  /// shared state; a nested call from inside a pool worker (a trial body
  /// that itself fans out) degrades to one serial pass on the calling
  /// thread, which such a loop completes by construction.
  void run(std::size_t workers, const std::function<void()>& fn) {
    if (workers == 0) return;
    if (t_pool_worker) {
      fn();
      return;
    }
    std::unique_lock<std::mutex> lock{mutex_};
    while (threads_.size() < workers) {
      threads_.emplace_back([this] { worker_loop(); });
    }
    job_ = &fn;
    starts_left_ = workers;
    finishes_left_ = workers;
    ++epoch_;
    work_cv_.notify_all();
    done_cv_.wait(lock, [&] { return finishes_left_ == 0; });
    job_ = nullptr;
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  void worker_loop() {
    t_pool_worker = true;
    std::unique_lock<std::mutex> lock{mutex_};
    std::uint64_t seen = 0;
    for (;;) {
      work_cv_.wait(lock,
                    [&] { return stop_ || (epoch_ != seen && starts_left_ > 0); });
      if (stop_) return;
      seen = epoch_;
      --starts_left_;
      const std::function<void()>* job = job_;
      lock.unlock();
      (*job)();
      lock.lock();
      if (--finishes_left_ == 0) done_cv_.notify_all();
    }
  }

  static thread_local bool t_pool_worker;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  /// Batch state under mutex_: the current job, how many workers still need
  /// to pick it up, and how many have yet to finish it. run() returns only
  /// when finishes_left_ hits zero, so batches never overlap.
  const std::function<void()>* job_{nullptr};
  std::size_t starts_left_{0};
  std::size_t finishes_left_{0};
  std::uint64_t epoch_{0};
  bool stop_{false};
};

thread_local bool WorkerPool::t_pool_worker = false;

/// How a unit loop ended: whether a drain left units undone, and the
/// first exception a unit threw.
struct LoopEnd {
  bool interrupted{false};
  std::exception_ptr error;
};

/// The one unit loop behind for_each and run_journaled: hands the indices
/// [0, count) out through an atomic counter to min(threads, count)
/// workers, the calling thread itself when that is one, and calls
/// `unit(i)` for each. The first exception stops the handout and is
/// returned once every worker has stopped. With \p drain set, a shutdown
/// signal (recovery/shutdown.hpp) stops the handout too: the units in
/// flight finish and the loop reports itself interrupted when it left any
/// unit undone.
LoopEnd run_units(unsigned threads, std::size_t count,
                  const std::function<void(std::size_t)>& unit,
                  const TrialProgress& progress, bool drain) {
  LoopEnd end;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> interrupted{false};
  std::mutex mutex;  // guards end.error, done and the progress callback
  std::size_t done = 0;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      if (drain && recovery::shutdown_requested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      try {
        unit(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{mutex};
          if (!end.error) end.error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      if (progress) {
        const std::lock_guard<std::mutex> lock{mutex};
        progress(++done, count);
      }
    }
  };

  const std::size_t workers = std::min<std::size_t>(threads, count);
  if (workers <= 1) {
    worker();
  } else {
    WorkerPool::instance().run(workers, worker);
  }
  end.interrupted = interrupted.load(std::memory_order_relaxed);
  return end;
}

}  // namespace

std::uint64_t TrialSpec::derived_seed(std::uint64_t root) const {
  if (seed_keys.empty()) return root;
  std::vector<std::uint64_t> keys;
  keys.reserve(seed_keys.size() + 1);
  keys.push_back(root);
  keys.insert(keys.end(), seed_keys.begin(), seed_keys.end());
  return hash_seed(keys);
}

ExecutionResult run_trial(const TrialSpec& spec, std::uint64_t root_seed,
                          obs::TrialObs* obs) {
  const std::uint64_t seed = spec.derived_seed(root_seed);
  return std::visit([seed, obs](const auto& work) { return run_trial(work, seed, obs); },
                    spec.work);
}

TrialExecutor::TrialExecutor(unsigned threads) : threads_{threads} {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

void TrialExecutor::for_each(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             const TrialProgress& progress) const {
  const LoopEnd end = run_units(threads_, count, body, progress, /*drain=*/false);
  if (end.error) std::rethrow_exception(end.error);
}

template <typename Result>
std::vector<Result> TrialExecutor::run_journaled(
    std::size_t count, const std::function<Result(std::size_t, obs::TrialObs*)>& run,
    std::span<obs::TrialObs> observers, const recovery::TrialRecoveryOptions& rec,
    const std::string& label, const std::function<std::uint64_t(std::size_t)>& fingerprint,
    recovery::BatchReport* report, const TrialProgress& progress) const {
  const bool observed = !observers.empty();
  XRES_CHECK(!observed || observers.size() == count,
             "one observer per unit, or no observers at all");

  std::vector<Result> results(count);
  const unsigned attempts = std::max(1U, rec.trial_attempts);
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> resumed{0};
  std::atomic<std::size_t> retried{0};
  std::atomic<std::size_t> quarantined{0};
  std::atomic<std::size_t> stale{0};
  std::mutex quarantine_mutex;

  // Restore unit i from its journal record; false when it must run.
  auto restore = [&](std::size_t i) {
    const recovery::JournalRecord* record = rec.resume->find(label, i);
    if (record == nullptr) return false;
    if (record->seed != fingerprint(i)) {
      // The sweep changed under the journal; re-running is the only safe
      // answer.
      stale.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Trace-collecting units always re-run: the simulation is
    // deterministic, so re-running rebuilds the identical trace, and
    // journaling event buffers would dwarf the results they describe.
    if (observed && observers[i].trace() != nullptr) return false;
    recovery::Outcome<Result> outcome;
    try {
      outcome = recovery::parse_outcome<Result>(record->payload);
    } catch (const recovery::JsonParseError&) {
      stale.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (observed && observers[i].metrics() != nullptr) {
      // Journaled without metrics (an unobserved earlier run) but needed
      // now: re-run rather than hand back a hole in the merge.
      if (!outcome.metrics.has_value()) return false;
      *observers[i].metrics() = *outcome.metrics;
    }
    results[i] = std::move(outcome.result);
    return true;
  };

  auto journal_outcome = [&](std::size_t i, const recovery::Outcome<Result>& outcome) {
    recovery::JournalRecord record;
    record.batch = label;
    record.index = i;
    record.seed = fingerprint(i);
    record.payload = recovery::serialize_outcome(outcome);
    rec.journal->append(record);
  };

  // Re-arm a unit's enabled observer channels so every attempt starts from
  // a clean slate instead of double-counting a failed predecessor.
  auto reset_observer = [&](std::size_t i) {
    if (!observed) return;
    if (observers[i].metrics() != nullptr) observers[i].enable_metrics();
    if (observers[i].trace() != nullptr) observers[i].enable_trace();
  };

  // One unit through the whole envelope: resume skip, then up to `attempts`
  // same-seed tries under the watchdog deadline, then quarantine (or, with
  // quarantine off, the exception fails the loop). Only std::exception is
  // retryable; anything else is a bug and escapes immediately.
  auto unit = [&](std::size_t i) {
    if (rec.resume != nullptr && restore(i)) {
      resumed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    obs::TrialObs* obs = observed ? &observers[i] : nullptr;
    for (unsigned attempt = 1;; ++attempt) {
      try {
        const ScopedDeadline deadline{rec.trial_timeout_seconds};
        reset_observer(i);
        const auto start = std::chrono::steady_clock::now();
        results[i] = run(i, obs);
        if (rec.journal != nullptr) {
          recovery::Outcome<Result> outcome;
          outcome.result = results[i];
          if (obs != nullptr && obs->metrics() != nullptr) outcome.metrics = *obs->metrics();
          outcome.wall_seconds =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                  .count();
          outcome.attempts = attempt;
          journal_outcome(i, outcome);
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        return;
      } catch (const std::exception& e) {
        if (attempt < attempts) {
          retried.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!rec.quarantine_enabled()) throw;
        {
          const std::lock_guard<std::mutex> lock{quarantine_mutex};
          // Present but worthless (an infeasible plan's zero efficiency, a
          // zero-job pattern run), so the study's reductions stay
          // well-defined.
          results[i] = Result{};
          reset_observer(i);
          if (rec.journal != nullptr) {
            recovery::Outcome<Result> outcome;
            outcome.quarantined = true;
            outcome.quarantine_reason = e.what();
            outcome.attempts = attempts;
            if (obs != nullptr && obs->metrics() != nullptr) {
              outcome.metrics.emplace();  // clean zero set, matching the reset
            }
            journal_outcome(i, outcome);
          }
        }
        quarantined.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  };

  // Only a journaled loop drains: its finished units can be resumed, and
  // only a journal makes the harness install the signal handlers.
  const LoopEnd end = run_units(threads_, count, unit, progress, rec.journal != nullptr);
  if (report != nullptr) {
    report->executed += executed.load(std::memory_order_relaxed);
    report->resumed += resumed.load(std::memory_order_relaxed);
    report->retried += retried.load(std::memory_order_relaxed);
    report->quarantined += quarantined.load(std::memory_order_relaxed);
    report->stale_records += stale.load(std::memory_order_relaxed);
    report->interrupted = report->interrupted || end.interrupted;
  }
  // One flush per loop into the process-global telemetry (obs/perf.hpp):
  // the per-unit accounting above already paid for these atomics.
  obs::perf_add_trials(executed.load(std::memory_order_relaxed),
                       resumed.load(std::memory_order_relaxed),
                       retried.load(std::memory_order_relaxed),
                       quarantined.load(std::memory_order_relaxed));
  if (end.error) std::rethrow_exception(end.error);
  return results;
}

template std::vector<ExecutionResult> TrialExecutor::run_journaled<ExecutionResult>(
    std::size_t, const std::function<ExecutionResult(std::size_t, obs::TrialObs*)>&,
    std::span<obs::TrialObs>, const recovery::TrialRecoveryOptions&, const std::string&,
    const std::function<std::uint64_t(std::size_t)>&, recovery::BatchReport*,
    const TrialProgress&) const;
template std::vector<WorkloadRunResult> TrialExecutor::run_journaled<WorkloadRunResult>(
    std::size_t, const std::function<WorkloadRunResult(std::size_t, obs::TrialObs*)>&,
    std::span<obs::TrialObs>, const recovery::TrialRecoveryOptions&, const std::string&,
    const std::function<std::uint64_t(std::size_t)>&, recovery::BatchReport*,
    const TrialProgress&) const;

std::vector<ExecutionResult> TrialExecutor::run_batch(
    std::uint64_t root_seed, std::span<const TrialSpec> specs,
    std::span<obs::TrialObs> observers, const recovery::TrialRecoveryOptions& rec,
    const std::string& batch_label, recovery::BatchReport* report,
    const TrialProgress& progress) const {
  return run_journaled<ExecutionResult>(
      specs.size(),
      [&](std::size_t i, obs::TrialObs* obs) { return run_trial(specs[i], root_seed, obs); },
      observers, rec, batch_label,
      [&](std::size_t i) { return specs[i].derived_seed(root_seed); }, report, progress);
}

}  // namespace xres
