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

/// Attempt number of the unit currently executing on this thread; set by
/// for_each_controlled's retry loop so run_journaled's body can record how
/// many tries an outcome took without widening the body signature.
thread_local unsigned t_current_attempt = 1;

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

namespace {

/// Seeds for a whole batch, derived once up front: derived_seed allocates a
/// key vector per call, which the batched loops should not repay per trial
/// (the journal path reads each seed up to three times).
std::vector<std::uint64_t> derive_batch_seeds(std::uint64_t root,
                                              std::span<const TrialSpec> specs) {
  std::vector<std::uint64_t> seeds(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    seeds[i] = specs[i].derived_seed(root);
  }
  return seeds;
}

ExecutionResult run_trial_work(const TrialWork& work, std::uint64_t seed,
                               obs::TrialObs* obs) {
  return std::visit([seed, obs](const auto& w) { return run_trial(w, seed, obs); },
                    work);
}

}  // namespace

TrialExecutor::TrialExecutor(unsigned threads) : threads_{threads} {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

void TrialExecutor::for_each(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             const TrialProgress& progress) const {
  TrialLoopControl control;
  control.progress = progress;
  // Plain loops ignore shutdown signals: their callers reduce the full
  // result vector unconditionally, so draining early would hand them
  // default-constructed slots.
  control.drain_on_shutdown = false;
  for_each_controlled(count, body, control, nullptr);
}

void TrialExecutor::for_each_controlled(std::size_t count,
                                        const std::function<void(std::size_t)>& body,
                                        const TrialLoopControl& control,
                                        recovery::BatchReport* report) const {
  if (count == 0) return;
  XRES_CHECK(static_cast<bool>(body), "for_each_controlled needs a body");

  const unsigned attempts = std::max(1U, control.trial_attempts);
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> resumed{0};
  std::atomic<std::size_t> retried{0};
  std::atomic<std::size_t> quarantined{0};
  std::atomic<bool> interrupted{false};
  std::mutex quarantine_mutex;

  // One unit through the whole envelope: resume skip, then up to `attempts`
  // tries under the watchdog deadline, then quarantine (or, unhooked, the
  // historical propagate-and-fail-the-batch path). Only std::exception is
  // retryable; anything else is a bug and escapes immediately.
  auto run_unit = [&](std::size_t i) {
    if (control.already_done && control.already_done(i)) {
      resumed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (unsigned attempt = 1;; ++attempt) {
      try {
        const ScopedDeadline deadline{control.trial_timeout_seconds};
        t_current_attempt = attempt;
        body(i);
        executed.fetch_add(1, std::memory_order_relaxed);
        return;
      } catch (const std::exception& e) {
        if (attempt < attempts) {
          retried.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!control.quarantine) throw;
        {
          const std::lock_guard<std::mutex> lock{quarantine_mutex};
          control.quarantine(i, e.what());
        }
        quarantined.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::exception_ptr error;
  const std::size_t workers = std::min<std::size_t>(threads_, count);
  if (workers <= 1) {
    std::size_t done = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (control.drain_on_shutdown && recovery::shutdown_requested()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      try {
        run_unit(i);
      } catch (...) {
        error = std::current_exception();
        break;
      }
      if (control.progress) control.progress(++done, count);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::size_t done = 0;
    std::mutex progress_mutex;

    auto worker = [&] {
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) return;
        if (control.drain_on_shutdown && recovery::shutdown_requested()) {
          interrupted.store(true, std::memory_order_relaxed);
          return;
        }
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          run_unit(i);
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock{error_mutex};
            if (!error) error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (control.progress) {
          const std::lock_guard<std::mutex> lock{progress_mutex};
          control.progress(++done, count);
        }
      }
    };

    WorkerPool::instance().run(workers, worker);
  }

  if (report != nullptr) {
    report->executed += executed.load(std::memory_order_relaxed);
    report->resumed += resumed.load(std::memory_order_relaxed);
    report->retried += retried.load(std::memory_order_relaxed);
    report->quarantined += quarantined.load(std::memory_order_relaxed);
    report->interrupted =
        report->interrupted || interrupted.load(std::memory_order_relaxed);
  }
  // One flush per batch into the process-global telemetry (obs/perf.hpp):
  // the per-unit accounting above already paid for these atomics.
  obs::perf_add_trials(executed.load(std::memory_order_relaxed),
                       resumed.load(std::memory_order_relaxed),
                       retried.load(std::memory_order_relaxed),
                       quarantined.load(std::memory_order_relaxed));
  if (error) std::rethrow_exception(error);
}

std::vector<ExecutionResult> TrialExecutor::run_batch(
    std::uint64_t root_seed, std::span<const TrialSpec> specs,
    const TrialProgress& progress) const {
  const std::vector<std::uint64_t> seeds = derive_batch_seeds(root_seed, specs);
  std::vector<ExecutionResult> results(specs.size());
  for_each(
      specs.size(),
      [&](std::size_t i) { results[i] = run_trial_work(specs[i].work, seeds[i], nullptr); },
      progress);
  return results;
}

std::vector<ExecutionResult> TrialExecutor::run_batch(
    std::uint64_t root_seed, std::span<const TrialSpec> specs,
    std::span<obs::TrialObs> observers, const TrialProgress& progress) const {
  XRES_CHECK(observers.size() == specs.size(),
             "one observer per spec (enable channels before the batch)");
  const std::vector<std::uint64_t> seeds = derive_batch_seeds(root_seed, specs);
  std::vector<ExecutionResult> results(specs.size());
  for_each(
      specs.size(),
      [&](std::size_t i) {
        results[i] = run_trial_work(specs[i].work, seeds[i], &observers[i]);
      },
      progress);
  return results;
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
  std::atomic<std::size_t> stale{0};

  TrialLoopControl control;
  control.progress = progress;
  control.trial_timeout_seconds = rec.trial_timeout_seconds;
  control.trial_attempts = rec.trial_attempts;

  if (rec.resume != nullptr) {
    control.already_done = [&](std::size_t i) {
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
  }

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

  auto body = [&](std::size_t i) {
    obs::TrialObs* obs = nullptr;
    if (observed) {
      reset_observer(i);
      obs = &observers[i];
    }
    const auto start = std::chrono::steady_clock::now();
    results[i] = run(i, obs);
    if (rec.journal != nullptr) {
      recovery::Outcome<Result> outcome;
      outcome.result = results[i];
      if (obs != nullptr && obs->metrics() != nullptr) outcome.metrics = *obs->metrics();
      outcome.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      outcome.attempts = t_current_attempt;
      journal_outcome(i, outcome);
    }
  };

  if (rec.quarantine_enabled()) {
    control.quarantine = [&](std::size_t i, const std::string& reason) {
      // Present but worthless (an infeasible plan's zero efficiency, a
      // zero-job pattern run), so the study's reductions stay well-defined.
      results[i] = Result{};
      reset_observer(i);
      if (rec.journal != nullptr) {
        recovery::Outcome<Result> outcome;
        outcome.quarantined = true;
        outcome.quarantine_reason = reason;
        outcome.attempts = std::max(1U, rec.trial_attempts);
        if (observed && observers[i].metrics() != nullptr) {
          outcome.metrics.emplace();  // clean zero set, matching the reset
        }
        journal_outcome(i, outcome);
      }
    };
  }

  for_each_controlled(count, body, control, report);
  if (report != nullptr) {
    report->stale_records += stale.load(std::memory_order_relaxed);
  }
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
  const std::vector<std::uint64_t> seeds = derive_batch_seeds(root_seed, specs);
  return run_journaled<ExecutionResult>(
      specs.size(),
      [&](std::size_t i, obs::TrialObs* obs) {
        return run_trial_work(specs[i].work, seeds[i], obs);
      },
      observers, rec, batch_label, [&](std::size_t i) { return seeds[i]; }, report,
      progress);
}

}  // namespace xres
