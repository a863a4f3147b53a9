#!/usr/bin/env bash
# Tier-1 verification: configure, build and run the full test suite, then
# rebuild the library + tests under ThreadSanitizer and run the executor
# tests (the only concurrent code path, journaled loop included) plus the
# event-queue oracle under it. Also replays a small study twice (and across thread counts) and
# requires byte-identical artifacts — the determinism contract every
# engine change must uphold.
#
#   tools/tier1.sh [build-dir] [tsan-build-dir]
#
# Set XRES_PERF_GATE=1 to additionally run the engine microbenchmarks and
# diff them against bench/BENCH_engine.baseline.json (>15% regression or a
# batch-scaling collapse fails; see docs/PERFORMANCE.md for the policy and
# baseline procedure). Set XRES_SMOKE_ALL=1 to additionally byte-compare
# every registered study's artifacts across --threads 1 vs 2, and to run
# the full differential matrix of the trial engine against its queued
# reference and the surrogate (tier-1 ctest runs fast subsets; see
# tests/study_smoke_test.cpp and tests/surrogate_diff_test.cpp). Each
# stage prints its wall time.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN_BUILD="${2:-build-tsan}"

# Per-stage wall time: call `stage_done <name>` at the end of each stage so
# a slow tier-1 run says where the minutes went.
STAGE_T0=$SECONDS
stage_done() {
  echo "stage ${1}: $((SECONDS - STAGE_T0))s"
  STAGE_T0=$SECONDS
}

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"
stage_done build
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
stage_done ctest

# TSAN pass: library + tests + the xres CLI (benches/examples just re-link
# the same library code and would double the build time for no extra
# coverage; the CLI is kept so the observed-executor path below runs under
# TSAN too).
cmake -B "$TSAN_BUILD" -S . -DXRES_TSAN=ON \
  -DXRES_BUILD_BENCH=OFF -DXRES_BUILD_EXAMPLES=OFF -DXRES_BUILD_TOOLS=ON
cmake --build "$TSAN_BUILD" -j "$(nproc)"
stage_done tsan-build
ctest --test-dir "$TSAN_BUILD" --output-on-failure \
  -R "TrialExecutor|Integration|Obs|SimOracle|Surrogate|ForEachControlled|ControlledRunBatch|ShutdownTest|JournaledWorkloadStudy"
stage_done tsan-ctest

# Observability smoke under TSAN: a threaded study with per-trial metrics
# and tracing enabled exercises the observer hand-off between workers.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
"$TSAN_BUILD"/tools/xres efficiency --type A32 --trials 4 --threads 4 \
  --metrics "$OBS_TMP/m.json" --trace "$OBS_TMP/t.json" --log-level info \
  > /dev/null
test -s "$OBS_TMP/m.json" && test -s "$OBS_TMP/t.json"
stage_done tsan-obs-smoke

# Crash-safety (docs/ROBUSTNESS.md): SIGKILL a threaded, journaled study
# mid-run, resume it, and require the report and --metrics JSON to be
# byte-identical to an uninterrupted golden run. Also checks graceful
# SIGTERM: drain, flush, exit 75, then a resume that completes the study.
crash_resume_check() {
  local xres_bin="$1" tag="$2" trials="$3" kill_after="$4"
  local dir="$OBS_TMP/resume-$tag"
  mkdir -p "$dir"
  local args=(efficiency --type C64 --trials "$trials" --seed 99 --threads 4)

  "$xres_bin" "${args[@]}" --metrics "$dir/golden.json" > "$dir/golden.txt"

  # Hard kill mid-run. If the race is lost and the run finishes first, the
  # resume below degenerates to a full journal replay — still a valid check.
  "$xres_bin" "${args[@]}" --journal "$dir/j.jsonl" --metrics "$dir/void.json" \
    > /dev/null 2>&1 &
  local pid=$!
  sleep "$kill_after"
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  test -s "$dir/j.jsonl"

  "$xres_bin" "${args[@]}" --journal "$dir/j.jsonl" --resume \
    --metrics "$dir/resumed.json" > "$dir/resumed.txt"
  # Drop the recovery banner and the artifact-path line (the paths differ by
  # construction; the artifact bytes are compared with cmp below).
  local filter=(grep -v -e '^journal ' -e '^recovery: ' -e '^metrics written to ')
  "${filter[@]}" "$dir/golden.txt" > "$dir/golden-clean.txt"
  "${filter[@]}" "$dir/resumed.txt" > "$dir/resumed-clean.txt"
  cmp "$dir/golden-clean.txt" "$dir/resumed-clean.txt"
  cmp "$dir/golden.json" "$dir/resumed.json"
  "$xres_bin" journal "$dir/j.jsonl" > /dev/null

  # Graceful shutdown: SIGTERM must drain, flush and exit 75 (or win the
  # race and exit 0), and the journal must then resume cleanly.
  "$xres_bin" "${args[@]}" --journal "$dir/j2.jsonl" --metrics "$dir/void2.json" \
    > /dev/null 2>&1 &
  pid=$!
  sleep "$kill_after"
  kill -TERM "$pid" 2> /dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  if [[ "$rc" != 75 && "$rc" != 0 ]]; then
    echo "crash+resume ($tag): expected exit 75 (interrupted) or 0, got $rc" >&2
    return 1
  fi
  "$xres_bin" "${args[@]}" --journal "$dir/j2.jsonl" \
    --resume --metrics "$dir/resumed2.json" > /dev/null
  cmp "$dir/golden.json" "$dir/resumed2.json"
  echo "crash+resume ($tag): OK (SIGTERM exit $rc)"
}
crash_resume_check "$BUILD"/tools/xres normal 1500 1
crash_resume_check "$TSAN_BUILD"/tools/xres tsan 200 2
stage_done crash-resume

# Determinism golden check: the same seeded study must produce byte-for-byte
# identical report, metrics and trace on a repeat run, and the report +
# metrics must not depend on the worker-thread count. This is the replay
# contract every engine change has to preserve.
determinism_check() {
  local dir="$OBS_TMP/determinism"
  mkdir -p "$dir"
  local args=(efficiency --type A32 --trials 64 --seed 7)
  "$BUILD"/tools/xres "${args[@]}" --threads 1 \
    --metrics "$dir/m1a.json" --trace "$dir/t1a.json" > "$dir/r1a.txt"
  "$BUILD"/tools/xres "${args[@]}" --threads 1 \
    --metrics "$dir/m1b.json" --trace "$dir/t1b.json" > "$dir/r1b.txt"
  "$BUILD"/tools/xres "${args[@]}" --threads 4 \
    --metrics "$dir/m4.json" > "$dir/r4.txt"
  # The reports differ only in the artifact-path lines (the file names are
  # different by construction); the artifact bytes themselves are compared
  # with cmp below.
  local filter=(grep -v -e '^metrics written to ' -e '^trace written to ')
  "${filter[@]}" "$dir/r1a.txt" > "$dir/r1a-clean.txt"
  "${filter[@]}" "$dir/r1b.txt" > "$dir/r1b-clean.txt"
  "${filter[@]}" "$dir/r4.txt" > "$dir/r4-clean.txt"
  cmp "$dir/r1a-clean.txt" "$dir/r1b-clean.txt"
  cmp "$dir/m1a.json" "$dir/m1b.json"
  cmp "$dir/t1a.json" "$dir/t1b.json"
  cmp "$dir/r1a-clean.txt" "$dir/r4-clean.txt"
  cmp "$dir/m1a.json" "$dir/m4.json"
  echo "determinism: OK (repeat + threads 1 vs 4 byte-identical)"
}
determinism_check
stage_done determinism

# Topology stage (docs/PLATFORM.md): the fat-tree platform must honor the
# same contracts as flat — artifacts invariant to --threads, an explicit
# `--platform.model flat` byte-identical to the default, and a SIGKILLed
# fattree run resuming to the golden bytes.
topology_check() {
  local dir="$OBS_TMP/topology"
  mkdir -p "$dir"
  # checkpoint-restart is the PFS-heavy technique: the storm actually hits
  # the queued device (the default parallel-recovery never touches the PFS).
  local args=(workload --patterns 3 --seed 11 --platform.model fattree
    --technique checkpoint-restart)
  "$BUILD"/tools/xres "${args[@]}" --threads 1 > "$dir/r1.txt"
  "$BUILD"/tools/xres "${args[@]}" --threads 4 > "$dir/r4.txt"
  cmp "$dir/r1.txt" "$dir/r4.txt"

  # The flat default is the pre-topology model: spelling it out must not
  # perturb a single byte.
  "$BUILD"/tools/xres workload --patterns 2 --seed 11 > "$dir/flat-default.txt"
  "$BUILD"/tools/xres workload --patterns 2 --seed 11 --platform.model flat \
    > "$dir/flat-explicit.txt"
  cmp "$dir/flat-default.txt" "$dir/flat-explicit.txt"

  # Unknown models must be a usage error (exit 2), not a crash.
  local rc=0
  "$BUILD"/tools/xres workload --patterns 1 --platform.model hypercube \
    > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "topology: expected exit 2 for bad --platform.model, got $rc" >&2
    return 1
  fi

  # The PFS ablations sweep the PFS model themselves: a fattree override
  # must be rejected as a usage error before any pattern runs.
  local study
  for study in ablation_pfs_contention ablation_pfs_contention_topology; do
    rc=0
    "$BUILD"/tools/xres run "$study" --set patterns=1 --platform.model fattree \
      > "$dir/$study.out" 2> "$dir/$study.err" || rc=$?
    if [[ "$rc" != 2 ]] || ! grep -q 'platform.model' "$dir/$study.err" ||
      [[ -s "$dir/$study.out" ]]; then
      echo "topology: expected $study to exit 2 on fattree before running, got $rc" >&2
      return 1
    fi
  done

  # SIGKILL a journaled fattree run mid-flight; --resume must reproduce the
  # golden bytes (if the race is lost the resume is a full replay — still a
  # valid check).
  "$BUILD"/tools/xres "${args[@]}" --threads 4 --journal "$dir/j.jsonl" \
    > /dev/null 2>&1 &
  local pid=$!
  sleep 1
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  "$BUILD"/tools/xres "${args[@]}" --threads 4 --journal "$dir/j.jsonl" --resume \
    > "$dir/resumed.txt"
  local filter=(grep -v -e '^journal ' -e '^recovery: ')
  "${filter[@]}" "$dir/r4.txt" > "$dir/r4-clean.txt"
  "${filter[@]}" "$dir/resumed.txt" > "$dir/resumed-clean.txt"
  cmp "$dir/r4-clean.txt" "$dir/resumed-clean.txt"
  echo "topology: OK (fattree threads 1 vs 4 + flat default + PFS ablations reject fattree + resume byte-identical)"
}
topology_check
stage_done topology

# Suite stage (docs/STUDIES.md): `xres suite paper` must regenerate every
# figure/table artifact deterministically, validate its manifest CRCs, and
# after a SIGKILL mid-suite complete byte-identically under --resume.
suite_check() {
  local dir="$OBS_TMP/suite"
  mkdir -p "$dir"
  "$BUILD"/tools/xres suite paper --out-dir "$dir/ref" --trials 2 > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/ref"

  # Hard kill mid-suite. If the race is lost and the suite finishes first,
  # the resume below degenerates to a full journal replay — still valid.
  "$BUILD"/tools/xres suite paper --out-dir "$dir/crash" --trials 2 \
    > /dev/null 2>&1 &
  local pid=$!
  sleep 0.25
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true

  "$BUILD"/tools/xres suite paper --out-dir "$dir/crash" --trials 2 --resume \
    > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/crash"
  # Journals hold the crashed run's partial progress and perf.json holds
  # wall-clock telemetry; both differ by design. Every artifact and the
  # manifest itself must match byte for byte.
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/crash"
  echo "suite: OK (manifest CRCs valid, SIGKILL + --resume byte-identical)"
}
suite_check
stage_done suite

# Sweep stage (docs/SPECS.md): a spec-file-defined study must produce the
# same bytes as the equivalent compiled-in invocation, and `xres sweep`
# must fan a 2x2 grid deterministically — manifest CRCs valid, artifacts
# invariant across --threads, and byte-identical after SIGKILL + --resume.
sweep_check() {
  local dir="$OBS_TMP/sweep"
  mkdir -p "$dir"

  cat > "$dir/eff_spec.toml" << 'EOF'
[study]
name = "eff_spec"
base = "efficiency"

[params]
type = "A32"
trials = 3
EOF
  "$BUILD"/tools/xres run --from "$dir/eff_spec.toml" > "$dir/spec.txt"
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    > "$dir/compiled.txt"
  cmp "$dir/spec.txt" "$dir/compiled.txt"

  local axes=(--axis type=A32,C64 --axis mtbf-years=5,10 --set trials=2)
  "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 4 \
    --out-dir "$dir/ref" > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/ref"
  "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 1 \
    --out-dir "$dir/t1" > /dev/null
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/t1"

  # Hard kill mid-grid. If the race is lost and the sweep finishes first,
  # the resume below degenerates to a full journal replay — still valid.
  "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 4 \
    --out-dir "$dir/crash" > /dev/null 2>&1 &
  local pid=$!
  sleep 0.25
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true

  "$BUILD"/tools/xres sweep efficiency "${axes[@]}" --threads 4 \
    --out-dir "$dir/crash" --resume > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/crash"
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/crash"

  # A workload ablation as a sweep cell: the cell must write the metrics
  # artifact its study accepts --metrics for, and verify against its manifest.
  "$BUILD"/tools/xres sweep ablation_pfs_contention_topology --axis patterns=1 \
    --out-dir "$dir/topology" > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/topology"
  echo "sweep: OK (spec == compiled-in, 2x2 grid threads-invariant + resumable," \
    "topology ablation cell verified)"
}
sweep_check
stage_done sweep

# Ledger stage (docs/OBSERVABILITY.md): wall-clock telemetry must stay
# outside the determinism boundary — perf.json is not manifest-CRC'd, two
# identical-seed runs show zero deterministic drift in `xres compare`, and
# the run ledger stays readable after a SIGKILL mid-run leaves a torn tail.
ledger_check() {
  local dir="$OBS_TMP/ledger"
  mkdir -p "$dir"
  local ledger="$dir/ledger.jsonl"

  # perf.json is telemetry, not an artifact: it must exist next to the
  # manifest, never be listed in it, and corrupting it must not trip
  # `suite verify`.
  "$BUILD"/tools/xres sweep efficiency --axis type=A32,C64 --set trials=2 \
    --out-dir "$dir/grid" > /dev/null
  test -s "$dir/grid/perf.json"
  if grep -q 'perf\.json' "$dir/grid/manifest.json"; then
    echo "ledger: perf.json leaked into the manifest" >&2
    return 1
  fi
  echo corrupted >> "$dir/grid/perf.json"
  "$BUILD"/tools/xres suite verify --out-dir "$dir/grid"

  # Two identical-seed runs (different thread counts on purpose): compare
  # must exit 0 with zero deterministic drift.
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --threads 4 --ledger "$ledger" > /dev/null
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --threads 1 --ledger "$ledger" > /dev/null
  local a b
  a=$("$BUILD"/tools/xres log --ledger "$ledger" | awk 'NR==2 {print $1}')
  b=$("$BUILD"/tools/xres log --ledger "$ledger" | awk 'NR==3 {print $1}')
  "$BUILD"/tools/xres compare "$a" "$b" --ledger "$ledger"

  # SIGKILL mid-run: previously appended records must survive, a torn tail
  # must be skipped (not fatal), and the next run must still land readable.
  "$BUILD"/tools/xres run efficiency --set type=C64 --set trials=500 \
    --threads 4 --ledger "$ledger" > /dev/null 2>&1 &
  local pid=$!
  sleep 0.2
  kill -9 "$pid" 2> /dev/null || true
  wait "$pid" 2> /dev/null || true
  printf '{"c":"deadbeef","r":{"tr' >> "$ledger"  # simulated torn tail
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --threads 1 --ledger "$ledger" > /dev/null
  local shown
  shown=$("$BUILD"/tools/xres log --ledger "$ledger" | awk 'END {print $1}')
  if [[ "$shown" -lt 3 ]]; then
    echo "ledger: expected >=3 surviving records after SIGKILL, got $shown" >&2
    return 1
  fi
  echo "ledger: OK (perf.json outside CRCs, zero-drift compare, SIGKILL-safe)"
}
ledger_check
stage_done ledger

# Fault-injection stage (docs/ROBUSTNESS.md, "Fault injection & I/O
# policy"): the harness must survive its own failure model. A seeded
# deterministic fault plan (util/io.hpp) injects EIO / short writes /
# fsync failures into a small sweep — artifacts must come out
# byte-identical to a fault-free golden run. An ENOSPC one-shot mid-suite
# must exit 75 with the journal intact and --resume (faults off) must
# complete byte-identically. A crash-point matrix _exit()s at every Nth
# I/O op across a reduced op range and requires every resume to converge
# to the same bytes. Finally the exit-code contract (0/1/2/75/86) is
# pinned at the CLI boundary.
fault_injection_check() {
  local dir="$OBS_TMP/faults"
  mkdir -p "$dir"
  local args=(sweep efficiency --axis type=A32,C64 --set trials=2 --threads 1)

  # Golden run doubles as the op-count probe: a count-only plan (rate 0)
  # prints `io-faults: ops=N ...` at exit, which sizes the matrix below.
  "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/ref" --io-faults 7:0 \
    > /dev/null 2> "$dir/ref.err"
  "$BUILD"/tools/xres suite verify --out-dir "$dir/ref"
  local total_ops
  total_ops=$(sed -n 's/^io-faults: ops=\([0-9]*\).*/\1/p' "$dir/ref.err" | tail -1)
  if [[ -z "$total_ops" || "$total_ops" -lt 5 ]]; then
    echo "fault: count-only probe reported no plausible op count" >&2
    return 1
  fi

  # Deterministic EIO/short-write/fsync sweep: every injected fault is
  # transient, so the retry policy must absorb all of them — exit 0 and
  # byte-identical artifacts.
  "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/eio" \
    --io-faults 7:0.05:eio,short,fsync > /dev/null 2> "$dir/eio.err"
  "$BUILD"/tools/xres suite verify --out-dir "$dir/eio"
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/eio"
  if ! grep -q '^io-fault: ' "$dir/eio.err"; then
    echo "fault: the 5% EIO sweep injected nothing — dead injection path?" >&2
    return 1
  fi

  # The same sweep under TSAN with worker threads: concurrent wrapped ops
  # and retries must be race-free and still land thread-invariant bytes.
  "$TSAN_BUILD"/tools/xres "${args[@]}" --out-dir "$dir/tsan-ref" > /dev/null
  "$TSAN_BUILD"/tools/xres sweep efficiency --axis type=A32,C64 --set trials=2 \
    --threads 4 --out-dir "$dir/tsan-eio" --io-faults 7:0.05:eio,short,fsync \
    > /dev/null 2>&1
  "$TSAN_BUILD"/tools/xres suite verify --out-dir "$dir/tsan-eio"
  diff -r --exclude=journals --exclude=perf.json "$dir/tsan-ref" "$dir/tsan-eio"

  # ENOSPC mid-suite: full disks are not retried — the run must stop with
  # the clean resumable exit 75, journal intact, and a faults-off --resume
  # must finish byte-identically.
  local mid=$((total_ops / 2)) rc=0
  "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/enospc" \
    --io-faults "7:0:enospc@$mid" > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 75 ]]; then
    echo "fault: ENOSPC at op $mid: expected exit 75 (resumable), got $rc" >&2
    return 1
  fi
  "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/enospc" --resume > /dev/null
  "$BUILD"/tools/xres suite verify --out-dir "$dir/enospc"
  diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/enospc"

  # Crash-point matrix on a reduced op range (~12 points spread over the
  # whole run): _exit at op N simulates power loss mid-primitive; every
  # resume must converge to the golden bytes.
  local stride=$(((total_ops + 11) / 12)) n
  for ((n = 1; n <= total_ops; n += stride)); do
    rm -rf "$dir/crash"
    rc=0
    "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/crash" \
      --io-faults "7:0:crash@$n" > /dev/null 2>&1 || rc=$?
    if [[ "$rc" != 86 ]]; then
      echo "fault: crash@$n: expected injected-crash exit 86, got $rc" >&2
      return 1
    fi
    "$BUILD"/tools/xres "${args[@]}" --out-dir "$dir/crash" --resume > /dev/null
    "$BUILD"/tools/xres suite verify --out-dir "$dir/crash"
    diff -r --exclude=journals --exclude=perf.json "$dir/ref" "$dir/crash"
  done

  # Best-effort artifacts degrade, never fail the run: a ledger pointed at
  # an unwritable path must warn once and leave the exit code and artifact
  # bytes alone.
  echo blocker > "$dir/not-a-dir"
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --ledger "$dir/not-a-dir/ledger.jsonl" > "$dir/degraded.txt" 2> "$dir/degraded.err"
  grep -q 'run ledger degraded' "$dir/degraded.err"
  "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=3 \
    --ledger "$dir/ok-ledger.jsonl" > "$dir/plain.txt"
  # Only the ledger success banner may differ; study output must not.
  grep -v '^run recorded in ledger ' "$dir/plain.txt" > "$dir/plain-clean.txt"
  cmp "$dir/degraded.txt" "$dir/plain-clean.txt"

  # Exit-code contract (docs/ROBUSTNESS.md): 0 ok, 1 failure, 2 usage,
  # 75 resumable, 86 injected crash — pinned at the CLI boundary.
  check_rc() {
    local want="$1" rc=0
    shift
    "$@" > /dev/null 2>&1 || rc=$?
    if [[ "$rc" != "$want" ]]; then
      echo "fault: expected exit $want from '$*', got $rc" >&2
      return 1
    fi
  }
  echo "wholly corrupt, not a journal" > "$dir/corrupt.jsonl"
  check_rc 0 "$BUILD"/tools/xres run efficiency --set type=A32 --set trials=2
  check_rc 1 "$BUILD"/tools/xres run no-such-study
  check_rc 2 "$BUILD"/tools/xres run efficiency --no-such-flag
  check_rc 2 "$BUILD"/tools/xres run efficiency --io-faults bogus-spec
  check_rc 2 "$BUILD"/tools/xres journal /nonexistent/journal.jsonl
  check_rc 2 "$BUILD"/tools/xres journal "$dir/corrupt.jsonl"
  check_rc 2 "$BUILD"/tools/xres show some-run --ledger /nonexistent/ledger.jsonl
  check_rc 2 "$BUILD"/tools/xres compare a b --ledger "$dir/corrupt.jsonl"
  echo "fault injection: OK (EIO sweep byte-identical, ENOSPC exit 75 +" \
    "resume, crash matrix x$(((total_ops + stride - 1) / stride)) converged," \
    "exit codes pinned)"
}
fault_injection_check
stage_done fault-injection

# Surrogate stage (docs/STUDIES.md): the analytic surrogate must be wired
# end to end at the CLI boundary — `--surrogate analytic|auto` runs, prints
# the per-cell provenance table with its error bounds, and rejects unknown
# modes as a usage error. The numerical contract (anchors bit-identical to
# the simulator, interior cells within the reported bound) is enforced by
# surrogate_diff_test.cpp: a fast subset in the tier-1 ctest pass above,
# the full differential matrix under XRES_SMOKE_ALL=1 below.
surrogate_check() {
  local dir="$OBS_TMP/surrogate"
  mkdir -p "$dir"
  local args=(run efficiency --set type=A32 --set trials=6 --seed 11 --threads 2)
  "$BUILD"/tools/xres "${args[@]}" --set surrogate=analytic > "$dir/analytic.txt"
  grep -q 'Surrogate provenance' "$dir/analytic.txt"
  "$BUILD"/tools/xres "${args[@]}" --set surrogate=auto > "$dir/auto.txt"
  grep -q 'Surrogate provenance' "$dir/auto.txt"
  local rc=0
  "$BUILD"/tools/xres "${args[@]}" --set surrogate=bogus > /dev/null 2>&1 || rc=$?
  if [[ "$rc" != 2 ]]; then
    echo "surrogate: expected usage exit 2 for surrogate=bogus, got $rc" >&2
    return 1
  fi
  echo "surrogate: OK (analytic + auto provenance printed, bad mode exit 2)"
}
surrogate_check
stage_done surrogate

# Opt-in full-catalog smoke: every registered study at tiny trial counts,
# --threads 1 vs 2, artifacts byte-compared, plus the full differential
# matrix (trial engine vs queued reference, surrogate) and the 200-config
# property test (tier-1 ctest covers fast subsets of all three
# unconditionally).
if [[ "${XRES_SMOKE_ALL:-0}" == "1" ]]; then
  XRES_SMOKE_ALL=1 "$BUILD"/tests/xres_tests \
    --gtest_filter='StudySmoke.FullCatalog*:SurrogateDiff.*:SurrogateProperty.*'
  stage_done smoke-all
fi

# Opt-in perf gate: compare engine microbenchmarks against the committed
# baseline. Off by default — shared/loaded runners are too noisy to block
# every run on wall-clock numbers.
if [[ "${XRES_PERF_GATE:-0}" == "1" ]]; then
  cmake --build "$BUILD" -j "$(nproc)" --target perf_engine
  "$BUILD"/bench/perf_engine --benchmark_min_time=0.2 --benchmark_repetitions=5 \
    --benchmark_filter='BM_EventQueue|BM_Simulation|BM_SingleAppTrialFailureHeavy|BM_TrialBatchFailureHeavy|BM_TrialExecutorBatch|BM_WorkloadFattreeStorm' \
    --out "$OBS_TMP/BENCH_engine.json"
  python3 tools/perf_gate.py "$OBS_TMP/BENCH_engine.json" \
    --baseline bench/BENCH_engine.baseline.json
fi

echo "tier-1 OK"
