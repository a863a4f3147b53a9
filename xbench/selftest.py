#!/usr/bin/env python3
"""Small-size self-test of the xres benchmark (about a minute).

    python3 xbench/selftest.py

Checks BENCHMARK.json against the benchmark's contract, then runs every
workload at the self-test sizes (--small) through run.py: the result line's
shape and metric names, correctness, exact repetition of the traced run's
counts, `sim.events_popped` = 0 on singleapp, every per-layer metric nonzero
on some workload (run.py reads a value the binary does not report as 0, so
this catches a misspelt name), and that the benchmark refuses
to run (nonzero exit, no result) in a directory holding only BENCHMARK.json
and xbench/. Exits 1 on the first failure.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, what):
    if not ok:
        print(f"selftest: FAIL: {what}")
        sys.exit(1)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    check(lines, "no output")
    return json.loads(lines[-1])


def run(workload, trace):
    proc = subprocess.run([sys.executable, "xbench/run.py", "--workload", workload, "--small",
                           "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    check(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}:\n"
          + proc.stderr[-3000:])
    return result_line(proc.stdout)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "duplicate names")
    check(all(NAME.match(n) for n in names), "malformed name")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']}")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in spec["end_to_end"] + spec["per_layer"]), "unit or direction")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s")


def check_bare_copy():
    """The benchmark alone cannot build the program: nonzero exit, no result."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "xbench")
        proc = subprocess.run([sys.executable, "xbench/run.py", "--workload", "multiapp",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0, "a bare copy of the benchmark exited 0")
        check("correct" not in proc.stdout, "a bare copy printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    # Counts (and the rework minimum) are deterministic; timings are not.
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] == "count" or m["name"].startswith("runtime.")]
    nonzero = set()
    for w in [w["name"] for w in spec["workloads"]]:
        r = run(w, 0)
        check(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{w}: result keys")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, f"{w}: {r}")
        check(list(r["metrics"]) == end_to_end, f"{w}: end-to-end metric names")
        check(all(m["value"] > 0 for m in r["metrics"].values()), f"{w}: a zero metric")
        first, second = run(w, 1), run(w, 1)
        for t in (first, second):
            check(t["correct"] and list(t["metrics"]) == per_layer, f"{w}: traced result")
        for name in exact:
            check(first["metrics"][name] == second["metrics"][name],
                  f"{w}: {name} differs between two traced runs")
        popped = first["metrics"]["sim.events_popped"]["value"]
        check((popped == 0) == (w == "singleapp"), f"{w}: sim.events_popped = {popped}")
        nonzero |= {name for name, m in first["metrics"].items() if m["value"] != 0}
        spans = json.loads((ROOT / ".bench_out" / f"spans-{w}.json").read_text())
        check(spans["traceEvents"], f"{w}: empty span file")
        print(f"selftest: {w} ok")
    check(set(per_layer) <= nonzero, f"per-layer metrics 0 on every workload: "
          f"{sorted(set(per_layer) - nonzero)}")
    check_bare_copy()
    print("selftest: bare copy refused ok\nselftest: PASS")


if __name__ == "__main__":
    main()
