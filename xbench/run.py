#!/usr/bin/env python3
"""Run one xres benchmark workload and print its result as one JSON line.

    python3 xbench/run.py --workload multiapp --seed 7 --seconds 10 --trace 0
    python3 xbench/run.py --workload all            # every workload, a table
    python3 xbench/run.py --record-reference 0-40   # re-record reference.json

Run from the repository root. The first run configures and builds the
benchmark package (xbench/CMakeLists.txt, which builds the xres library
from this checkout) under $CARGO_TARGET_DIR/xbench, default
.bench_build/xbench. Each workload then runs in a fresh directory under
.bench_work/ that is removed afterwards, with XRES_TRIAL_ENGINE,
XRES_IO_FAULTS and XRES_LOG cleared. The traced run (--trace 1) writes its
spans to .bench_out/spans-<workload>.json (Chrome trace format).

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. README.md in this directory documents them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ["multiapp", "singleapp", "harness", "pfs_contended"]
UNIT_TIMEOUT_S = 170
CLEARED_ENV = ("XRES_TRIAL_ENGINE", "XRES_IO_FAULTS", "XRES_LOG")


def fail(message, code=1):
    print(f"xbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} is missing", 2)
    return json.loads(path.read_text())


def build():
    """Configure (once) and build the benchmark; return the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no xres source tree to build", 2)
    target_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_root.is_absolute():
        target_root = ROOT / target_root
    build_dir = target_root / "xbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 4)))
    log = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "xres_bench", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed (log: " + str(log) + ")")
    return build_dir / "xres_bench"


def run_binary(binary, workload, args):
    """Run the benchmark binary in a fresh work directory; return its JSON."""
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    # The run ledger asks `git describe` for the build; keep git's search for
    # a repository inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    try:
        with open(work / "stderr.txt", "w+") as err:
            try:
                proc = subprocess.run([str(binary), "--workload", workload, *args], cwd=work,
                                      env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                                      timeout=UNIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"{workload}: no result within {UNIT_TIMEOUT_S} s")
            err.seek(0)
            log = err.read()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(log[-4000:])
            fail(f"{workload}: benchmark exited with {proc.returncode}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def reference_checks(result, scale):
    """CRC mismatches against reference.json (the paper seed is required)."""
    table = json.loads(REFERENCE.read_text()).get(scale, {}).get(result["workload"], {})
    wrong = []
    paper = table.get(str(result["paper_seed"]))
    if paper != result["crc_paper"]:
        wrong.append(f"paper-seed CRC {result['crc_paper']} != reference {paper}")
    want = table.get(str(result["seed"]))
    if want is not None and result["crc_seed"] and want != result["crc_seed"]:
        wrong.append(f"seed {result['seed']} CRC {result['crc_seed']} != reference {want}")
    return wrong


def measure(binary, spec, workload, seed, seconds, trace, small):
    args = ["--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        args += ["--seed", str(seed)]
    if small:
        args.append("--small")
    if trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        args += ["--spans", str(out / f"spans-{workload}.json")]
    result = run_binary(binary, workload, args)
    values = result["metrics"]
    notes = result["notes"] + reference_checks(result, "small" if small else "full")
    wrong = result["wrong_outputs"] + len(notes) - len(result["notes"])
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        # A per-layer metric that does not apply to the workload reads 0.
        values = {name: values.get(name, 0.0) for name in wanted} | values
    missing = [name for name in wanted if name not in values]
    if missing:
        fail(f"{workload}: metrics missing from the result: {missing}")
    return {
        "workload": workload,
        "seed": result["seed"],
        "wrong_outputs": wrong,
        "failed_frac": result["failed"] / max(1, result["attempted"]),
        "notes": notes,
        "values": values,
        "units": wanted,
        "line": {
            "correct": wrong == 0 and result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in wanted.items()},
        },
    }


def summary_lines(r):
    yield f"workload {r['workload']} (seed {r['seed']})"
    for name, value in r["values"].items():
        yield f"  {name:40s} {value:.6g} {r['units'].get(name, '')}"
    yield f"  {'wrong_outputs':40s} {r['wrong_outputs']} count"
    yield f"  {'failed_frac':40s} {r['failed_frac']:.6g} frac"
    for note in r["notes"]:
        yield f"  check failed: {note}"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def record_reference(binary, seeds):
    """Write reference.json: the CRC of each workload's results per seed
    (both sizes, plus every workload's paper seed)."""
    table = {}
    for scale in ("full", "small"):
        table[scale] = {}
        for workload in WORKLOADS:
            crcs = {}
            scale_args = ["--small"] if scale == "small" else []
            paper = run_binary(binary, workload, ["--crc-only", *scale_args])
            crcs[str(paper["seed"])] = paper["crc_seed"]
            for seed in seeds if scale == "full" else []:
                r = run_binary(binary, workload, ["--crc-only", "--seed", str(seed)])
                crcs[str(seed)] = r["crc_seed"]
            table[scale][workload] = crcs
            print(f"{scale} {workload}: {len(crcs)} seeds", file=sys.stderr)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, help="default: the study's paper seed")
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    parser.add_argument("--record-reference", metavar="SEEDS",
                        help="re-record reference.json for seeds like 0-40")
    args = parser.parse_args()
    spec = load_spec()
    binary = build()
    if args.record_reference:
        record_reference(binary, parse_seeds(args.record_reference))
        return
    if not args.workload:
        fail("--workload is required", 2)
    seconds = args.seconds or spec["run_seconds"]
    if args.workload != "all":
        r = measure(binary, spec, args.workload, args.seed, seconds, args.trace, args.small)
        print("\n".join(summary_lines(r)), file=sys.stderr)
        print(json.dumps(r["line"]))
        return
    results = [measure(binary, spec, w, args.seed, seconds, args.trace, args.small)
               for w in WORKLOADS]
    for r in results:
        print("\n".join(summary_lines(r)))
    print(json.dumps({r["workload"]: r["line"] for r in results}))


if __name__ == "__main__":
    main()
