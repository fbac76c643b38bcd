#!/usr/bin/env python3
"""Build litmus_bench, run its workloads, check them, compare runs.

Run from the repository root:

    python3 litmus_bench/run.py
        every workload, each in a fresh process with tracing on; prints
        every metric by name and unit, writes bench-out/litmus_bench.json
        and a Chrome trace (bench-out/litmus_bench.trace.json)
    python3 litmus_bench/run.py --workload fleet_dense --seed 3 --trace 0
        one workload; the last stdout line is
        {"correct", "attempted", "failed", "metrics"} with the
        end-to-end metrics BENCHMARK.json names (--trace 0) or its
        per-layer metrics (--trace 1)
    python3 litmus_bench/run.py --compare litmus_bench/baselines/litmus_bench.json
        a full run, then a per-metric verdict against the baseline
    python3 litmus_bench/run.py --compare A.json --current B.json
        compare two saved full runs without running anything

The benchmark is built from source into $CARGO_TARGET_DIR (default
.bench_build). At the default seed each workload's output digest must
equal the one recorded in litmus_bench/digests.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
WORKLOADS = ["pricing_heavy", "fleet_dense", "fleet_sparse", "azure_2h"]
CHILD_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"litmus_bench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}", 2)


def build():
    """Configure and build the benchmark; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources not found under src/; run from a full "
             "checkout of the repository", 2)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "--target",
                 "litmus_bench", "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir / "litmus_bench"


def digest_problem(result, digests):
    """Why the result's digest is unacceptable, or None."""
    if result["seed"] != DEFAULT_SEED:
        return None
    expected = digests.get(result["scale"], {}).get(result["workload"])
    if expected is None:
        return "no digest recorded for this workload and scale"
    if expected != result["digest"]:
        return f"digest {result['digest']} != recorded {expected}"
    return None


def run_workload(binary, name, args, trace, work_dir, digests):
    """Run one workload in a fresh process; returns its checked result."""
    cmd = [str(binary), f"--workload={name}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--reps={args.reps}",
           f"--scale={args.scale}", f"--trace={trace}",
           f"--work-dir={work_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{name}: litmus_bench exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["digest_problem"] = digest_problem(result, digests)
    result["correct"] = (not result["violations"] and result["failed"] == 0
                         and result["digest_problem"] is None)
    if result["digest_problem"]:
        print(f"  check failed: {result['digest_problem']}")
    return result


def metric_value(result, spec, trace):
    """The one-line result's value of a BENCHMARK.json metric."""
    name = spec["name"]
    if trace:
        metric = result["per_layer"].get(name)
        value = metric and metric["value"]
    else:
        metric = result["end_to_end"].get(name)
        value = metric and metric["median"]
    if metric is None or value is None:
        fail(f"{result['workload']}: no value for metric {name}")
    if metric["unit"] != spec["unit"]:
        fail(f"{name}: unit {metric['unit']} != {spec['unit']} in "
             "BENCHMARK.json")
    return {"value": value, "unit": spec["unit"]}


def rel_iqr(summary):
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def print_results(results, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, result in results.items():
        print(f"\n== {name} (seed {result['seed']}, {result['scale']}, "
              f"{len(result['reps'])} reps, "
              f"{'correct' if result['correct'] else 'INCORRECT'})")
        for metric, s in result["end_to_end"].items():
            print(f"  {metric:<36} {fmt(s['median']):>12} {s['unit']:<6} "
                  f"q1 {fmt(s['q1'])}  q3 {fmt(s['q3'])}  min "
                  f"{fmt(s['min'])}  max {fmt(s['max'])}  n {s['n']}  "
                  f"bound {bounds.get(metric, '-')}")
        for metric, m in result["per_layer"].items():
            print(f"  {metric:<36} {fmt(m['value']):>12} {m['unit']}")
        print(f"  {'digest':<36} {result['digest']:>12}")


def chrome_trace(results):
    """Spans as Chrome trace-event JSON, one process id per workload."""
    events = []
    for pid, (name, result) in enumerate(results.items(), start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})
        for span in result["spans"]:
            events.append({"name": span["name"],
                           "cat": span["name"].split(".")[0], "ph": "X",
                           "ts": span["start_s"] * 1e6,
                           "dur": span["dur_s"] * 1e6, "pid": pid,
                           "tid": 0, "args": {"workload": name}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def verdict(base, cur, better, bound):
    """better / same / worse, or unresolved when either side's spread
    (interquartile range over median) exceeds the bound."""
    if max(rel_iqr(base), rel_iqr(cur)) > bound:
        return "unresolved"
    change = (cur["median"] - base["median"]) / abs(base["median"])
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base, cur, spec):
    """Print a per-(metric, workload) comparison; returns the number of
    worse verdicts."""
    worse = 0
    print(f"\ncompare: base {base['commit'][:12]} ({base['compiler']}, "
          f"nproc {base['nproc']}) vs current {cur['commit'][:12]} "
          f"({cur['compiler']}, nproc {cur['nproc']})")
    for name in WORKLOADS:
        b, c = base["workloads"].get(name), cur["workloads"].get(name)
        if b is None or c is None:
            print(f"\n== {name}: missing from "
                  f"{'base' if b is None else 'current'}")
            continue
        print(f"\n== {name}")
        for m in spec["end_to_end"]:
            bs, cs = b["end_to_end"][m["name"]], c["end_to_end"][m["name"]]
            v = verdict(bs, cs, m["better"], m["bound"])
            worse += v == "worse"
            print(f"  {m['name']:<34} base {fmt(bs['median'])} "
                  f"[{fmt(bs['q1'])}, {fmt(bs['q3'])}]  current "
                  f"{fmt(cs['median'])} [{fmt(cs['q1'])}, {fmt(cs['q3'])}]"
                  f"  bound {m['bound']}  {v}")
        for m in spec["per_layer"]:
            bv = b["per_layer"].get(m["name"], {}).get("value")
            cv = c["per_layer"].get(m["name"], {}).get("value")
            change = (f"{100 * (cv - bv) / abs(bv):+.1f}%"
                      if bv and cv is not None else "")
            print(f"  {m['name']:<34} base {fmt(bv)}  current {fmt(cv)} "
                  f"{m['unit']}  {change}")
        same_counts = b["counts"] == c["counts"]
        print(f"  {'exact layer counts':<34} "
              f"{'identical' if same_counts else 'DIFFER'}")
        for key in ("digest", "price_gap_pp"):
            print(f"  {key:<34} "
                  f"{'identical' if b[key] == c[key] else 'DIFFER'}")
    print(f"\n{worse} worse verdict(s)")
    return worse


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and print the one-line result")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="minimum seconds of timed reps per workload "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--reps", type=int, default=3,
                   help="minimum timed reps per workload")
    p.add_argument("--scale", choices=["full", "smoke"], default="full")
    p.add_argument("--trace", type=int, choices=[0, 1],
                   help="1: traced rep and layer probes (default: 1 for "
                        "a full run, 0 with --workload)")
    p.add_argument("--out", default="bench-out/litmus_bench.json",
                   help="full-run results (ignored with --workload)")
    p.add_argument("--trace-out",
                   help="Chrome trace of the spans (default: next to "
                        "--out)")
    p.add_argument("--compare", metavar="BASE",
                   help="compare a full run against saved results")
    p.add_argument("--current", metavar="RUN",
                   help="with --compare: saved results to compare "
                        "instead of running")
    p.add_argument("--bin", help="prebuilt litmus_bench binary (skips "
                                 "the build)")
    return p.parse_args()


def main():
    args = parse_args()
    spec = load_json(ROOT / "BENCHMARK.json")
    if args.current:
        if not args.compare:
            fail("--current needs --compare", 2)
        sys.exit(1 if compare(load_json(args.compare),
                              load_json(args.current), spec) else 0)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    digests = load_json(HERE / "digests.json")
    binary = Path(args.bin) if args.bin else build()
    out = Path(args.out)
    work_dir = out.parent / "litmus_bench.work"

    try:
        if args.workload:
            trace = args.trace or 0
            result = run_workload(binary, args.workload, args, trace,
                                  work_dir, digests)
            metrics = {m["name"]: metric_value(result, m, trace)
                       for m in spec["per_layer" if trace else
                                     "end_to_end"]}
            print(json.dumps({"correct": result["correct"],
                              "attempted": result["attempted"],
                              "failed": result["failed"],
                              "metrics": metrics}), flush=True)
            sys.exit(0 if result["correct"] else 1)

        trace = 1 if args.trace is None else args.trace
        results = {name: run_workload(binary, name, args, trace, work_dir,
                                      digests)
                   for name in WORKLOADS}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print_results(results, spec)
    first = next(iter(results.values()))
    artifact = {"benchmark": "litmus_bench", "commit": git_commit(),
                "compiler": first["compiler"], "nproc": first["nproc"],
                "seed": args.seed, "scale": args.scale,
                "seconds": args.seconds, "reps": args.reps,
                "workloads": results}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(artifact, indent=1) + "\n")
    trace_out = Path(args.trace_out or out.with_suffix(".trace.json"))
    trace_out.write_text(json.dumps(chrome_trace(results)) + "\n")
    print(f"\nresults written to {out}, trace to {trace_out}")

    correct = all(r["correct"] for r in results.values())
    worse = compare(load_json(args.compare), artifact, spec) \
        if args.compare else 0
    sys.exit(0 if correct and not worse else 1)


if __name__ == "__main__":
    main()
