#!/usr/bin/env python3
"""Builds and runs the pierstack end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --check-determinism [--seconds <s>]

Run from the root of a checkout. The first call configures and builds the
`pierbench` binary (e2ebench/CMakeLists.txt, which compiles the program
from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
build output goes to stderr. The binary runs one workload on one thread
and checks every answer against the workload's reference.

With --trace 0 the last stdout line is the JSON result with every
end-to-end metric named in BENCHMARK.json; with --trace 1 it carries every
per-layer metric instead, taken from a traced rerun of the same seed whose
fingerprint must equal the untraced one. A wrong answer, a fingerprint
mismatch or a failed build exits non-zero without a result line.

--check-determinism runs each workload twice untraced and once traced on
the default seed, and once on the held-out seed (both recorded in
e2ebench/metrics.json). It fails unless the fingerprint and the
simulated-time metrics repeat on the same seed (the traced pass checks its
own fingerprint against an untraced one) and the fingerprint changes with
the seed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "pierbench"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds pierbench; returns its path or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", BINARY, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return None
    path = os.path.join(out, BINARY)
    return path if os.path.exists(path) else None


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, spans=None):
    """Runs one pass; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    return proc.returncode, proc.stdout.splitlines()


def select_metrics(result, specs):
    """Keeps the metrics `specs` names; fails on a missing one or a unit clash."""
    chosen = {}
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        if got is None:
            raise ValueError(f"metric {spec['name']} missing from the run")
        if got["unit"] != spec["unit"]:
            raise ValueError(f"metric {spec['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        chosen[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return chosen


def fingerprint_of(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return line.split()[1]
    return None


def check_determinism(binary, seconds):
    doc = load_json(os.path.join(HERE, "metrics.json"))
    seeds = doc["seeds"]
    sim_names = [name for name, m in doc["end_to_end"].items()
                 if m["time_base"] == "simulated"]
    plan = (("first", seeds["default"], 0), ("repeat", seeds["default"], 0),
            ("traced", seeds["default"], 1), ("held_out", seeds["held_out"], 0))
    ok = True
    for workload in doc["workloads"]:
        runs = {}
        for label, seed, trace in plan:
            code, lines = run_binary(binary, workload, seed, seconds, trace)
            if code != 0 or not lines:
                log(f"{workload} {label}: exit {code}")
                return 1
            runs[label] = (fingerprint_of(lines), json.loads(lines[-1]))
        fp = {label: run[0] for label, run in runs.items()}
        repeats = fp["first"] == fp["repeat"] == fp["traced"]
        differs = fp["held_out"] != fp["first"]
        print(f"{workload}: seed {seeds['default']} -> {fp['first']} "
              f"(repeat {fp['repeat']}, traced rerun agreed), "
              f"seed {seeds['held_out']} -> {fp['held_out']}")
        for name in sim_names:
            a = runs["first"][1]["metrics"][name]["value"]
            b = runs["repeat"][1]["metrics"][name]["value"]
            if a != b:
                print(f"  {name}: {a} != {b} on a repeat of the same seed")
                ok = False
        if not repeats:
            print("  fingerprint did not repeat on the same seed")
        if not differs:
            print("  fingerprint did not change with the seed")
        ok = ok and repeats and differs
    print("determinism check:", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    binary = build()
    if binary is None:
        return 1
    if args.check_determinism:
        return check_determinism(binary, seconds)

    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {', '.join(names)}")
        return 2
    seed = args.seed
    if seed is None:
        seed = load_json(os.path.join(HERE, "metrics.json"))["seeds"]["default"]
    spans = None
    if args.trace:
        spans = os.path.join(build_dir(), f"spans-{args.workload}.tsv")
    code, lines = run_binary(binary, args.workload, seed, seconds, args.trace,
                             spans)
    if code != 0 or not lines:
        log(f"pierbench exited {code}")
        return code or 1
    result = json.loads(lines[-1])
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    try:
        metrics = select_metrics(result, specs)
    except ValueError as e:
        log(str(e))
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
