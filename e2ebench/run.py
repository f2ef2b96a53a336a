#!/usr/bin/env python3
"""End-to-end benchmark of vcgt: builds the benchmark program, runs one workload, checks
its outputs and prints the result as one JSON line (the last line of stdout).

    python3 e2ebench/run.py --workload rig2_explicit --seed 1 --seconds 35 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json.

--trace 0 prints the end-to-end metrics (untraced runs); --trace 1 prints the
per-layer metrics from a separate traced segment. See e2ebench/README.md.

Extra options:
    --quick             short setup and runs (the benchmark's own tests use it)
    --reference PATH    reference monitors to check against (default: reference.json)
    --write-reference   recompute reference.json for every operating point
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
SIM_WORKLOADS = ("rig2_explicit", "row_halo4_implicit")
MONITORS = ("mean_p", "mdot_in", "mdot_out", "rms")
OPERATING_POINTS = 4  # the seed picks one of these inflow velocities
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark program under the checkout's build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no vcgt sources under {ROOT}; run from a full checkout")
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    build_dir = os.path.join(base, "e2ebench")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", build_dir, "--target", "vcgt_e2e", "-j", "4"],
                   check=True, stdout=out, stderr=out)
    return os.path.join(build_dir, "vcgt_e2e")


def run_program(exe, workload, seed, seconds, trace, quick):
    cmd = [exe, f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}"] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(f"vcgt_e2e exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def check_monitors(raw, reference):
    """Compares each row's monitors with the stored reference; returns the
    number of checks made and the list of mismatches."""
    tol = reference["rel_tolerance"]
    point = f"u={raw['info']['inflow_u']:g}"
    expected = reference["workloads"][raw["workload"]][point]
    got = {int(m["row"]): m for m in raw["monitors"]}
    checks, bad = 0, []
    for ref in expected:
        row = int(ref["row"])
        for key in MONITORS:
            checks += 1
            value = got.get(row, {}).get(key)
            if value is None or abs(value - ref[key]) > tol * max(abs(ref[key]), 1e-300):
                bad.append(f"row {row} {key}: {value} vs reference {ref[key]} ({point})")
    return checks, bad


def load_spec():
    with open(BENCHMARK) as f:
        return json.load(f)


def metric_names(kind):
    return [(m["name"], m["unit"]) for m in load_spec()[kind]]


def write_reference(exe):
    ref = {"rel_tolerance": 1e-6,
           "note": "per-row monitors after the warm-up steps, keyed by inflow velocity",
           "workloads": {}}
    for w in SIM_WORKLOADS:
        ref["workloads"][w] = {}
        for seed in range(OPERATING_POINTS):
            raw = run_program(exe, w, seed, 1, 0, True)
            rows = [{k: m[k] for k in ("row",) + MONITORS} for m in raw["monitors"]]
            ref["workloads"][w][f"u={raw['info']['inflow_u']:g}"] = rows
            log(f"{w} seed {seed}: {rows}")
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--reference", default=REFERENCE)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2
    if args.write_reference:
        write_reference(exe)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]

    try:
        raw = run_program(exe, args.workload, args.seed, args.seconds, args.trace, args.quick)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 3
    attempted, failed = raw["attempted"], raw["failed"]
    errors = list(raw["errors"])
    if args.workload in SIM_WORKLOADS:
        with open(args.reference) as f:
            checks, bad = check_monitors(raw, json.load(f))
        attempted += checks
        failed += len(bad)
        errors += bad
    for e in errors:
        log(f"FAILED: {e}")
    print("# run: " + json.dumps(raw["info"]))

    kind = "per_layer" if args.trace else "end_to_end"
    values = raw["layer"] if args.trace else raw["e2e"]
    metrics = {}
    for name, unit in metric_names(kind):
        if name == "failed_frac":
            values[name] = failed / attempted if attempted else 1.0
        if values.get(name) is None:
            errors.append(f"metric {name} missing")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
    correct = not errors and failed == 0 and len(metrics) == len(metric_names(kind))
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
