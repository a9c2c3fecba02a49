#!/usr/bin/env python3
"""End-to-end benchmark of the scheduling pipeline, the serving core and the
native runtime.

    python3 perfbench/run.py --workload sweep|serve|native|megadag \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the repository's
libraries and the driver (perfbench/driver) in Release mode under
$CARGO_TARGET_DIR, or .bench_build when it is unset; later runs reuse that
build. The driver runs the workload in-process, checks every output, and
prints its result as one JSON line. An untraced run also starts the driver
SETUP_PROCESSES more times to run the workload's set-up alone, each in a
fresh process, and reports as setup_s the median of those cold set-ups and
the main run's own. This script checks that the result carries exactly the
metrics BENCHMARK.json names: end-to-end with --trace 0; per-layer with
--trace 1, where the driver must report every layer its workload owns (the
LAYERS table) and layers the workload does not reach read 0. It runs the
repository's trace_check on the trace a traced run writes, and prints the
checked result as the last line of standard output:

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

Exit status 0 means a result was printed (its "correct" field says whether
every check held). Any other status means no result: the build failed, the
driver crashed, or the checkout holds no repository sources.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep", "serve", "native", "megadag")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
SETUP_PROCESSES = 8

# The per-layer metrics each workload measures in a traced run.
LAYERS = {
    "sweep": ("codegen.synth_us", "opt.tuples_removed_per_seed",
              "graph.build_us", "sched.schedule_us",
              "barrier.dag_builds_per_seed", "barrier.psi_hit_ratio",
              "sched.repair_ratio", "verify.verify_us", "sim.simulate_us",
              "vliw.schedule_us", "harness.par_efficiency",
              "harness.run_point_ms", "trace.overhead_pct"),
    "serve": ("serve.queue_wait_us", "serve.fingerprint_us",
              "serve.cache_lookup_us", "serve.cold_schedule_us",
              "serve.serialize_us", "serve.hit_ratio",
              "serve.frame_roundtrip_us", "trace.overhead_pct"),
    "native": ("exec.lower_us", "exec.central_step_us", "exec.tree_step_us",
               "exec.spins_per_run", "exec.yields_per_run", "ir.eval_us",
               "trace.overhead_pct"),
    "megadag": ("graph.build_us", "sched.label_order_us", "vliw.schedule_us",
                "graph.edges_per_tuple", "trace.overhead_pct"),
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the driver and trace_check; returns the
    build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources (src/CMakeLists.txt) next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                shutil.rmtree(out, ignore_errors=True)
                fail("cmake configure failed")
        cmd = ["cmake", "--build", out, "--target", "perfbench_driver",
               "trace_check", "-j", str(os.cpu_count() or 1)]
        rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                            timeout=BUILD_TIMEOUT_S).returncode
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed")
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, workload, trace, out_lines, build_out):
    """Returns the list of problems with the driver's result. A traced run
    must report exactly the layers its workload owns; every other per-layer
    metric is then filled in as 0 (no calls measured)."""
    problems = []
    want = expected_metrics(trace)
    got = result.setdefault("metrics", {})
    if trace:
        own = set(LAYERS[workload])
        for name in sorted(own - set(got)):
            problems.append(f"metric {name} missing from the {workload} run")
        for name in sorted(set(got) - own):
            problems.append(f"metric {name} is not a layer {workload} owns")
        for name, unit in want.items():
            if name not in own:
                got.setdefault(name, {"value": 0, "unit": unit})
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not declared in BENCHMARK.json")
    for name, m in got.items():
        value = m.get("value")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"metric {name} has unit {m.get('unit')}, "
                            f"expected {want[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"end-to-end metric {name} is 0")
    if trace:
        files = [line.split()[1] for line in out_lines
                 if line.startswith("trace_file: ")]
        if not files:
            problems.append("traced run wrote no trace file")
        else:
            tool = os.path.join(build_out, "trace_check")
            rc = subprocess.run([tool, os.path.join(ROOT, files[0])],
                                timeout=60).returncode
            print(f"trace_check {files[0]}: exit {rc}")
            if rc != 0:
                problems.append("trace_check rejected the trace file")
    return problems


def run_driver(cmd, deadline):
    """Runs the driver once; returns its output lines and parsed result."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with status {proc.returncode} and no result")
    return lines, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build()
    deadline = time.monotonic() + DRIVER_TIMEOUT_S
    cmd = [os.path.join(out, "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", ".bench_out"]
    lines, result = run_driver(cmd, deadline)
    for line in lines[:-1]:
        print(line)
    # The driver's own result, before anything below fills it in.
    print(f"driver result: {lines[-1]}")

    if args.trace == 0:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES):
            _, r = run_driver(cmd + ["--setup-only", "1"], deadline)
            setups.append(r["metrics"]["setup_s"]["value"])
            result["correct"] = result["correct"] and r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
        print("setup_s: median of the cold set-ups of "
              f"{len(setups)} processes: "
              + " ".join(f"{s:.4f}" for s in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)

    problems = check_result(result, args.workload, args.trace == 1,
                            lines[:-1], out)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    final = {
        "correct": bool(result["correct"]) and not problems,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]) + len(problems),
        "metrics": result["metrics"],
    }
    sys.stdout.flush()
    print(json.dumps(final))


if __name__ == "__main__":
    main()
