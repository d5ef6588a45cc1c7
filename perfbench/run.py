#!/usr/bin/env python3
"""Repository benchmark of the butterfly monitoring stack.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the libraries under src/, the
stock bfly_serve daemon and the perfbench measuring program into
.bench_build/ (Release), runs one workload and prints, as its last
stdout line, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics. Diagnostics go to
the lines before it:
the seed, the output fingerprint, the tail percentile and a fixed-work
host probe taken before and after the run. The full perfbench report is
kept in .bench_build/results/.

Workloads, metrics and which end-to-end metric each layer metric should
move are described in perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
DEADLINE_S = 175

WORKLOADS = ("session-ocean", "serve-long", "serve-mix")

# Per-layer metrics and the workloads whose traced run measures them.
# Elsewhere the layer is not on the workload's path and reads 0.
SERVE = {"serve-long", "serve-mix"}
ALL = set(WORKLOADS)
LAYER_WORKLOADS = {
    "harness.perf_model_ms": {"session-ocean"},
    "butterfly.pass1_ms": ALL,
    "butterfly.pass2_ms": ALL,
    "butterfly.finalize_ms": ALL,
    "butterfly.blocks": ALL,
    "lifeguards.oracle_ms": {"session-ocean"},
    "lifeguards.false_positives": {"session-ocean"},
    "memmodel.interleave_ms": {"session-ocean"},
    "workloads.generate_ms": {"session-ocean"},
    "trace.epoch_slice_ms": {"session-ocean"},
    "trace.epochs": ALL,
    "trace.encode_ms": SERVE,
    "trace.decode_ms": SERVE,
    "trace.log_bytes": SERVE,
    "service.analysis_ms": SERVE,
    "service.analysis_ms.addrcheck": {"serve-mix"},
    "service.analysis_ms.taintcheck": {"serve-mix"},
    "service.analysis_ms.definedcheck": {"serve-mix"},
    "service.analysis_ms.reaching-defs": {"serve-mix"},
    "service.analysis_ms.lockset": {"serve-mix"},
    "service.analysis_ms.addrleak": {"serve-mix"},
    "service.reference_ms": SERVE,
    "service.resident_epochs": SERVE,
    "service.connect_ms": SERVE,
    "service.busy_retries": SERVE,
    "service.records": SERVE,
    "service.wait_ms": {"serve-long"},
    "tracing.overhead_ms": ALL,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the two binaries up to date."""
    # Compiler temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    cmd = ["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 4),
           "--target", "perfbench", "bfly_serve"]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return [(e["name"], e["unit"]) for e in entries]


def reap_group(proc):
    """Kill whatever is left of perfbench's process group and wait
    until the group is gone."""
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        if proc.returncode is None:
            proc.wait()
        time.sleep(0.01)
    if proc.returncode is None:
        proc.wait()


def run_perfbench(args, deadline):
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(BUILD, "work", tag)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed % 2**64),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(CMAKE_DIR, "bfly_serve"),
           "--out-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_wrong_reference:
        cmd.append("--plant-wrong-reference")
    # Own process group, so nothing perfbench started can outlive it.
    proc = subprocess.Popen(cmd, cwd=work, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
        out = None
    reap_group(proc)
    if out is None:
        return None
    if proc.returncode != 0:
        log("perfbench: exited with %d" % proc.returncode)
        return None
    lines = out.decode().strip().splitlines()
    if not lines:
        log("perfbench: printed nothing")
        return None
    report = json.loads(lines[-1])
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump(report, f, indent=1)
    return report


def main():
    start = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Benchmark self-tests only: tiny inputs, and a corrupted reference
    # that must surface as a failed session.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--plant-wrong-reference", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    if not build():
        log("perfbench: build failed")
        return 1
    # Only the first run of a checkout builds for long; it may take it.
    report = run_perfbench(args, max(start, time.time() - 5) + DEADLINE_S)
    if report is None:
        return 1

    metrics = {}
    for name, unit in expected_metrics(args.trace):
        got = report["metrics"].get(name)
        if got is None:
            if args.trace and args.workload not in LAYER_WORKLOADS[name]:
                got = {"value": 0, "unit": unit}
            else:
                log("perfbench: %s did not report %s" % (args.workload, name))
                return 1
        if got["unit"] != unit:
            log("perfbench: %s has unit %s, not %s" % (name, got["unit"], unit))
            return 1
        metrics[name] = {"value": got["value"], "unit": unit}

    notes = report["notes"]
    print("workload %s seed %d trace %d" % (args.workload, args.seed,
                                             args.trace))
    print("fingerprint %s" % report["fingerprint"])
    print("host_probe cpu_ms %s mem_ms %s" % (report["host_probe"]["cpu_ms"],
                                              report["host_probe"]["mem_ms"]))
    for key in sorted(notes):
        print("%s %s" % (key, notes[key]))
    attempted, failed = report["attempted"], report["failed"]
    print("failed_ratio %.6g" % (failed / attempted if attempted else 1.0))
    print(json.dumps({"correct": attempted >= 1 and failed == 0,
                      "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
