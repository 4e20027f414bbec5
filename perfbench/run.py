#!/usr/bin/env python3
"""End-to-end benchmark of the chortle mapping system.

Run from the repository root:

    python3 perfbench/run.py --workload serve_repeat --seed 1 \\
        --seconds 5 --trace 0

Workloads (BENCHMARK.json says why each was chosen; the kSettings table
in perfbench/src/common.hpp holds their connection, worker and rate
settings):

  flow_mcnc      the paper's flow, offline: parse, optimize, map at
                 K=2..6, emit, golden + simulation check
  serve_repeat   served chortle requests whose trees all hit the DP
                 cache, closed loop, then an open loop at a fixed rate
  serve_fresh    served distinct netlists generated from the seed
  serve_signoff  served portfolio race with BDD verify at K=6
  all            every workload above in turn, for reading

The first call builds the benchmark and the library from source into
.bench_build/ (or $CARGO_TARGET_DIR). Each run prints a readable report
and, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. --trace 1 also writes a Chrome
trace, validated with tools/obs_check --trace. The exit code is 0 only
when every output was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in perfbench/

import report  # noqa: E402

WORKLOADS = ["flow_mcnc", "serve_repeat", "serve_fresh", "serve_signoff"]
# A run must end within 180 s; the build before it is not counted.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.relpath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", "4", "--target", "perfbench",
              "obs_check"]]
    with open(log_path, "w") as log_file:
        for step in steps:
            if subprocess.run(step, stdout=log_file,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as failed:
                    log(failed.read()[-4000:])
                raise SystemExit("perfbench: build failed, see " + log_path)
    return os.path.join(out, "perfbench")


def binary_args(binary, workload, args, raw_path, trace_path):
    return [binary, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", raw_path, "--trace-out", trace_path,
            "--golden", os.path.join("tests", "golden", "lut_counts.tsv"),
            "--socket", os.path.join(build_dir(),
                                     "pb%d.sock" % os.getpid())]


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def run_workload(binary, workload, args, bench):
    """Runs one workload; returns its result line (a dict)."""
    out = os.path.join(build_dir(), "perfbench")
    tag = "%s-s%d-t%d" % (workload, args.seed, args.trace)
    raw_path = os.path.join(out, tag + ".json")
    trace_path = os.path.join(out, tag + ".trace.json")
    for path in (raw_path, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = binary_args(binary, workload, args, raw_path, trace_path)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: %s did not finish in %d s"
                         % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d"
                         % (workload, proc.returncode))
    with open(raw_path) as f:
        raw = json.load(f)

    problems = list(raw["failures"])
    print("== %s  seed=%d  request-set digest=%s  (%d requests per pass)"
          % (workload, args.seed, raw["digest"], raw["suite_requests"]))
    if args.trace:
        declared = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = report.per_layer(raw, declared)
        check = subprocess.run(
            [os.path.join(out, "obs_check"), "--trace", trace_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if check.returncode != 0:
            problems.append("obs_check rejected the trace: "
                            + check.stdout.strip())
        print("trace %s: %s" % (trace_path, check.stdout.strip()))
        print("self time by layer (share of the traced pass):")
        for layer, share in report.layer_shares(raw).items():
            print("  %-22s %6.1f%%  %.6g s"
                  % (layer, 100 * share, raw["trace"]["self_s"][layer]))
        print("tracing overhead: traced pass %.6g s, untraced pass %.6g s"
              % (raw["trace"]["traced_s"], raw["trace"]["untraced_s"]))
    else:
        declared = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = report.end_to_end(raw)
        samples = {"setup_s": len(raw["setup_s"]),
                   "suite_s": len(raw["pass_s"]),
                   "rps": len(raw["pass_s"]),
                   "verified_ratio": raw["verdicts"]["checked"],
                   "luts_total": raw.get("totals_requests",
                                         raw["verdicts"]["checked"]),
                   "depth_total": raw.get("totals_requests",
                                          raw["verdicts"]["checked"])}
        for name, (value, unit, count) in report.reported_extras(raw).items():
            shown = "n/a (fewer than %d samples beyond it)" % (
                report.MIN_BEYOND) if value is None else fmt(value)
            print("  %-18s %s %s  (n=%d, reported only)"
                  % (name, shown, unit, count))
        print("  %d requests completed in the %.6g s window"
              % (raw["completed"], raw["window_s"]))
        if "input_mb" in raw:
            print("  the benchmark holds %.3g MB of input BLIF, part of "
                  "peak_rss_mb" % raw["input_mb"])
        if raw.get("pool_ran_out"):
            print("  NOTE: the fresh netlist pool ran out after %.3g s of the "
                  "%d s asked for" % (raw["window_s"], args.seconds))
        if raw.get("inconclusive"):
            print("  inconclusive verdicts: " + " ".join(raw["inconclusive"]))
    if sorted(metrics) != sorted(declared):
        problems.append("metric names differ from BENCHMARK.json")
    for name in declared:
        if name in metrics:
            print("  %-24s %s %s%s" % (
                name, fmt(metrics[name]), units[name],
                "" if args.trace else "  (n=%s)" % samples.get(name, 1)))
    for problem in problems:
        print("  FAILED: " + problem)
    correct = raw["failed"] == 0 and not problems
    return report.result_line(correct, raw["attempted"],
                              max(raw["failed"], 0 if correct else 1),
                              metrics, units)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench = report.load_benchmark(os.getcwd())
    binary = build()
    if args.workload != "all":
        line = run_workload(binary, args.workload, args, bench)
        print(json.dumps(line), flush=True)
        return 0 if line["correct"] else 1

    lines = {}
    for workload in WORKLOADS:
        lines[workload] = run_workload(binary, workload, args, bench)
        print(json.dumps(lines[workload]), flush=True)
    correct = all(line["correct"] for line in lines.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {w: line["metrics"] for w, line in lines.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
