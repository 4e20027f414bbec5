"""Turns the raw document the perfbench binary writes into metrics.

Everything statistical lives here so that the rules are testable without
building anything (test_perfbench.py):

- a timing is reported as a median;
- a tail percentile is reported only when at least ten samples lie
  beyond it, and always together with its sample count;
- failed_ratio is failed requests over attempted requests.
"""

import json
import math
import os
import statistics

# Samples that must lie beyond a tail percentile before it is reported.
MIN_BEYOND = 10


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail_allowed(count, q):
    """True when at least MIN_BEYOND of `count` samples lie beyond the
    q-quantile (q in (0, 1))."""
    return count * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile(values, q):
    """Nearest-rank q-quantile, or None when fewer than MIN_BEYOND
    samples lie beyond it."""
    if not tail_allowed(len(values), q):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def failed_ratio(attempted, failed):
    if attempted < 1:
        raise ValueError("no request attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def end_to_end(raw):
    """Every end-to-end metric of a --trace 0 run, name -> value."""
    verdicts = raw["verdicts"]
    return {
        # One-time steps (inputs, lazy library build) plus the median of
        # the repeated steps (server start, connections, warm-up).
        "setup_s": raw["setup_once_s"] + median(raw["setup_s"]),
        "suite_s": median(raw["pass_s"]),
        # Requests of one pass over the median pass time: the closed
        # loop's throughput, steady against a stall in one pass.
        "rps": raw["suite_requests"] / median(raw["pass_s"]),
        "luts_total": raw["luts_total"],
        "depth_total": raw["depth_total"],
        "verified_ratio": verdicts["equivalent"] / verdicts["checked"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def reported_extras(raw):
    """Figures printed beside the metrics but not gated, because they do
    not exist on every workload (tails need 1000 samples, the open loop
    runs on serve_repeat only) or are not steady on every workload (the
    p50 of a 12-request suite is the mean of two circuits' latencies).
    name -> (value or None, unit, samples)."""
    extras = {
        "failed_ratio": (failed_ratio(raw["attempted"], raw["failed"]),
                         "ratio", raw["attempted"]),
    }
    latency = raw["latency_ms"]
    extras["p50_ms"] = (median(latency), "ms", len(latency))
    extras["p99_ms"] = (percentile(latency, 0.99), "ms", len(latency))
    open_loop = raw.get("open")
    if open_loop:
        samples = open_loop["latency_ms"]
        late = open_loop["late_ms"]
        extras["open_offered_rps"] = (open_loop["offered_rps"], "1/s",
                                      len(samples))
        extras["open_achieved_rps"] = (len(samples) / open_loop["window_s"],
                                       "1/s", len(samples))
        extras["open_p50_ms"] = (median(samples), "ms", len(samples))
        extras["open_p99_ms"] = (percentile(samples, 0.99), "ms",
                                 len(samples))
        extras["open_late_p50_ms"] = (median(late), "ms", len(late))
        extras["open_late_p99_ms"] = (percentile(late, 0.99), "ms",
                                      len(late))
        extras["open_late_max_ms"] = (max(late), "ms", len(late))
    return extras


def per_layer(raw, declared):
    """Every declared per-layer metric of a --trace 1 run. A layer the
    workload never calls reads 0."""
    trace = raw["trace"]
    self_s = trace["self_s"]
    layers = trace["layers"]
    values = {}
    for name in declared:
        if name == "trace.overhead":
            values[name] = trace["traced_s"] / trace["untraced_s"] - 1.0
        elif name in layers:
            values[name] = layers[name]
        elif name.endswith("_s") and name[:-2] in self_s:
            values[name] = self_s[name[:-2]]
        else:
            values[name] = 0
    return values


def layer_shares(raw):
    """Each span layer's share of the traced pass's total self time."""
    self_s = raw["trace"]["self_s"]
    total = sum(self_s.values())
    return {layer: (seconds / total if total > 0 else 0.0)
            for layer, seconds in sorted(self_s.items(),
                                         key=lambda item: -item[1])}


def result_line(correct, attempted, failed, metrics, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
