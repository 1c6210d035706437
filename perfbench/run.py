#!/usr/bin/env python3
"""Scaled end-to-end benchmark of the power-container simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library
sources it pulls in from src/) into .bench_build/perfbench, generates
the workload's inputs from --seed, then starts the perfbench binary once
per repetition until --seconds of host time have been spent, and
combines the repetitions (per-slice best times, see best_slices).
Metric names and units come from BENCHMARK.json.

--trace 0 prints the end-to-end metrics from plain runs. --trace 1
pairs every plain run with an instrumented run of the same inputs
(plus a run without recalibration on gae_recal_capped) and prints the
per-layer metrics. Every run is checked (energy conservation, the
workload's own invariants, determinism across repetitions, and in
--trace 1 zero perturbation by the instrumentation); any failure exits
nonzero without printing a result. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

# Fixed shape of the timed window per workload (slice count and
# simulated slice length) and the number of RNG seeds the workload
# takes. Only the seeds change with --seed. The request totals keep
# clear of powers of two: the manager's records vector doubles there,
# and peak_rss_mb would jump between seeds.
WORKLOADS = {
    # ~9.6k WeBWorK requests at peak, every one span-traced.
    "webwork_traced": dict(slices=1200, slice_ms=100, seeds=2),
    # Vosao at 2x cores + ~1/s viruses; the warm-up continues until the
    # recalibrator's 4096-sample online ring (1 ms meter) is full. Short
    # slices (~1 refit each) let best_slices() filter host noise finely.
    "gae_recal_capped": dict(slices=1000, slice_ms=10, seeds=2),
    # ~49k Solr + RSA + Stress requests open loop on Westmere, ~60%
    # utilization.
    "westmere_mix_open": dict(slices=150, slice_ms=1000, seeds=6),
}
# Simulated seconds of virus arrivals generated: covers the longest
# warm-up perfbench.cc allows (60 s), the run window and the drain.
VIRUS_HORIZON_S = 90
# Leading simulated seconds whose virus arrives at mid-second for
# every seed (see write_inputs).
FIXED_VIRUS_S = 3

# Timebase of each end-to-end metric (names and units come from
# BENCHMARK.json). "host CPU" is the perfbench process's CPU time.
TIMEBASE = {
    "setup_s": "host CPU",
    "us_per_request": "host CPU",
    "slice_ms_p50": "host CPU",
    "slice_ms_p90": "host CPU",
    "peak_rss_mb": "host",
    "accounting_error_pct": "simulated",
    "sim_response_ms_p99": "simulated",
}

# Zero-perturbation and determinism fingerprint: bit strings for the
# floating-point values.
FINGERPRINT = ("fp_events", "fp_completions", "fp_accounted_j",
               "fp_accounting_error_pct", "fp_sim_response_ms_p99")


class BenchError(Exception):
    pass


def metric_units(kind):
    """name -> unit of BENCHMARK.json's `kind` metrics, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/ here: run from the repository root")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed, see {log_path}")


def write_inputs(workload, seed):
    shape = WORKLOADS[workload]
    rng = random.Random(f"perfbench:{workload}:{seed}")
    seeds = [rng.getrandbits(63) for _ in range(shape["seeds"])]
    path = os.path.join(BUILD_DIR, f"inputs-{workload}-{seed}.txt")
    with open(path, "w") as f:
        f.write(f"workload {workload}\n")
        for key in ("slices", "slice_ms"):
            f.write(f"{key} {shape[key]}\n")
        f.write("seeds " + " ".join(str(s) for s in seeds) + "\n")
        if workload == "gae_recal_capped":
            # One virus at a uniformly random instant of the middle 60%
            # of every simulated second: the ~1/s open-loop stream of
            # Figures 11/12, with a count per window that does not depend
            # on the seed. (With Poisson arrivals the count, which drives
            # the accounting error, varied by +-30% between seeds; with
            # arrivals anywhere in the second, viruses straddling the
            # whole-second window edges still moved it by ~9%.) In the
            # first FIXED_VIRUS_S seconds the virus arrives at mid-second:
            # with random instants there, the recalibrator's first
            # confident alignment, and so the warm-up, took 5 to 19
            # simulated seconds depending on the seed, and peak_rss_mb
            # grew with it.
            arrivals = [int((i + (0.5 if i < FIXED_VIRUS_S
                                  else 0.2 + 0.6 * rng.random())) * 1e6)
                        for i in range(VIRUS_HORIZON_S)]
            f.write("virus_arrivals_us "
                    + " ".join(str(a) for a in arrivals) + "\n")
    return path


def run_binary(inputs, mode, spans_out=None):
    cmd = [BINARY, inputs, mode] + ([spans_out] if spans_out else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run printed nothing (exit "
                         f"{proc.returncode}): {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or result.get("check_failures"):
        raise BenchError(f"{mode} run failed its checks (exit "
                         f"{proc.returncode}): "
                         f"{result.get('check_failures') or proc.stderr}")
    return result


def per_request(run, key):
    return run[key] / run["run_completed"]


def best_slices(runs):
    """Per-slice minimum CPU ns over repetitions of the same inputs.

    Every repetition does the same simulated work slice by slice, and
    other tenants of the host can only slow a slice down (on a shared
    VM whole seconds at a time ran ~1.5x slower), so the fastest
    observation of each slice is its cost with the least interference.
    """
    return [min(col) for col in zip(*(r["slice_ns"] for r in runs))]


def best_us_per_request(runs):
    return sum(best_slices(runs)) / 1e3 / runs[0]["run_completed"]


def end_to_end_metrics(plains):
    best = best_slices(plains)
    deciles = statistics.quantiles(best, n=10, method="inclusive")
    return {
        # Set-up is timed once per repetition: the median of those.
        "setup_s": statistics.median(p["setup_s"] for p in plains),
        "us_per_request": best_us_per_request(plains),
        "slice_ms_p50": deciles[4] / 1e6,
        "slice_ms_p90": deciles[8] / 1e6,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plains),
        # The same in every repetition (fingerprint-checked).
        "accounting_error_pct": plains[0]["accounting_error_pct"],
        "sim_response_ms_p99": plains[0]["sim_response_ms_p99"],
    }


def layer_metrics(plains, insts, norecals):
    """Per-layer metrics of paired plain/instrumented(/norecal) runs.

    Counts and span self times are medians over the instrumented runs.
    Whole-run costs come from per-slice minima (best_slices) of the
    plain runs, which carry no span overhead.
    """
    plain_best = best_slices(plains)
    quarter = len(plain_best) // 4
    plain_us = best_us_per_request(plains)
    whole_run = {
        "core.recal_us_per_request":
            plain_us - best_us_per_request(norecals) if norecals else 0.0,
        "sim.ns_per_event": sum(plain_best) / plains[0]["run_events"],
        "sim.slice_cost_growth":
            sum(plain_best[-quarter:]) / sum(plain_best[:quarter]),
        "bench.timing_overhead_pct":
            100.0 * (best_us_per_request(insts) / plain_us - 1.0),
    }
    values = {}
    for inst in insts:
        completed = inst["run_completed"]
        sim_s = inst["run_sim_s"]
        v = {
            "trace.hook_us_per_request":
                inst["self_us_per_request.trace.hook"],
            "trace.completion_us_per_request":
                inst["self_us_per_request.trace.completion"],
            "trace.spans_per_request": inst["run_spans"] / completed,
            "obs.query_us_p50": inst["obs_query_ns_p50"] / 1e3,
            "core.refits_per_sim_s": inst["run_refits"] / sim_s,
            "core.online_samples_per_refit":
                inst["online_samples_per_refit"],
            "linalg.refit_us": inst.get("refit_us", 0.0),
            "core.conditioner_us_per_request":
                inst["self_us_per_request.core.conditioner"],
            "core.hook_us_per_request":
                inst["self_us_per_request.core.hook"],
            "core.hook_ns_per_call": inst["core_hook_ns_per_call"],
            "core.completion_us_per_request":
                inst["self_us_per_request.core.completion"],
            "os.actuations_per_request": per_request(inst, "actuations"),
            "os.switches_per_request": per_request(inst, "switches"),
            "os.sampling_irqs_per_request":
                per_request(inst, "sampling_irqs"),
            "os.rebinds_per_request": per_request(inst, "rebinds"),
            "os.forks_per_request": per_request(inst, "forks"),
            "os.segments_per_request": per_request(inst, "segments"),
            "os.io_per_request": per_request(inst, "io"),
            "sim.events_per_request": per_request(inst, "run_events"),
            "sim.pending_max": inst["pending_max"],
            "sim.residual_us_per_request":
                inst["residual_us_per_request"],
            "hw.meter_samples_per_sim_s": inst["run_meter_samples"] / sim_s,
            "workloads.calibrate_s": inst["calibrate_s"],
            "sim.warmup_s": inst["warmup_s"],
        }
        for name, value in v.items():
            values.setdefault(name, []).append(value)
    metrics = {name: statistics.median(vals) for name, vals in values.items()}
    metrics.update(whole_run)
    return metrics


def check_same(a, b, what):
    for key in FINGERPRINT:
        if a[key] != b[key]:
            raise BenchError(f"{what}: {key} differs ({a[key]} vs {b[key]})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        build()
        inputs = write_inputs(args.workload, args.seed)
        spans_out = os.path.join(BUILD_DIR, f"spans-{args.workload}.bin")
        plains, insts, norecals = [], [], []
        start = time.monotonic()
        rep_s = 0.0
        # Stop before a repetition would overrun --seconds.
        while not plains or time.monotonic() - start + rep_s <= args.seconds:
            rep_start = time.monotonic()
            plain = run_binary(inputs, "plain")
            if plains:
                check_same(plains[0], plain, "repeated run not deterministic")
            plains.append(plain)
            if args.trace:
                inst = run_binary(inputs, "instrumented", spans_out)
                check_same(plain, inst, "instrumentation perturbed the run")
                insts.append(inst)
                if args.workload == "gae_recal_capped":
                    norecals.append(run_binary(inputs, "norecal"))
            rep_s = time.monotonic() - rep_start
    except (BenchError, OSError, KeyError, subprocess.TimeoutExpired,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    last = plains[-1]
    submitted = int(sum(p["submitted"] for p in plains))
    failed = int(sum(p["failed"] for p in plains))
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plains)} repetitions, {int(last['slices'])} slices of "
          f"{int(last['slice_sim_ms'])} simulated ms, "
          f"{int(last['run_completed'])} requests in the timed window")
    apps = sorted(k.split(".", 1)[1] for k in last if k.startswith("submitted."))
    for app in apps:
        print(f"  {app}: submitted {int(last['submitted.' + app])} "
              f"completed {int(last['completed.' + app])}")
    print(f"  submitted {submitted} failed {failed} (all repetitions); "
          f"failed_request_pct {100.0 * failed / max(submitted, 1):.4f} %")
    print("  checks passed: energy conservation, workload invariants, "
          "determinism" + (", zero perturbation" if args.trace else ""))
    print("  us_per_request by repetition (plain): "
          + " ".join(f"{p['us_per_request']:.1f}" for p in plains))
    if args.trace:
        print(f"  spans of the last instrumented run: {spans_out}")
        if args.workload == "gae_recal_capped":
            print("  core.recal_us_per_request is an estimate: plain minus "
                  "a run of the same seed without recalibration")

    metrics = (layer_metrics(plains, insts, norecals) if args.trace
               else end_to_end_metrics(plains))
    if set(metrics) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    for name in units:
        value = metrics[name]
        base = f" ({TIMEBASE[name]})" if name in TIMEBASE else ""
        print(f"  {name} = {value:.6g} {units[name]}{base}")

    print(json.dumps({
        "correct": True,
        "attempted": submitted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
