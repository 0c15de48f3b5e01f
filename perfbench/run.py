#!/usr/bin/env python3
"""Sweep benchmark for sprinkle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload thm5-diam2 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all        # every workload, both modes

A run is a closed loop of back-to-back sweeps of one workload in one
process (workers=1).  One untimed warm-up sweep comes first, then sweeps
run until --seconds have passed; each sweep is timed from run_sweep(cfg)
to the returned estimate_threshold and checked against the workload's
gate.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": <trials>, "failed": <trials>, "metrics": {...}}

--trace 0 reports the end-to-end metrics: sweep_s and trials_per_s
(median sweep), setup_s (median of SETUP_PROBES fresh processes, each
from process start to a ready SweepConfig) and peak_rss_mb.  sweep_s and
setup_s are host-speed corrected: each wall time is multiplied by
host_factor() taken just before it (see REFERENCE_S); the report lines
above the JSON give the uncorrected wall times too.

--trace 1 alternates untraced and traced sweeps of the same config and
reports the per-layer metrics (see tracing.py): per sweep, each layer's
calls and self time in ms, and ms per trial.  Tracing must not change
results: the two CSVs must be identical, every verdict witness must
re-validate, and the layer times must add up to the traced sweep time.
The spans are written to perfbench/out/ when the run ends.

The run exits 1 on any gate violation or mismatch, and without a result
when the checkout holds no sprinkle sources.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checkout

checkout.use_checkout_sources()

import tracing  # noqa: E402
from sprinkle.harness import estimate_threshold, run_sweep  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 15
# Host speed drifts by tens of percent over tens of seconds on shared
# machines.  End-to-end times are therefore scaled by host_factor(),
# measured just before each sweep and each set-up probe: they read as
# seconds on a host that runs the reference loop in REFERENCE_S.
REFERENCE_ITERATIONS = 300_000
REFERENCE_SCANS = 6
_REFERENCE_MASKS = [((1 << 200) - 1) ^ (1 << v) for v in range(200)]
REFERENCE_S = 0.05

END_TO_END_UNITS = {"sweep_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# spans reported as <name>.calls / .total_ms / .ms_per_trial
TIMED_LAYERS = (
    "generators",
    "core.non_edges",
    "core.with_edges",
    "checkers.connectivity",
    "checkers.cliques",
    "checkers.diameter",
)

PER_LAYER_UNITS = {
    **{f"{p}.{k}": u for p in TIMED_LAYERS
       for k, u in (("calls", "count"), ("total_ms", "ms"), ("ms_per_trial", "ms"))},
    "augment.calls": "count",
    "augment.self_ms": "ms",
    "augment.ms_per_trial": "ms",
    "augment.edges_added": "count",
    "augment.infeasible": "count",
    "checkers.connectivity.shortcut_frac": "ratio",
    "harness.self_ms": "ms",
    "harness.indeterminate": "count",
    "harness.infeasible": "count",
    "threshold.ms": "ms",
    "trace.sweep_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# the self times that together make up one traced sweep
LAYER_TIME_METRICS = [f"{p}.total_ms" for p in TIMED_LAYERS] + [
    "augment.self_ms", "harness.self_ms", "threshold.ms",
]


def sweep_once(cfg):
    """(result, estimate or None if the curve never crosses 1/2, seconds)."""
    start = time.perf_counter()
    res = run_sweep(cfg)
    try:
        est = estimate_threshold(res)
    except ValueError:
        est = None
    return res, est, time.perf_counter() - start


def traced_sweep(tracer: tracing.Tracer, cfg):
    with tracer.installed():
        res = tracer.span("harness", run_sweep)(cfg)
        try:
            est = tracer.span("threshold", estimate_threshold)(res)
        except ValueError:
            est = None
    return res, est


def setup_probe(wl: Workload, seed: int) -> float:
    """Seconds from starting a fresh process to its ready SweepConfig."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)],
        cwd=checkout.ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1]) - start


class Run:
    """Outcome bookkeeping shared by both modes."""

    def __init__(self, wl: Workload, seed: int):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.m_halfs: list[float] = []

    def check(self, index: int, cfg, res, est, counted: bool = True) -> None:
        self.problems += [f"sweep {index}: {v}" for v in self.wl.gate(cfg, res, est)]
        self.m_halfs.append(est.m_half if est is not None else math.nan)
        if counted:
            self.attempted += len(cfg.grid) * cfg.trials
            self.failed += sum(pt.indeterminate + pt.infeasible for pt in res.points)

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }


def _until(seconds: float):
    """Sweep indices 1, 2, ... until `seconds` have passed (at least one)."""
    start = time.perf_counter()
    index = 1
    while True:
        yield index
        index += 1
        if time.perf_counter() - start >= seconds:
            return


def host_factor() -> float:
    """REFERENCE_S over the seconds this host now takes for a fixed piece
    of pure-Python work (small-int arithmetic plus the big-int bit scans
    the checkers live on): below 1 while the host runs slow."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    for _ in range(REFERENCE_SCANS):
        for mask in _REFERENCE_MASKS:
            while mask:
                low = mask & -mask
                mask ^= low
    return REFERENCE_S / (time.perf_counter() - start)


def run_plain(wl: Workload, seed: int, seconds: float) -> tuple[dict, list[str]]:
    run = Run(wl, seed)
    cfg = wl.config(seed, 0)
    run.check(0, cfg, *sweep_once(cfg)[:2], counted=False)  # warm-up
    sweeps, probes = [], []  # (host factor, wall seconds)
    start = time.perf_counter()
    for i in _until(seconds):
        cfg = wl.config(seed, i)
        factor = host_factor()
        res, est, dt = sweep_once(cfg)
        sweeps.append((factor, dt))
        run.check(i, cfg, res, est)
        # Host speed drifts over seconds, so the set-up probes are spread
        # evenly over the run instead of taken back to back.
        elapsed = (time.perf_counter() - start) / max(seconds, 1e-9)
        while len(probes) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * elapsed)):
            probes.append((host_factor(), setup_probe(wl, seed)))
    while len(probes) < SETUP_PROBES:
        probes.append((host_factor(), setup_probe(wl, seed)))
    sweep_s = statistics.median(f * t for f, t in sweeps)
    metrics = {
        "sweep_s": sweep_s,
        "trials_per_s": wl.trials_per_sweep() / sweep_s,
        "setup_s": statistics.median(f * t for f, t in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = [f"sweeps        {len(sweeps)} timed after 1 warm-up"] + [
        f"wall {name:<8} median {statistics.median(w):.4f} s, range {min(w):.4f} .. "
        f"{max(w):.4f}; host factor median {statistics.median(f):.3f}"
        for name, pairs in (("sweep_s", sweeps), ("setup_s", probes))
        for f, w in [zip(*pairs)]
    ]
    return run.result(metrics, END_TO_END_UNITS), _summary(run, report)


def run_traced(wl: Workload, seed: int, seconds: float,
               spans_path: Path | None) -> tuple[dict, list[str]]:
    run = Run(wl, seed)
    tracer = tracing.Tracer()
    cfg = wl.config(seed, 0)
    run.check(0, cfg, *sweep_once(cfg)[:2], counted=False)  # warm-up
    plain, traced = [], []
    counts = {"indeterminate": 0, "infeasible": 0, "kconn": 0, "shortcut": 0}
    for i in _until(seconds):
        cfg = wl.config(seed, i)
        tracer.sweep = i
        first = len(tracer.spans)
        if i % 2:  # alternate which side runs first
            res, est, dt = sweep_once(cfg)
            res_t, est_t = traced_sweep(tracer, cfg)
        else:
            res_t, est_t = traced_sweep(tracer, cfg)
            res, est, dt = sweep_once(cfg)
        spans = tracer.spans[first:]
        plain.append(dt)
        traced.append(sum(s.end - s.start for s in spans if s.parent is None))
        run.check(i, cfg, res_t, est_t)
        if res_t.to_csv() != res.to_csv():
            run.problems.append(f"sweep {i}: traced CSV differs from untraced CSV")
        counts["indeterminate"] += sum(pt.indeterminate for pt in res_t.points)
        counts["infeasible"] += sum(pt.infeasible for pt in res_t.points)

        verdicts = tracer.take_verdicts()
        checks = sum(s.name.startswith("checkers.") for s in spans)
        if len(verdicts) != checks:
            run.problems.append(
                f"sweep {i}: {len(verdicts)} verdicts captured for {checks} checks")
        for checker, g, arg, verdict in verdicts:
            err = tracing.witness_error(checker, g, arg, verdict)
            if err:
                run.failed += 1
                run.problems.append(f"sweep {i}: {checker}: {err}")
            if checker == "is_k_connected":
                counts["kconn"] += 1
                counts["shortcut"] += verdict.reason in tracing.SHORTCUT_REASONS

    sweeps, trials = len(traced), wl.trials_per_sweep()
    self_times = tracer.self_times()

    def per_sweep(span_name):
        calls, total = self_times.get(span_name, (0, 0.0))
        return calls / sweeps, total * 1000 / sweeps

    metrics = {}
    for name in TIMED_LAYERS:
        calls, ms = per_sweep(name)
        metrics.update({f"{name}.calls": calls, f"{name}.total_ms": ms,
                        f"{name}.ms_per_trial": ms / trials})
    calls, ms = per_sweep("augment")
    metrics.update({
        "augment.calls": calls,
        "augment.self_ms": ms,
        "augment.ms_per_trial": ms / trials,
        "augment.edges_added": tracer.counts["augment.edges_added"] / sweeps,
        "augment.infeasible": tracer.counts["augment.infeasible"] / sweeps,
        "checkers.connectivity.shortcut_frac":
            counts["shortcut"] / counts["kconn"] if counts["kconn"] else 0.0,
        "harness.self_ms": per_sweep("harness")[1],
        "harness.indeterminate": counts["indeterminate"] / sweeps,
        "harness.infeasible": counts["infeasible"] / sweeps,
        "threshold.ms": per_sweep("threshold")[1],
        "trace.sweep_ms": sum(traced) * 1000 / sweeps,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1,
    })
    layer_sum = sum(metrics[k] for k in LAYER_TIME_METRICS)
    if not math.isclose(layer_sum, metrics["trace.sweep_ms"], rel_tol=1e-9):
        run.problems.append(
            f"layer times sum to {layer_sum} ms, traced sweep took "
            f"{metrics['trace.sweep_ms']} ms")
    if spans_path is not None:
        tracer.write(spans_path)
    report = [f"sweeps        {sweeps} untraced/traced pairs after 1 warm-up"] + [
        f"share         {k:<34} {metrics[k] / metrics['trace.sweep_ms']:7.2%}"
        for k in LAYER_TIME_METRICS
    ]
    return run.result(metrics, PER_LAYER_UNITS), _summary(run, report)


def _summary(run: Run, report: list[str]) -> list[str]:
    wl = run.wl
    frac = run.failed / run.attempted if run.attempted else 0.0
    finite = [m for m in run.m_halfs if not math.isnan(m)]
    report = [
        f"workload      {wl.name}  seed={run.seed}  n={wl.n}  trials={wl.trials}"
        f"  trials/sweep={wl.trials_per_sweep()}",
        *report,
        f"failed_frac   {frac} ({run.failed} of {run.attempted} trials)",
        f"m_half        {min(finite, default=math.nan):.6g} .. "
        f"{max(finite, default=math.nan):.6g} over {len(run.m_halfs)} sweeps "
        "(output check, not gated)",
        "gates         " + ("pass" if not run.problems else f"{len(run.problems)} violations"),
        *(f"  violation   {p}" for p in run.problems[:20]),
    ]
    return report


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 spans_path: Path | None = None) -> tuple[dict, list[str]]:
    """One benchmark run: (result document, human-readable report lines)."""
    if trace:
        return run_traced(wl, seed, seconds, spans_path)
    return run_plain(wl, seed, seconds)


def _print_run(doc: dict, report: list[str]) -> None:
    for line in report:
        print(line)
    for name, m in doc["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, help="default: the workload's own seed")
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload != "all":
        wl = WORKLOADS[args.workload]
        seed = wl.default_seed if args.seed is None else args.seed
        spans = HERE / "out" / f"spans-{wl.name}-{seed}.json"
        doc, report = run_workload(wl, seed, args.seconds, bool(args.trace), spans)
        _print_run(doc, report)
        print(json.dumps(doc))
        return 0 if doc["correct"] else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS.values():
        seed = wl.default_seed if args.seed is None else args.seed
        for trace in (False, True):
            spans = HERE / "out" / f"spans-{wl.name}-{seed}.json" if trace else None
            doc, report = run_workload(wl, seed, args.seconds, trace, spans)
            _print_run(doc, report)
            total["correct"] &= doc["correct"]
            total["attempted"] += doc["attempted"]
            total["failed"] += doc["failed"]
            total["metrics"].update(
                {f"{wl.name}.{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
