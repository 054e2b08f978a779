"""Runs a workload's ops in a closed loop with one caller and derives its metrics."""

from __future__ import annotations

import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass


@dataclass
class OpResult:
    trace: object
    spanning: bool
    spectrum: object
    dbound: float | None
    threshold: float | None
    csv_path: str
    summary_path: str


@dataclass
class OpRecord:
    seconds: float
    failures: list
    op_id: int = -1
    steps: int = 0
    attack_bytes: int = 0
    stored_rows: int = 0
    csv_bytes: int = 0


def execute(pkg, op, out_dir):
    """config -> graph check -> design -> simulate -> bounds -> files.

    Scenario ops run through ``run`` as the CLI does; resilient ones then
    design again for the compensator bounds, as the acceptance tests do.
    Network ops make the same calls as ``run`` one by one and reuse the
    spectrum and controller. Every call goes through the package namespace
    so that the tracer can wrap it.
    """
    config = pkg.ScenarioConfig.from_dict(op.raw)
    spanning = pkg.has_spanning_tree(config.graph)
    resilient = config.controller == "resilient"
    spectrum = ctrl = dbound = threshold = None
    if op.kind == "scenario":
        trace = pkg.run(config)
    if op.kind == "network" or resilient:
        spectrum = pkg.normalized_laplacian(config.graph)
        ctrl = pkg.design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1,
                                     c=config.c, theta=config.theta)
    if op.kind == "network":
        trace = pkg.simulate(
            model=config.model, graph=config.graph, spectrum=spectrum, ctrl=ctrl,
            horizon=config.horizon, x0=config.x0, attacks=config.attacks,
            controller=config.controller, compensator_start=config.compensator_start,
            leader=config.leader, predictor_init=config.predictor_init,
            divergence_threshold=config.divergence_threshold,
            store_stride=config.store_stride, name=config.name, seed=config.seed)
    if resilient:
        dbound = pkg.dtilde_bound(ctrl, spectrum, trace.attack_bound)
        threshold = pkg.consensus_error_threshold(config.model, spectrum, ctrl, dbound)
    csv_path = os.path.join(out_dir, f"{op.name}.csv")
    summary_path = os.path.join(out_dir, f"{op.name}.summary.json")
    pkg.write_csv(trace, csv_path)
    pkg.write_summary(trace, summary_path)
    return OpResult(trace, spanning, spectrum, dbound, threshold, csv_path, summary_path)


def attack_buffer_bytes(trace, raw):
    """Bytes of the dense attack series the engine allocates: steps x N x dim x 8."""
    channels = {a["channel"] for a in raw.get("attacks", [])}
    total = 0
    if "actuator" in channels:
        total += trace.horizon * trace.n_agents * trace.input_dim * 8
    if "sensor" in channels:
        total += (trace.horizon + 1) * trace.n_agents * trace.state_dim * 8
    return total


def measure(pkg, workload, seconds, out_dir, checker, tracer=None, first_pass=0, min_runs=0):
    """Run whole passes, at least one, until ``seconds`` have elapsed and
    ``min_runs`` ops completed. Returns one list of OpRecords per pass."""
    passes = []
    runs = 0
    start = time.perf_counter()
    index = first_pass
    while True:
        records = []
        for op in workload.pass_ops(index):
            op_id = tracer.next_op(op.key) if tracer is not None else -1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        result = execute(pkg, op, out_dir)
                else:
                    result = execute(pkg, op, out_dir)
            except Exception:  # a failing op is counted, and the run goes on
                elapsed = time.perf_counter() - t0
                records.append(OpRecord(elapsed, [f"{op.name}: {traceback.format_exc()}"], op_id))
                continue
            elapsed = time.perf_counter() - t0
            try:
                failures = checker.check(op, result)
            except Exception:
                failures = [f"{op.name}: check raised {traceback.format_exc()}"]
            tr = result.trace
            records.append(OpRecord(elapsed, failures, op_id, tr.steps_run,
                                    attack_buffer_bytes(tr, op.raw), len(tr.ks),
                                    os.path.getsize(result.csv_path)))
        passes.append(records)
        runs += len(records)
        index += 1
        if time.perf_counter() - start >= seconds and runs >= min_runs:
            return passes


def measure_alloc(pkg, workload, out_dir, checker, tracer, first_pass):
    """One more pass that records the engine's allocation peak. The caller
    leaves its passes out of the per-layer times."""
    tracer.alloc = True
    try:
        return measure(pkg, workload, 0.0, out_dir, checker, tracer, first_pass)
    finally:
        tracer.alloc = False


def percentile(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100] of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_s):
    records = [r for p in passes for r in p]
    total = sum(r.seconds for r in records)
    latencies_ms = [1e3 * r.seconds for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (total / len(passes), "s"),
        "sim_steps_per_s": (sum(r.steps for r in records) / total, "1/s"),
        "runs_per_s": (len(records) / total, "1/s"),
        "run_p50_ms": (statistics.median(latencies_ms), "ms"),
        "run_p90_ms": (percentile(latencies_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


LAYER_TIMES = {
    "scenarios.parse_ms": "scenarios.parse",
    "graph.spectrum_ms": "graph.spectrum",
    "graph.spanning_tree_ms": "graph.spanning_tree",
    "design.gain_ms": "design.gain",
    "design.controller_self_ms": "design.controller",
    "engine.self_ms": "engine.simulate",
    "attacks.series_ms": "attacks.series",
    "metrics.gamma_ms": "metrics.gamma",
    "metrics.growth_ms": "metrics.growth",
    "metrics.verdict_ms": "metrics.verdict",
    "defense.dtilde_ms": "defense.dtilde",
    "defense.threshold_ms": "defense.threshold",
    "trace.csv_ms": "trace.csv",
    "trace.summary_ms": "trace.summary",
}


def per_layer(tracer, traced_passes, untraced_passes):
    """Per-pass layer figures from the traced passes."""
    n = len(traced_passes)
    records = [r for p in traced_passes for r in p]
    self_ns, calls, counts = tracer.totals({r.op_id for r in records})
    op_ns = sum(1e9 * r.seconds for r in records)
    out = {metric: (self_ns[span] / 1e6 / n, "ms") for metric, span in LAYER_TIMES.items()}
    steps = sum(r.steps for r in records)
    out["engine.us_per_step"] = (self_ns["engine.simulate"] / 1e3 / steps, "us")
    out["engine.stored_rows"] = (sum(r.stored_rows for r in records) / n, "count")
    out["engine.peak_alloc_mb"] = (tracer.alloc_probe.peak / 2 ** 20, "MB")
    out["attacks.series_bytes"] = (sum(r.attack_bytes for r in records) / n, "bytes")
    out["metrics.gamma_calls"] = (calls["metrics.gamma"] / n, "count")
    for name in ("design.baseline_radius_calls", "design.joint_radius_calls",
                 "design.grid_fallback_runs"):
        out[name] = (counts[name] / n, "count")
    out["trace.csv_bytes"] = (sum(r.csv_bytes for r in records) / n, "bytes")
    out["layers_accounted_frac"] = (sum(self_ns[s] for s in LAYER_TIMES.values()) / op_ns, "ratio")
    traced_wall = statistics.median(sum(r.seconds for r in p) for p in traced_passes)
    untraced_wall = statistics.median(sum(r.seconds for r in p) for p in untraced_passes)
    out["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out
