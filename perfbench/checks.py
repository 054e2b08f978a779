"""Output checks. Each returns failure messages instead of raising, so a run
counts wrong outputs rather than stopping at the first one."""

from __future__ import annotations

import io
import json

import numpy as np
from jsonschema import Draft202012Validator

from perfbench import oracle

FINAL_STATE_RTOL = 1e-9
PIN_RTOL = 1e-9


def _rel_err(actual, expected):
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.abs(expected).max(initial=0.0)), 1e-300)
    return float(np.abs(np.asarray(actual, dtype=float) - expected).max(initial=0.0)) / scale


def _close(label, actual, expected, rtol):
    err = _rel_err(actual, expected)
    return [] if err <= rtol else [f"{label}: relative error {err:.3g} exceeds {rtol:g}"]


VERDICT_FIELDS = ("prediction", "diverged", "prediction_matches_divergence", "steps_run",
                  "first_crossing")


def verdict_mismatch(trace, expected):
    """Fields of the verdict tuple that differ from ``expected``, a list over
    all VERDICT_FIELDS or a dict over some of them."""
    if expected is None:
        return ["no pinned verdict"]
    if not isinstance(expected, dict):
        expected = dict(zip(VERDICT_FIELDS, expected))
    actual = {f: getattr(trace, f) for f in expected}
    return [] if actual == expected else [f"verdict {actual} != expected {expected}"]


def csv_matches(csv_bytes, trace):
    """The emitted CSV parses back to exactly the stored trace arrays."""
    header, _, body = csv_bytes.partition(b"\n")
    S = len(trace.ks)
    expected = np.hstack([trace.ks.reshape(S, 1).astype(float)]
                         + [a.reshape(S, -1) for a in (trace.x, trace.x_hat, trace.u,
                                                       trace.d, trace.eps)]
                         + [trace.gamma.reshape(S, 1)])
    if len(header.split(b",")) != expected.shape[1]:
        return ["csv: header has the wrong number of columns"]
    parsed = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    if parsed.shape != expected.shape or not np.array_equal(parsed, expected):
        return ["csv: parsed values differ from the trace arrays"]
    return []


class Checker:
    """Checks every op's outputs against pins and independent references.

    The first run of each distinct input gets the full check; later runs of
    the same input must reproduce its emitted files byte for byte.
    """

    def __init__(self, pkg, pins):
        self.pins = pins
        self.presets = pkg.scenarios.MODEL_PRESETS
        self.summary_validator = Draft202012Validator(pkg.trace.SUMMARY_SCHEMA)
        self.seen = {}

    def check(self, op, result):
        files = (_read(result.summary_path), _read(result.csv_path))
        first = self.seen.get(op.key)
        if first is not None:
            prior_files, prior_ok = first
            if files != prior_files:
                return [f"{op.name}: emitted files differ from the first run of the same inputs"]
            return [] if prior_ok else [f"{op.name}: repeats a failed output"]
        failures = [f"{op.name}: {msg}" for msg in self._full_check(op, result, *files)]
        self.seen[op.key] = (files, not failures)
        return failures

    def _full_check(self, op, res, summary_bytes, csv_bytes):
        trace = res.trace
        pin = self.pins.get(op.expect.get("pins_from"), {})
        c, theta = trace.gains["c"], trace.gains["theta"]
        out = [] if res.spanning else ["has_spanning_tree returned False"]

        if "ramp_threshold" in op.expect:
            crossing, final = oracle.ramp_crossing(op.raw, self.presets, c, op.expect["ramp_threshold"])
            expected = ["DESTABILIZE", True, True, crossing, crossing]
            out += _close("final state vs analytic ramp", trace.final_x, final, FINAL_STATE_RTOL)
        else:
            expected = op.expect.get("verdict", pin.get("verdict"))
            ref_x, ref_xh = oracle.simulate_final(op.raw, self.presets, c, theta, trace.steps_run)
            out += _close("final state vs oracle", trace.final_x, ref_x, FINAL_STATE_RTOL)
            out += _close("final predictor state vs oracle", trace.final_x_hat, ref_xh,
                          FINAL_STATE_RTOL)
        out += verdict_mismatch(trace, expected)

        if "c" in pin:
            out += _close("c vs pin", c, pin["c"], PIN_RTOL)
            out += _close("theta vs pin", theta, pin["theta"], PIN_RTOL)
        if op.kind == "network":
            out += self._network_checks(op, res)
        if res.threshold is not None:
            if not (np.isfinite(res.threshold) and res.threshold > 0):
                out.append(f"consensus error threshold {res.threshold!r} is not finite and positive")
            if "threshold" in pin:
                out += _close("threshold vs pin", res.threshold, pin["threshold"], PIN_RTOL)

        summary = json.loads(summary_bytes)
        errors = [e.message for e in self.summary_validator.iter_errors(summary)]
        if errors:
            out.append("summary schema: " + "; ".join(errors))
        if summary != json.loads(json.dumps(trace.to_summary())):
            out.append("summary file differs from the trace")
        out += csv_matches(csv_bytes, trace)
        return out

    def _network_checks(self, op, res):
        a = oracle.adjacency(op.raw)
        out = []
        roots = oracle.root_set(a)
        if set(res.spectrum.root_set) != roots or roots != op.expect["roots"]:
            out.append(f"root set {sorted(res.spectrum.root_set)} != BFS oracle {sorted(roots)}")
        c, theta = res.trace.gains["c"], res.trace.gains["theta"]
        c_ref, theta_ref, ties = oracle.scalar_design(a)
        if not any(abs(c - t) <= PIN_RTOL * t for t in ties):
            out.append(f"c = {c!r}, design oracle chose {c_ref!r}")
        elif c == c_ref:
            out += _close("theta vs design oracle", theta, theta_ref, PIN_RTOL)
        out += _close("dtilde bound vs closed form", res.dbound,
                      oracle.scalar_dtilde(a, c, theta, res.trace.attack_bound), PIN_RTOL)
        return out


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()
