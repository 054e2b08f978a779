"""Simulation traces: stored time series, terminal summary, CSV/JSON emission."""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

TAIL_FRACTION = 0.1

SUMMARY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "name", "controller", "horizon", "steps_run", "n_agents", "state_dim",
        "input_dim", "diverged", "first_crossing_step", "growth_detected",
        "prediction", "prediction_matches_divergence", "tail", "final_state",
        "gains",
    ],
    "properties": {
        "name": {"type": "string"},
        "controller": {"type": "string", "enum": ["baseline", "resilient"]},
        "horizon": {"type": "integer", "minimum": 1},
        "steps_run": {"type": "integer", "minimum": 0},
        "n_agents": {"type": "integer", "minimum": 2},
        "state_dim": {"type": "integer", "minimum": 1},
        "input_dim": {"type": "integer", "minimum": 1},
        "diverged": {"type": "boolean"},
        "first_crossing_step": {"type": ["integer", "null"]},
        "growth_detected": {"type": "boolean"},
        "tail_slope": {"type": "number"},
        "prediction": {
            "type": "string",
            "enum": ["CONSENSUS", "BOUNDED_DEVIATION", "DESTABILIZE"],
        },
        "prediction_matches_divergence": {"type": "boolean"},
        "tail": {
            "type": "object",
            "required": ["gamma", "max_eps_intact", "consensus_err"],
            "properties": {
                "gamma": {"type": "number"},
                "max_eps_intact": {"type": "number"},
                "consensus_err": {"type": "number"},
                "max_state_norm": {"type": "number"},
            },
        },
        "final_state": {"type": "array", "items": {"type": "number"}},
        "gains": {
            "type": "object",
            "required": ["c", "theta"],
            "properties": {
                "c": {"type": "number"},
                "theta": {"type": "number"},
                "notes": {"type": "array", "items": {"type": "string"}},
            },
        },
        "attack_bound": {"type": "number"},
        "seed": {"type": ["integer", "null"]},
    },
}


@dataclass
class SimulationTrace:
    """Time-indexed record of a single scenario run.

    Stored arrays hold every ``stride``-th step k in [0, steps_run); the
    inf-norm series covers every step including the final state. ``f`` is the
    effective per-agent attack injection.
    """

    name: str
    controller: str
    horizon: int
    steps_run: int
    n_agents: int
    state_dim: int
    input_dim: int
    stride: int
    ks: np.ndarray
    x: np.ndarray
    x_c: np.ndarray
    x_hat: np.ndarray
    u: np.ndarray
    d: np.ndarray
    f: np.ndarray
    eps: np.ndarray
    eps_bar: np.ndarray
    gamma: np.ndarray
    consensus_err: np.ndarray
    inf_norms: np.ndarray
    final_x: np.ndarray
    final_x_hat: np.ndarray
    diverged: bool
    first_crossing: int | None
    growth_detected: bool
    tail_slope: float
    prediction: str
    intact_agents: tuple = ()
    gains: dict = field(default_factory=dict)
    seed: int | None = None
    attack_bound: float = 0.0

    def tail_slice(self, fraction: float = TAIL_FRACTION) -> slice:
        """Indices of stored steps inside the last ``fraction`` of the run."""
        cutoff = self.steps_run * (1.0 - fraction)
        start = int(np.searchsorted(self.ks, cutoff))
        return slice(min(start, max(len(self.ks) - 1, 0)), None)

    @property
    def prediction_matches_divergence(self) -> bool:
        return (self.prediction == "DESTABILIZE") == bool(self.diverged)

    def tail_consensus_error(self) -> float:
        return float(self.consensus_err[self.tail_slice()].max(initial=0.0))

    def tail_consensus_error_per_agent(self) -> np.ndarray:
        return self.consensus_err[self.tail_slice()].max(axis=0)

    def tail_gamma(self) -> float:
        return float(self.gamma[self.tail_slice()].max(initial=0.0))

    def tail_eps_intact(self) -> float:
        if not self.intact_agents:
            return 0.0
        block = self.eps[self.tail_slice()][:, list(self.intact_agents), :]
        return float(np.abs(block).max(initial=0.0))

    def to_summary(self) -> dict:
        tail = self.tail_slice()
        return {
            "name": self.name,
            "controller": self.controller,
            "horizon": int(self.horizon),
            "steps_run": int(self.steps_run),
            "n_agents": int(self.n_agents),
            "state_dim": int(self.state_dim),
            "input_dim": int(self.input_dim),
            "diverged": bool(self.diverged),
            "first_crossing_step": None if self.first_crossing is None else int(self.first_crossing),
            "growth_detected": bool(self.growth_detected),
            "tail_slope": float(self.tail_slope),
            "prediction": self.prediction,
            "prediction_matches_divergence": bool(self.prediction_matches_divergence),
            "tail": {
                "gamma": self.tail_gamma(),
                "max_eps_intact": self.tail_eps_intact(),
                "consensus_err": self.tail_consensus_error(),
                "max_state_norm": float(self.inf_norms[-max(1, int(TAIL_FRACTION * len(self.inf_norms))):].max()),
            },
            "final_state": [float(v) for v in self.final_x],
            "gains": self.gains,
            "attack_bound": float(self.attack_bound),
            "seed": self.seed,
        }


def _csv_header(trace: SimulationTrace) -> list:
    cols = ["k"]
    for label, dim in (("x", trace.state_dim), ("xhat", trace.state_dim),
                       ("u", trace.input_dim), ("d", trace.input_dim),
                       ("eps", trace.state_dim)):
        for a in range(trace.n_agents):
            for j in range(dim):
                cols.append(f"{label}_a{a}_{j}")
    cols.append("gamma")
    return cols


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-emit-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _rows(ks: np.ndarray, blocks) -> list:
    """One CSV line per step k: k, then each block's row flattened, as repr floats."""
    table = np.concatenate([b.reshape(len(ks), -1) for b in blocks], axis=1)
    return [",".join([str(k), *map(repr, row.tolist())]) for k, row in zip(ks.tolist(), table)]


def write_csv(trace: SimulationTrace, path: str) -> None:
    """One row per stored step, stable column order, shortest-roundtrip floats."""
    rows = _rows(trace.ks, (trace.x, trace.x_hat, trace.u, trace.d, trace.eps, trace.gamma))
    _atomic_write(path, ("\n".join([",".join(_csv_header(trace)), *rows]) + "\n").encode())


def write_summary(trace: SimulationTrace, path: str) -> None:
    payload = json.dumps(trace.to_summary(), sort_keys=True, indent=2) + "\n"
    _atomic_write(path, payload.encode())


def write_plot_data(trace: SimulationTrace, path: str, max_rows: int = 500) -> None:
    """Downsampled per-agent state magnitudes for external plotting."""
    idx = slice(None, None, max(1, len(trace.ks) // max_rows))
    header = ["k"] + [f"x_a{a}_norm" for a in range(trace.n_agents)] + ["gamma"]
    rows = _rows(trace.ks[idx], (np.abs(trace.x[idx]).max(axis=2), trace.gamma[idx]))
    _atomic_write(path, ("\n".join([",".join(header), *rows]) + "\n").encode())
