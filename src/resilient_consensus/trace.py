"""Simulation traces: stored time series, terminal summary, CSV/JSON emission."""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass, field

import numpy as np
import orjson

TAIL_FRACTION = 0.1
PLOT_MAX_ROWS = 500
# values formatted and written at a time (in whole rows), so that emission
# memory does not grow with the number of stored steps: a chunk's table and
# its text stay a few hundred KiB. Chunks of 2^11 or 2^13 floats wrote the
# bundled stride-1 CSVs about as fast, and chunks of 2^14 10-15 % slower.
CSV_CHUNK_FLOATS = 1 << 12

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
    x_hat: np.ndarray
    u: np.ndarray
    d: np.ndarray
    f: np.ndarray
    eps: np.ndarray
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

    def tail_slice(self) -> slice:
        """Indices of stored steps inside the last TAIL_FRACTION of the run."""
        cutoff = self.steps_run * (1.0 - TAIL_FRACTION)
        start = int(np.searchsorted(self.ks, cutoff))
        return slice(min(start, max(len(self.ks) - 1, 0)), None)

    @property
    def prediction_matches_divergence(self) -> bool:
        return (self.prediction == "DESTABILIZE") == bool(self.diverged)

    def tail_consensus_error(self) -> float:
        return float(self.consensus_err[self.tail_slice()].max(initial=0.0))

    def tail_consensus_error_per_agent(self) -> np.ndarray:
        return self.consensus_err[self.tail_slice()].max(axis=0, initial=0.0)

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


def _atomic_write(path: str, chunks) -> None:
    """Write the byte strings ``chunks`` to a temporary file beside ``path``,
    then replace ``path`` with it; on any failure ``path`` is left as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-emit-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(header: list, ks: np.ndarray, blocks):
    """The CSV header line, then one line per step k: k, then each block's row
    flattened, as repr floats; encoded about CSV_CHUNK_FLOATS values at a time.

    A chunk's steps and its table are each one ``orjson.dumps``. orjson formats
    floats with Ryu, which gives the shortest round-trip digits, the digits of
    ``repr``, and it writes zero, 1e-4 <= |v| < 1e16 and |v| < 1e-9 in repr's
    notation too. The other cells, 1e-9 <= |v| < 1e-4, |v| >= 1e16 and the
    non-finite ones, are dumped as NaN, which orjson writes as ``null``; their
    texts come from ``_repr_texts`` and take the place of the ``null``s in order.
    """
    yield (",".join(header) + "\n").encode()
    per_chunk = max(1, CSV_CHUNK_FLOATS // sum(int(np.prod(b.shape[1:])) for b in blocks))
    ks = np.ascontiguousarray(ks)  # orjson dumps only contiguous arrays
    for lo in range(0, len(ks), per_chunk):
        steps = orjson.dumps(ks[lo:lo + per_chunk], option=orjson.OPT_SERIALIZE_NUMPY)
        steps = steps[1:-1].split(b",")
        table = np.concatenate([b[lo:lo + len(steps)].reshape(len(steps), -1) for b in blocks],
                               axis=1, dtype=np.float64)
        size = np.abs(table)
        odd = ((size >= 1e-9) & (size < 1e-4)) | ~(size < 1e16)  # NaN is not < 1e16
        texts = []
        if odd.any():
            texts = _repr_texts(table[odd])
            table[odd] = np.nan
        rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
        body = b"\n".join(map(b",".join, zip(steps, rows))) + b"\n"
        if texts:
            pieces = body.split(b"null")
            texts.append(b"")
            body = b"".join([piece for pair in zip(pieces, texts) for piece in pair])
        yield body


# orjson's notation for 1e-5 <= |v| < 1e-4: 0.0000214, 0.00003
_FIFTH_DECIMAL = re.compile(rb"0\.0000(\d)(\d*)")


def _repr_texts(values: np.ndarray) -> list:
    """repr's text of each of ``values``, a 1-D array whose finite entries all
    lie in 1e-9 <= |v| < 1e-4 or at |v| >= 1e16, from one ``orjson.dumps``.
    orjson writes repr's digits there, so only its notation is rewritten:
    0.0000214 to 2.14e-05, 1e-7 to 1e-07 and 1e16 to 1e+16. Non-finite values,
    which orjson writes as ``null``, go through ``repr``."""
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    # every negative exponent here has one digit: -6 to -9
    text = text.replace(b"e", b"e+").replace(b"e+-", b"e-0")
    # 0.00003 becomes 3.e-05, then 3e-05
    text = _FIFTH_DECIMAL.sub(lambda m: b"%s.%se-05" % m.groups(), text).replace(b".e", b"e")
    texts = text.split(b",")
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = repr(float(values[i])).encode()
    return texts


def write_csv(trace: SimulationTrace, path: str) -> None:
    """One row per stored step, stable column order, shortest-roundtrip floats."""
    _atomic_write(path, _lines(_csv_header(trace), trace.ks, (
        trace.x, trace.x_hat, trace.u, trace.d, trace.eps, trace.gamma)))


def write_summary(trace: SimulationTrace, path: str) -> None:
    payload = json.dumps(trace.to_summary(), sort_keys=True, indent=2) + "\n"
    _atomic_write(path, [payload.encode()])


def write_plot_data(trace: SimulationTrace, path: str) -> None:
    """Per-agent state magnitudes for plotting, downsampled to PLOT_MAX_ROWS rows."""
    idx = slice(None, None, max(1, -(-len(trace.ks) // PLOT_MAX_ROWS)))  # ceil
    header = ["k"] + [f"x_a{a}_norm" for a in range(trace.n_agents)] + ["gamma"]
    _atomic_write(path, _lines(header, trace.ks[idx],
                               (np.abs(trace.x[idx]).max(axis=2), trace.gamma[idx])))
