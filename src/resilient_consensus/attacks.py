"""Sensor/actuator attack signals, their generator dynamics, and classification.

Every signal is represented by linear exogenous dynamics f(j+1) = W f(j): a
constant is W = I, and a sinusoid is a 2x2 rotation read out through an
amplitude map. Classification and signal generation therefore share one code
path, and the eigenvalues used by the internal-model test are always eig(W).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LtiModel
from .graph import GraphError, GraphSpectrum

IMP_TOL = 1e-8


@dataclass(frozen=True)
class ExogenousSignal:
    """f(j) = output @ W^j f0 (output defaults to identity)."""

    W: np.ndarray
    f0: np.ndarray
    output: np.ndarray | None = None

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        f0 = np.asarray(self.f0, dtype=float).ravel()
        if W.shape[0] != W.shape[1] or W.shape[0] != f0.size:
            raise ValueError("W must be square and match f0")
        out = self.output
        if out is not None:
            out = np.atleast_2d(np.asarray(out, dtype=float))
            if out.shape[1] != W.shape[0]:
                raise ValueError("output map must have as many columns as W")
            out.setflags(write=False)
        W.setflags(write=False)
        f0.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "output", out)

    @property
    def dim(self) -> int:
        return self.f0.size if self.output is None else self.output.shape[0]


def constant_signal(value) -> ExogenousSignal:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return ExogenousSignal(W=np.eye(v.size), f0=v)


def sinusoid_signal(amplitude, omega: float, phase: float = 0.0) -> ExogenousSignal:
    """amplitude * sin(omega j + phase), elementwise over the amplitude vector.

    Encoded as the rotation W = [[cos w, sin w], [-sin w, cos w]] acting on
    [sin phase, cos phase], so eig(W) = exp(+-i omega).
    """
    amp = np.atleast_1d(np.asarray(amplitude, dtype=float))
    W = np.array([[np.cos(omega), np.sin(omega)],
                  [-np.sin(omega), np.cos(omega)]])
    f0 = np.array([np.sin(phase), np.cos(phase)])
    output = amp[:, None] @ np.array([[1.0, 0.0]])
    return ExogenousSignal(W=W, f0=f0, output=output)


@dataclass(frozen=True)
class AttackSpec:
    """One attack: which agent, which channel, what signal, and when it starts."""

    agent: int
    channel: str  # "actuator" | "sensor"
    signal: ExogenousSignal
    start_step: int = 0

    def __post_init__(self):
        if self.channel not in ("actuator", "sensor"):
            raise ValueError(f"unknown attack channel {self.channel!r}")
        if self.agent < 0:
            raise ValueError("agent index must be nonnegative")
        if self.start_step < 0:
            raise ValueError("start_step must be nonnegative")


def signal_series(spec: AttackSpec, length: int) -> np.ndarray:
    """Signal injected at k = 0..length-1, iterating the generator once.

    Rows before ``start_step`` are zero; row k >= start_step is the generator
    readout output @ W^(k - start_step) f0.
    """
    out = np.zeros((length, spec.signal.dim))
    if spec.start_step >= length:
        return out
    v = spec.signal.f0.copy()
    C = spec.signal.output
    W = spec.signal.W
    for k in range(spec.start_step, length):
        out[k] = v if C is None else C @ v
        v = W @ v
    return out


@dataclass(frozen=True)
class ImpClassification:
    """Internal-model verdict: IMP iff every generator eigenvalue matches one of A's."""

    lambda_W: tuple
    lambda_A: tuple
    verdict: str  # "IMP" | "non-IMP"
    matched_eigenvalues: tuple

    @property
    def is_imp(self) -> bool:
        return self.verdict == "IMP"


def classify_imp(spec: AttackSpec, model: LtiModel, tol: float = IMP_TOL) -> ImpClassification:
    lam_w = np.linalg.eigvals(spec.signal.W)
    lam_a = np.linalg.eigvals(model.A)
    matched = []
    all_matched = True
    for lw in lam_w:
        dist = np.abs(lam_a - lw).min()
        if dist <= tol:
            matched.append(complex(lw))
        else:
            all_matched = False
    return ImpClassification(
        lambda_W=tuple(complex(l) for l in lam_w),
        lambda_A=tuple(complex(l) for l in lam_a),
        verdict="IMP" if all_matched else "non-IMP",
        matched_eigenvalues=tuple(matched),
    )


def effective_injection(sensor, actuator, norm_lap: np.ndarray, c: float,
                        K: np.ndarray):
    """Per-agent injection f = (Lhat s)(-c K') + a over stacked series.

    ``sensor`` is (T, N, n) and ``actuator`` (T, N, m); either is None when
    that channel is unused. The sensor corruption propagates through the
    corrupted tracking error, the actuator signal enters directly. With no
    sensor series the actuator array itself is returned, uncopied, and with
    neither the result is None. The sensor term is the control law's
    c K eps = c K (-Lhat x) applied to s; ``engine._Law.gain`` evaluates the
    law through this function, so the product is written only here.
    """
    if sensor is None:
        return actuator
    f = (norm_lap @ sensor) @ (-c * K.T)
    if actuator is not None:
        f += actuator
    return f


def _injection_series(specs, model: LtiModel, spectrum: GraphSpectrum, ctrl,
                      length: int) -> np.ndarray:
    """``effective_injection`` of the attacks' ``signal_series`` for k < length."""
    n_agents = spectrum.normalized_laplacian.shape[0]
    series = {"sensor": np.zeros((length, n_agents, model.state_dim)),
              "actuator": np.zeros((length, n_agents, model.input_dim))}
    for spec in specs:
        out = series[spec.channel]
        if spec.signal.dim != out.shape[2]:
            raise ValueError(f"{spec.channel} attack on agent {spec.agent} has dimension "
                             f"{spec.signal.dim}, expected {out.shape[2]}")
        out[:, spec.agent] += signal_series(spec, length)
    return effective_injection(series["sensor"], series["actuator"],
                               spectrum.normalized_laplacian, ctrl.c, ctrl.K)


def effective_attack(specs, model: LtiModel, spectrum: GraphSpectrum, ctrl,
                     k: int) -> np.ndarray:
    """Overall per-agent injection f_i(k) entering through the input matrix.

    f_i = c (1+h_i)^-1 K sum_j a_ij (sensor_j - sensor_i) + actuator_i, with
    the signals read through ``signal_series`` and mapped by
    ``effective_injection``, as the engine does.
    """
    return _injection_series(specs, model, spectrum, ctrl, k + 1)[k]


def attack_projection(f_agents: np.ndarray, spectrum: GraphSpectrum) -> np.ndarray:
    """S(k) = sum_j p_j f_j(k), the root-directed component of the global attack."""
    if spectrum.left_eigvec_zero is None:
        raise GraphError("attack projection is undefined without a spanning tree")
    f = np.atleast_2d(np.asarray(f_agents, dtype=float))
    return spectrum.left_eigvec_zero @ f


def root_targeted(specs, model: LtiModel, spectrum: GraphSpectrum, ctrl,
                  probe_steps: int = 64, tol: float = 1e-12) -> bool:
    """True when sup_k ||S(k)|| is nonzero over a window where every attack is live."""
    specs = list(specs)
    if not specs:
        return False
    first_live = max(s.start_step for s in specs)
    window = _injection_series(specs, model, spectrum, ctrl, first_live + probe_steps)
    s = attack_projection(window[first_live:], spectrum)  # (probe_steps, m)
    return bool((np.linalg.norm(s, axis=1) > tol).any())
