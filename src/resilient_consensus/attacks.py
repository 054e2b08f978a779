"""Sensor/actuator attack signals and their generator dynamics.

Every signal is linear exogenous dynamics f(j+1) = W f(j) with a read-out: a
constant is W = I, and a sinusoid is a 2x2 rotation read out through an
amplitude map. A run's attacks stack into one time-invariant exosystem
g(k+1) = W g(k), the ``AttackGenerator``, and every attack quantity is a
linear read-out of g: the signals, the injection f, and the root-directed
projection S(k) = p'f(k). Whether such a read-out is zero at all is decided
exactly on ``AttackGenerator.window`` (Cayley-Hamilton), and
``metrics.destabilization_verdict`` tests growth on the Krylov space it spans.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import LtiModel
from .graph import GraphError, GraphSpectrum

ROOT_TARGET_TOL = 1e-12


@dataclass(frozen=True)
class ExogenousSignal:
    """f(j) = output @ W^j f0 (output is the identity when none is given)."""

    W: np.ndarray
    f0: np.ndarray
    output: np.ndarray | None = None

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=float))
        f0 = np.asarray(self.f0, dtype=float).ravel()
        if W.shape[0] != W.shape[1] or W.shape[0] != f0.size:
            raise ValueError("W must be square and match f0")
        out = np.atleast_2d(np.asarray(np.eye(f0.size) if self.output is None else self.output,
                                       dtype=float))
        if out.shape[1] != W.shape[0]:
            raise ValueError("output map must have as many columns as W")
        for a in (W, f0, out):
            a.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "output", out)

    @property
    def dim(self) -> int:
        return self.output.shape[0]


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
        out[k] = C @ v
        v = W @ v
    return out


class AttackGenerator:
    """Every attack of a run as one time-invariant exosystem g(k+1) = W g(k).

    W is block diagonal. Attack i's rows of g are zero before its start step
    ``starts[i]``, where they are set to its f0 (``g0``), so every signal is a
    read-out of g at its own step. ``readout`` (dim, N (n + m)) maps g into
    every agent's n sensor slots followed by its m actuator slots; a slot no
    attack writes reads zero. Construction raises ValueError for an agent out
    of range or a signal of the wrong width.
    """

    def __init__(self, specs, n_agents: int, state_dim: int, input_dim: int):
        specs = list(specs)
        self.g0 = np.array([v for s in specs for v in s.signal.f0], dtype=float)
        self.starts = np.array([s.start_step for s in specs for _ in s.signal.f0], dtype=int)
        size = len(self.g0)
        self.W = np.zeros((size, size))
        self.slots = (n_agents, state_dim + input_dim)
        self.readout = np.zeros((size, n_agents * (state_dim + input_dim)))
        agent_slots = self.readout.reshape(size, *self.slots)  # a view, (dim, N, n + m)
        self.state_dim = state_dim
        lo = 0
        for spec in specs:
            sig, width = spec.signal, state_dim if spec.channel == "sensor" else input_dim
            if spec.agent >= n_agents:
                raise ValueError(f"{spec.channel} attack on agent {spec.agent} is out of "
                                 f"range for {n_agents} agents")
            if sig.dim != width:
                raise ValueError(f"{spec.channel} attack on agent {spec.agent} has signal "
                                 f"dimension {sig.dim}, expected {width}")
            hi = lo + sig.f0.size
            self.W[lo:hi, lo:hi] = sig.W
            slot = 0 if spec.channel == "sensor" else state_dim
            agent_slots[lo:hi, spec.agent, slot:slot + width] = sig.output.T
            lo = hi

    def state(self, k: int) -> np.ndarray:
        """g(k): W^(k - s) applied to the f0 of the attacks that start at s, for
        each start s <= k; the rows of attacks that start later are zero."""
        g = np.zeros(len(self.g0))
        for s in set(self.starts[self.starts <= k].tolist()):
            g += np.linalg.matrix_power(self.W, k - s) @ np.where(self.starts == s, self.g0, 0.0)
        return g

    def window(self) -> np.ndarray:
        """g at the dim W steps from the last start on, one row a step. From there
        every attack is live and g only follows W, so by Cayley-Hamilton every
        later g is a combination of these rows, and a linear read-out that
        vanishes on them vanishes for good."""
        last = int(self.starts.max(initial=0))
        return np.reshape([self.state(last + j) for j in range(len(self.g0))], (len(self.g0),) * 2)

    def read(self, states: np.ndarray):
        """(sensor, actuator) signals (rows, N, n) and (rows, N, m) of ``states``
        (rows, dim), from one product with ``readout``."""
        out = (states @ self.readout).reshape(len(states), *self.slots)
        return out[..., :self.state_dim], out[..., self.state_dim:]


def effective_injection(sensor, actuator, norm_lap: np.ndarray, c: float,
                        K: np.ndarray):
    """Per-agent injection f = (Lhat s)(-c K') + a over stacked series.

    ``sensor`` is (T, N, n) and ``actuator`` (T, N, m), zero in the slots no
    attack writes, as ``AttackGenerator.read`` gives them. The sensor
    corruption propagates through the corrupted tracking error, the actuator
    signal enters directly. The sensor term is the control law's
    c K eps = c K (-Lhat x) applied to s; ``engine._Law.gain`` evaluates the
    law through this function with a = 0, so the product is written only here.
    """
    return (norm_lap @ sensor) @ (-c * K.T) + actuator


def effective_attack(specs, model: LtiModel, spectrum: GraphSpectrum, ctrl,
                     k: int) -> np.ndarray:
    """Overall per-agent injection f_i(k) entering through the input matrix.

    f_i = c (1+h_i)^-1 K sum_j a_ij (sensor_j - sensor_i) + actuator_i, with
    the signals read off the attacks' ``AttackGenerator`` at step k and
    mapped by ``effective_injection``, as the engine does.
    """
    lap = spectrum.normalized_laplacian
    gen = AttackGenerator(specs, lap.shape[0], model.state_dim, model.input_dim)
    return effective_injection(*gen.read(gen.state(k)[None]), lap, ctrl.c, ctrl.K)[0]


def attack_projection(f_agents: np.ndarray, spectrum: GraphSpectrum) -> np.ndarray:
    """S(k) = sum_j p_j f_j(k), the root-directed component of the global attack."""
    if spectrum.left_eigvec_zero is None:
        raise GraphError("attack projection is undefined without a spanning tree")
    f = np.atleast_2d(np.asarray(f_agents, dtype=float))
    return spectrum.left_eigvec_zero @ f


def root_targeted(specs, model: LtiModel, spectrum: GraphSpectrum, ctrl) -> bool:
    """True when S(k) = p' f(k) exceeds ROOT_TARGET_TOL at some step where every
    attack is live, decided exactly from ``AttackGenerator.window``."""
    lap = spectrum.normalized_laplacian
    gen = AttackGenerator(specs, lap.shape[0], model.state_dim, model.input_dim)
    f = effective_injection(*gen.read(gen.window()), lap, ctrl.c, ctrl.K)
    return bool((np.linalg.norm(attack_projection(f, spectrum), axis=1) > ROOT_TARGET_TOL).any())
