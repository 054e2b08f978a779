"""Diagnostic quantities: tracking errors, global performance, verdicts, bounds."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec, classify_imp, signal_series
from .dynamics import LtiModel, block_eigenvalues
from .graph import DirectedGraph, GraphSpectrum

GROWTH_WINDOW_FRACTION = 0.2
GROWTH_REL_TOL = 0.05
GROWTH_CHUNK = 1 << 16


def tracking_error(x, spectrum: GraphSpectrum) -> np.ndarray:
    """Local neighborhood tracking error eps_i = (1+h_i)^-1 sum_j a_ij (x_j - x_i).

    ``x`` is the global state, flat or stacked (N, n); the result is (N, n).
    Passing corrupted measurements gives the eps_bar variant.
    """
    n_agents = spectrum.normalized_laplacian.shape[0]
    X = np.asarray(x, dtype=float).reshape(n_agents, -1)
    return -spectrum.normalized_laplacian @ X


def global_performance(x, graph: DirectedGraph) -> float | np.ndarray:
    """Gamma = sum_i sum_{j in N_i} ||x_i - x_j||^2 over ordered neighbor pairs.

    Bidirectional edges contribute twice, matching the double sum convention.
    A single state (flat or (N, n)) gives a float; a stack (S, N, n) gives
    one Gamma per state, shape (S,).
    """
    x = np.asarray(x, dtype=float)
    X = x if x.ndim == 3 else x.reshape(1, graph.n_agents, -1)
    i, j = np.nonzero(graph.adjacency > 0)
    diffs = X[:, i] - X[:, j]
    gamma = (diffs ** 2).sum(axis=2).sum(axis=1)
    return gamma if x.ndim == 3 else float(gamma[0])


def deviation_bound(model: LtiModel, spectrum: GraphSpectrum, ctrl,
                    n_attacked: int, attack_bound: float) -> float | None:
    """Attack-induced deviation term N_f ||B|| b_f / |lambda_min(A_c)|.

    A_c = I (x) A - c Lhat (x) BK; its smallest eigenvalue modulus is taken
    over the blocks A - c lam BK of every Laplacian eigenvalue lam, zero
    included. Returns None (undefined) when A_c has a near-zero eigenvalue,
    and 0.0 when no agent is attacked.
    """
    if n_attacked == 0:
        return 0.0
    lam_min = min(float(np.abs(eigs).min()) for eigs in
                  block_eigenvalues(model, spectrum.eigenvalues, ctrl.K, ctrl.c))
    if lam_min < 1e-9:
        return None
    b_norm = float(np.linalg.norm(model.B, ord=2))
    return n_attacked * b_norm * attack_bound / lam_min


class Verdict(enum.Enum):
    CONSENSUS = "CONSENSUS"
    BOUNDED_DEVIATION = "BOUNDED_DEVIATION"
    DESTABILIZE = "DESTABILIZE"


def _signal_is_nonzero(spec: AttackSpec, probe: int = 16) -> bool:
    series = signal_series(spec, spec.start_step + probe)
    return bool(np.abs(series).max() > 1e-12)


def destabilization_verdict(specs, model: LtiModel, spectrum: GraphSpectrum) -> Verdict:
    """Predicts DESTABILIZE iff some IMP-classified attack excites a root node.

    Sensor attacks enter the network through the Laplacian, whose left kernel
    is exactly the root eigenvector, so their projection S(k) vanishes
    identically; only actuator attacks can be root-directed.
    """
    specs = [s for s in specs if _signal_is_nonzero(s)]
    if not specs:
        return Verdict.CONSENSUS
    for spec in specs:
        if spec.channel != "actuator":
            continue
        if spec.agent in spectrum.root_set and classify_imp(spec, model).is_imp:
            return Verdict.DESTABILIZE
    return Verdict.BOUNDED_DEVIATION


@dataclass(frozen=True)
class GrowthAnalysis:
    """Empirical divergence decision from the ||x(k)||_inf series."""

    diverged: bool
    first_crossing: int | None
    growth_detected: bool
    tail_slope: float


def analyze_growth(inf_norms: np.ndarray, magnitude_threshold: float = 1e9) -> GrowthAnalysis:
    """Magnitude guard plus sustained-growth detection on windowed maxima.

    A run is divergent when the state norm crosses the magnitude threshold
    (or went non-finite upstream), or when the last two 20% windows show a
    sustained relative increase: a linear ramp keeps growing window over
    window, while converging or steadily oscillating runs do not. The tail
    slope is the least-squares slope of the finite entries of the last half.
    Long series are scanned in chunks of GROWTH_CHUNK entries, so that no
    temporary grows with the series.
    """
    s = np.asarray(inf_norms, dtype=float)
    crossing = None
    for lo in range(0, s.size, GROWTH_CHUNK):
        seg = s[lo:lo + GROWTH_CHUNK]
        within = np.isfinite(seg) & (seg <= magnitude_threshold)
        if not within.all():
            crossing = lo + int(within.argmin())
            break
    growth = False
    slope = 0.0
    T = s.size
    w = max(2, int(GROWTH_WINDOW_FRACTION * T))
    if T >= 10:
        w1 = s[T - 2 * w:T - w]
        w2 = s[T - w:]
        m1 = float(np.max(w1, where=np.isfinite(w1), initial=0.0))
        m2 = float(np.max(w2, where=np.isfinite(w2), initial=0.0))
        growth = (m2 - m1) > GROWTH_REL_TOL * max(m1, 1.0)
        slope = _slope(s[T - T // 2:])
    return GrowthAnalysis(
        diverged=bool(crossing is not None or growth),
        first_crossing=crossing,
        growth_detected=growth,
        tail_slope=slope,
    )


def _slope(y: np.ndarray) -> float:
    """Least-squares slope of the finite entries of ``y`` against their index
    (0.0 with fewer than two), from running sums over chunks. The index is
    centred on the middle of ``y``, which keeps the sums small."""
    count = sj = sy = sjj = sjy = 0.0
    mid = 0.5 * (y.size - 1)
    for lo in range(0, y.size, GROWTH_CHUNK):
        seg = y[lo:lo + GROWTH_CHUNK]
        j = np.arange(lo, lo + seg.size, dtype=float) - mid
        finite = np.isfinite(seg)
        if not finite.all():
            j, seg = j[finite], seg[finite]
        count += j.size
        sj += j.sum()
        sy += seg.sum()
        sjj += (j * j).sum()
        sjy += (j * seg).sum()
    if count < 2:
        return 0.0
    return float((count * sjy - sj * sy) / (count * sjj - sj * sj))


@dataclass(frozen=True)
class HinfBypassReport:
    """Dissociation between local tracking error and global disagreement.

    An attacker whose signal leaves every intact agent's tracking error at
    zero while the network disagrees defeats any scheme that attenuates the
    tracking error, which is what the L2-gain condition weighs.
    """

    intact_agents: tuple
    eps_energy_intact: float
    eps_energy_total: float
    attack_energy: float
    tail_eps_intact: float
    tail_gamma: float
    bypassed: bool


def hinf_bypass_report(trace, eps_floor: float = 1e-6, gamma_floor: float = 0.1) -> HinfBypassReport:
    """Energies and tail levels from a completed trace.

    Intact agents are the trace's ``intact_agents``: those whose effective
    injection f_i stayed identically zero over every step of the run, stored
    or not.
    """
    f = trace.f  # (S, N, m)
    intact = trace.intact_agents
    eps = trace.eps  # (S, N, n)
    energy_total = float((eps ** 2).sum())
    energy_intact = float((eps[:, list(intact), :] ** 2).sum()) if intact else 0.0
    attack_energy = float((f ** 2).sum())
    tail_eps = trace.tail_eps_intact()
    tail_gamma = trace.tail_gamma()
    return HinfBypassReport(
        intact_agents=intact,
        eps_energy_intact=energy_intact,
        eps_energy_total=energy_total,
        attack_energy=attack_energy,
        tail_eps_intact=tail_eps,
        tail_gamma=tail_gamma,
        bypassed=bool(tail_eps < eps_floor and tail_gamma > gamma_floor),
    )
