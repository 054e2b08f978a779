"""Diagnostic quantities: tracking errors, global performance, verdicts, bounds."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .attacks import ROOT_TARGET_TOL, AttackGenerator, effective_injection
from .design import joint_radius
from .dynamics import MARGINAL_TOL, LtiModel, baseline_radius, block_spectra
from .graph import DirectedGraph, GraphSpectrum

GROWTH_WINDOW_FRACTION = 0.2
GROWTH_REL_TOL = 0.05
GROWTH_CHUNK = 1 << 16
BYPASS_EPS_FLOOR = 1e-6
BYPASS_GAMMA_FLOOR = 0.1


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
    # summed one (S, edges) slice per state entry, since numpy reduces along
    # short rows slowly; the entries are added in the order a row sum adds them
    per_edge = None
    for coord in X.transpose(2, 0, 1):
        diff = coord[:, i] - coord[:, j]
        diff *= diff
        per_edge = diff if per_edge is None else np.add(per_edge, diff, out=per_edge)
    gamma = per_edge.sum(axis=1)
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
    lam_min = float(np.abs(block_spectra(model, spectrum.eigenvalues, ctrl.K, ctrl.c)).min())
    if lam_min < 1e-9:
        return None
    b_norm = float(np.linalg.norm(model.B, ord=2))
    return n_attacked * b_norm * attack_bound / lam_min


class Verdict(enum.Enum):
    CONSENSUS = "CONSENSUS"
    BOUNDED_DEVIATION = "BOUNDED_DEVIATION"
    DESTABILIZE = "DESTABILIZE"


def _invariant(Z: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the smallest Z-invariant subspace that holds the
    columns of ``start`` (Arnoldi). The nonzero columns are scaled to a largest
    entry of 1, and each vector, a start column or the image of a basis vector,
    is orthogonalized twice against the basis and dropped as rounding when what
    is left is at most ROOT_TARGET_TOL times max(||Z||, 1)."""
    basis, pending = np.zeros((len(Z), 0)), [v / np.abs(v).max() for v in start.T if v.any()]
    while pending and basis.shape[1] < len(Z):
        v = pending.pop(0)
        v = v - basis @ (basis.T @ v)
        v = v - basis @ (basis.T @ v)
        if np.linalg.norm(v) > ROOT_TARGET_TOL * max(np.linalg.norm(Z), 1.0):
            basis = np.column_stack([basis, v / np.linalg.norm(v)])
            pending.append(Z @ basis[:, -1])
    return basis


def _grows(model: LtiModel, W: np.ndarray, g: np.ndarray, M: np.ndarray, p: np.ndarray) -> bool:
    """Whether [c; f] grows without bound, where f = M'g for the generator
    g(j+1) = W g(j) with M (dim, N, m), and the common mode c(0) = 0 follows
    c(k+1) = A c(k) + B S(k) with S = p'f.

    S is scaled by the largest entry of the p-weighted injection it sums,
    sum_i p_i |M_i|. Scaling c leaves boundedness as it is, keeps a root of
    tiny weight p_i above the rounding, and leaves what cancels in S (all of
    it for a sensor attack, as p'Lhat = 0) at the rounding, below
    ``_invariant``'s tolerance. The generator is first cut to the modes f
    observes: the W'-invariant span V of M's columns, whose complement no
    read-out sees. Z = [[A, B S'V], [0, V'WV]] is then observed in full by
    [c; f], and the part of it that z0 = [0; V'g] excites is Z on the Krylov
    space of z0. That part is cyclic, so each of its eigenvalues has a single
    Jordan block, and [c; f] is bounded iff every eigenvalue has |mu| <= 1
    and none on the unit circle is repeated. A computed double eigenvalue
    splits by about the square root of the rounding, so marginal eigenvalues
    within sqrt(MARGINAL_TOL) of each other count as one."""
    n = model.state_dim
    S = p @ M / ((p @ np.abs(M)).max(initial=0.0) or 1.0)  # (dim, m)
    V = _invariant(W.T, M.reshape(len(g), -1))
    Z = np.zeros((n + V.shape[1],) * 2)
    Z[:n, :n], Z[:n, n:], Z[n:, n:] = model.A, model.B @ S.T @ V, V.T @ W @ V
    Q = _invariant(Z, np.concatenate([np.zeros(n), V.T @ g])[:, None])
    mu = np.linalg.eigvals(Q.T @ Z @ Q)
    mu = mu[np.abs(mu) >= 1.0 - MARGINAL_TOL]
    # every eigenvalue is within the tolerance of itself; one more pair is a repeat
    return bool((np.abs(mu) > 1.0 + MARGINAL_TOL).any()
                or (np.abs(mu[:, None] - mu) <= MARGINAL_TOL ** 0.5).sum() > len(mu))


def destabilization_verdict(specs, model: LtiModel, spectrum: GraphSpectrum, ctrl,
                            compensating: bool = False) -> Verdict:
    """DESTABILIZE when the run under the controller ``ctrl`` diverges,
    BOUNDED_DEVIATION when it stays bounded under a nonzero injection f, and
    CONSENSUS when f is zero at every step from the last attack's start on.

    The attacks stack into one ``AttackGenerator`` g(j+1) = W g(j), read from
    the last start on, where every attack is live, and f = M'g, with M read
    through ``effective_injection`` as the engine reads it. f is zero for good
    when its first dim W steps read at most ROOT_TARGET_TOL (Cayley-Hamilton),
    the rule that gives the run's ``intact_agents``.

    Since p'Lhat = 0, the common mode c = p'x follows
    c(k+1) = A c(k) + B S(k) - B p'd(k) with S = p'f, and p'd decays in a
    stable loop. A run whose loop is stable therefore diverges iff f grows or
    S drives a marginal mode of A into resonance (the internal-model principle),
    which is one growth test of [c; f] (``_grows``). With a leader p = e_0, and
    S = 0 since agent 0 cannot be attacked. Without a spanning tree p is
    undefined, and only f is tested.

    The loop is unstable, and the run diverges whatever the attack, when some
    block A - c lam BK of a nonzero Laplacian eigenvalue has spectral radius
    >= 1, or, when the run's compensator starts inside its horizon
    (``compensating``), the joint plant+compensator blocks do
    (``design.joint_radius`` >= 1).
    """
    lap = spectrum.normalized_laplacian
    gen = AttackGenerator(specs, lap.shape[0], model.state_dim, model.input_dim)
    last = int(gen.starts.max(initial=0))
    g, W = gen.state(last), gen.W
    M = effective_injection(*gen.read(np.eye(len(g)), last), lap, ctrl.c, ctrl.K)
    window = np.array([np.linalg.matrix_power(W, j) @ g for j in range(len(g))])
    live = bool(np.abs(window @ M.swapaxes(0, 1)).max(initial=0.0) > ROOT_TARGET_TOL)
    p = spectrum.left_eigvec_zero
    if (live and _grows(model, W, g, M, np.zeros(len(lap)) if p is None else p)
            or baseline_radius(model, spectrum, ctrl.K, ctrl.c) >= 1.0
            or compensating and joint_radius(model, spectrum, ctrl.K, ctrl.c, ctrl.theta) >= 1.0):
        return Verdict.DESTABILIZE
    return Verdict.BOUNDED_DEVIATION if live else Verdict.CONSENSUS


@dataclass(frozen=True)
class GrowthAnalysis:
    """Sustained-growth test and tail slope of the ||x(k)||_inf series."""

    growth_detected: bool
    tail_slope: float


def analyze_growth(inf_norms: np.ndarray) -> GrowthAnalysis:
    """Sustained growth and tail slope of a run's ||x(k)||_inf series.

    Growth is detected when the largest finite entry of the last 20% window
    exceeds that of the window before it by more than GROWTH_REL_TOL (relative
    to the larger of that maximum and 1): a linear ramp keeps growing window
    over window, while converging or steadily oscillating runs do not. The
    tail slope is the least-squares slope of the finite entries of the last
    half. A series of fewer than 10 entries shows neither. The magnitude
    crossing is not tested here: ``engine.simulate`` stops a run at its first
    step whose norm is non-finite or above the divergence threshold, and a run
    has diverged when it crossed there or when growth is detected here.
    """
    s = np.asarray(inf_norms, dtype=float)
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
    return GrowthAnalysis(growth_detected=growth, tail_slope=slope)


def _slope(y: np.ndarray) -> float:
    """Least-squares slope of the finite entries of ``y`` against their index
    (0.0 with fewer than two), from running sums over chunks. The index is
    centred on the middle of ``y``, which keeps the sums small. Above 1, ``y``
    is scaled down by the power of two of its largest finite |y|, which keeps
    the sums finite near the largest float: a power of two scales the fit
    exactly, so the slope is the one the unscaled sums give where they stay
    finite."""
    peak = 0.0
    for lo in range(0, y.size, GROWTH_CHUNK):
        seg = y[lo:lo + GROWTH_CHUNK]
        top = max(seg.max(initial=0.0), -seg.min(initial=0.0))
        if not np.isfinite(top):
            top = np.abs(seg).max(where=np.isfinite(seg), initial=0.0)
        peak = max(peak, float(top))
    scale = max(math.frexp(peak)[1], 0)
    factor = math.ldexp(1.0, -scale)
    count = sj = sy = sjj = sjy = 0.0
    mid = 0.5 * (y.size - 1)
    # one chunk's centred index, advanced a chunk at a time, and one work buffer
    # serve every chunk; the index stays exact, whole or half numbers below 2^52
    index = np.arange(min(y.size, GROWTH_CHUNK), dtype=float)
    index -= mid
    buffer = np.empty_like(index)
    for lo in range(0, y.size, GROWTH_CHUNK):
        if lo:
            index += GROWTH_CHUNK
        seg = y[lo:lo + GROWTH_CHUNK]
        j, work = index[:seg.size], buffer[:seg.size]
        finite = np.isfinite(seg)
        if not finite.all():
            j, seg = j[finite], seg[finite]
            work = work[:j.size]
        count += j.size
        sj += j.sum()
        # work holds j * j, then the scaled y, then its products with j
        sjj += np.multiply(j, j, out=work).sum()
        sy += np.multiply(seg, factor, out=work).sum()
        sjy += np.multiply(work, j, out=work).sum()
    if count < 2:
        return 0.0
    return float((count * sjy - sj * sy) / (count * sjj - sj * sj) / factor)


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


def hinf_bypass_report(trace) -> HinfBypassReport:
    """Energies and tail levels from a completed trace.

    Intact agents are the trace's ``intact_agents``: those whose effective
    injection f_i stayed identically zero over every step of the run, stored
    or not. The trace is ``bypassed`` when their tail |eps| is below
    BYPASS_EPS_FLOOR while the tail Gamma is above BYPASS_GAMMA_FLOOR.
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
        bypassed=bool(tail_eps < BYPASS_EPS_FLOOR and tail_gamma > BYPASS_GAMMA_FLOOR),
    )
