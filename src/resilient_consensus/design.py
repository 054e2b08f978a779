"""Feedback-gain synthesis via the discrete algebraic Riccati equation.

The standard DARE is solved (A'PA - P - A'PB(R + B'PB)^-1 B'PA + Q = 0); its
stabilizing solution P is positive definite for positive definite Q, which is
what the gain formula K = (R + B'PB)^-1 B'PA requires.

The compensator parameter theta must stay below 1/sqrt(2 + lam_min), lam_min
the smallest real part in the spectrum of c Lhat (x) B'P1B R1_bar^-1: the
products c lam_i mu_j of the eigenvalues of Lhat and of B'P1B R1_bar^-1. That
minimum is exactly 0, so the bound is the constant THETA_BOUND = 1/sqrt(2):
- lam_1 = 0, since Lhat 1 = 0;
- Re lam_i >= 0 by Gershgorin: row i of Lhat = (I+H)^-1 L has centre and
  radius h_i/(1+h_i);
- the mu_j are real and >= 0: B'P1B R1_bar^-1 is similar to
  R1_bar^-1/2 B'P1B R1_bar^-1/2, positive semidefinite for symmetric weights,
  which ``_as_weight`` requires;
- c > 0, which ``design_controller`` enforces.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import LtiModel, baseline_radius
from .graph import GraphSpectrum

DARE_TOL = 1e-12
DARE_MAX_ITER = 10_000
JOINT_RADIUS_LIMIT = 0.98
THETA_FRACTIONS = (0.9, 0.7, 0.5, 0.35, 0.2)
# theta < THETA_BOUND keeps the compensator stable; derived in the module docstring
THETA_BOUND = 1.0 / np.sqrt(2.0)
COUPLING_GRID = np.linspace(0.02, 4.0, 200)
# distinct design inputs remembered by ``design_controller``, least recently used evicted
DESIGN_MEMO_SIZE = 64


class DesignError(RuntimeError):
    """Gain design failed (Riccati non-convergence or no stabilizing coupling)."""


@dataclass(frozen=True)
class ControllerConfig:
    """Designed consensus controller: gain K, coupling c, compensator parameter theta.

    ``T`` caches K'B'P1BK, used by the analytic coupling and theta ranges.
    ``notes`` records how c and theta were selected.
    """

    K: np.ndarray
    c: float
    P1: np.ndarray
    Q1: np.ndarray
    R1: np.ndarray
    R1_bar: np.ndarray
    theta: float
    T: np.ndarray
    notes: tuple = field(default_factory=tuple)


def _as_weight(value, dim: int, name: str) -> np.ndarray:
    if value is None:
        return np.eye(dim)
    w = np.array(value, dtype=float)  # a copy: the caller may change its array later
    if w.ndim == 0:
        w = float(w) * np.eye(dim)
    if w.shape != (dim, dim):
        raise ValueError(f"{name} must be a scalar or {dim}x{dim} matrix")
    if not np.isfinite(w).all():
        raise ValueError(f"{name} must be finite")
    if np.abs(w - w.T).max() > 1e-12 * np.abs(w).max():
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(w).min() <= 0:
        raise ValueError(f"{name} must be positive definite")
    return w


def _dare_residual(A, B, Q, R, P) -> float:
    gain_term = A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return float(np.linalg.norm(A.T @ P @ A - P - gain_term + Q, ord="fro"))


def _dare_fixed_point(A, B, Q, R, tol, max_iter):
    P = Q.copy()
    for _ in range(max_iter):
        R_bar = R + B.T @ P @ B
        P_next = A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R_bar, B.T @ P @ A) + Q
        P_next = 0.5 * (P_next + P_next.T)
        if np.linalg.norm(P_next - P, ord="fro") <= tol * max(1.0, np.linalg.norm(P_next, "fro")):
            return P_next
        P = P_next
    return None


def _dare_doubling(A, B, Q, R, iters=120):
    # structured doubling: A_{k+1} = A_k W^-1 A_k, W = I + G_k H_k,
    # G_{k+1} = G_k + A_k W^-1 G_k A_k', H_{k+1} = H_k + A_k' H_k W^-1 A_k; H -> P
    n = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    Ak, Hk = A.copy(), Q.copy()
    eye = np.eye(n)
    for _ in range(iters):
        W = eye + G @ Hk
        try:
            W_inv_A = np.linalg.solve(W, Ak)
            W_inv_G = np.linalg.solve(W, G)
        except np.linalg.LinAlgError:
            return None
        H_next = Hk + Ak.T @ Hk @ W_inv_A
        G = G + Ak @ W_inv_G @ Ak.T
        Ak = Ak @ W_inv_A
        H_next = 0.5 * (H_next + H_next.T)
        if np.linalg.norm(H_next - Hk, "fro") <= 1e-15 * max(1.0, np.linalg.norm(H_next, "fro")):
            return H_next
        Hk = H_next
    return Hk


def solve_dare(A, B, Q1, R1, tol: float = DARE_TOL, max_iter: int = DARE_MAX_ITER) -> np.ndarray:
    """Stabilizing DARE solution by fixed-point iteration with a doubling fallback.

    Raises DesignError when neither route reaches the requested residual, or
    when R1 + B'PB fails to be positive definite along the way.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q1 = _as_weight(Q1, A.shape[0], "Q1")
    R1 = _as_weight(R1, B.shape[1], "R1")

    P = _dare_fixed_point(A, B, Q1, R1, tol, max_iter)
    if P is None:
        P = _dare_doubling(A, B, Q1, R1)
    if P is None:
        raise DesignError("Riccati iteration did not converge and doubling fallback failed")
    r_bar_eigs = np.linalg.eigvalsh(R1 + B.T @ P @ B)
    if r_bar_eigs.min() <= 0:
        raise DesignError("R1 + B'PB is not positive definite")
    residual = _dare_residual(A, B, Q1, R1, P)
    if residual > 1e-8:
        raise DesignError(f"Riccati residual {residual:.3e} exceeds tolerance")
    return P


def design_gain(model: LtiModel, Q1=None, R1=None):
    """Return (K, P1, R1_bar) with K = (R1 + B'P1B)^-1 B'P1A."""
    Q1 = _as_weight(Q1, model.state_dim, "Q1")
    R1 = _as_weight(R1, model.input_dim, "R1")
    P1 = solve_dare(model.A, model.B, Q1, R1)
    R1_bar = R1 + model.B.T @ P1 @ model.B
    K = np.linalg.solve(R1_bar, model.B.T @ P1 @ model.A)
    return K, P1, R1_bar


@dataclass(frozen=True)
class CouplingRange:
    """Open interval (c_lo, c_hi) from the compensator stability analysis."""

    c_lo: float
    c_hi: float

    @property
    def is_empty(self) -> bool:
        return not (self.c_lo < self.c_hi)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.c_lo + self.c_hi)


def coupling_range(spectrum: GraphSpectrum, ctrl) -> CouplingRange:
    """The interval 2/lam_m < c < 1/(lam_m sqrt(2 lam_min(T Q1^-1))).

    lam_m is the smallest real part among nonzero Laplacian eigenvalues. When
    T = K'B'P1BK is rank-deficient (fewer inputs than states), lam_min is 0
    and the interval is unbounded above. The interval is frequently empty for
    ordinary designs; callers fall back to a stabilizing line search in that
    case.
    """
    nz = spectrum.nonzero_eigenvalues()
    if nz.size == 0:
        raise DesignError("graph has no nonzero Laplacian eigenvalues")
    lam_m = float(nz.real.min())
    if lam_m <= 1e-12:
        raise DesignError("minimum nonzero Laplacian eigenvalue is not positive")
    if np.linalg.matrix_rank(ctrl.T) < ctrl.T.shape[0]:
        lam_min_tq = 0.0  # eig returns the exact zero of a singular T Q1^-1 as rounding noise
    else:
        lam_min_tq = float(np.linalg.eigvals(ctrl.T @ np.linalg.inv(ctrl.Q1)).real.min())
    lo = 2.0 / lam_m
    hi = np.inf if lam_min_tq <= 0 else 1.0 / (lam_m * np.sqrt(2.0 * lam_min_tq))
    return CouplingRange(c_lo=lo, c_hi=hi)


def joint_radius(model: LtiModel, spectrum: GraphSpectrum, K, c: float, theta: float) -> float:
    """Worst spectral radius of the plant+compensator error blocks.

    For each nonzero Laplacian eigenvalue lam the resilient error dynamics
    reduce to the block [[A - c lam BK, -B], [theta c lam K, theta I]]; all of
    these must be Schur for the compensated network to converge. The zero
    eigenvalue block carries A's own (marginal) modes and is excluded, exactly
    as in the baseline gain condition.
    """
    m = model.input_dim
    worst = 0.0
    for lam in spectrum.nonzero_eigenvalues():
        top = np.hstack([model.A - c * lam * model.B @ K, -model.B]).astype(complex)
        bot = np.hstack([theta * c * lam * K, theta * np.eye(m)]).astype(complex)
        worst = max(worst, float(np.abs(np.linalg.eigvals(np.vstack([top, bot]))).max()))
    return worst


_designs: OrderedDict = OrderedDict()
_designs_lock = threading.Lock()


def _fingerprint(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def design_controller(model: LtiModel, spectrum: GraphSpectrum, Q1=None, R1=None,
                      c: float | None = None, theta: float | None = None) -> ControllerConfig:
    """Full controller synthesis with defaulted coupling and compensator parameter.

    Coupling default: the analytic-interval midpoint when that interval is
    nonempty and stabilizing, otherwise a grid search. Candidate couplings are
    ranked by the baseline spectral radius, and the pair (c, theta) must also
    keep the plant+compensator error blocks Schur; theta starts at 0.9 of
    THETA_BOUND and backs off when the joint blocks demand it. A supplied
    c <= 0 is a ValueError.

    The synthesis runs once per distinct (A, B, Q1, R1, nonzero Laplacian
    eigenvalues, c, theta), compared bit for bit; equal inputs return the
    same ``ControllerConfig``, whose arrays are read-only because every such
    caller shares them (vary it with ``dataclasses.replace``). The last
    ``DESIGN_MEMO_SIZE`` inputs are remembered; a DesignError is raised
    afresh on every call.
    """
    if c is not None and not c > 0:
        raise ValueError(f"coupling c must be positive, got {c!r}")
    Q1 = _as_weight(Q1, model.state_dim, "Q1")
    R1 = _as_weight(R1, model.input_dim, "R1")
    key = (_fingerprint(model.A), _fingerprint(model.B), _fingerprint(Q1), _fingerprint(R1),
           _fingerprint(spectrum.nonzero_eigenvalues()),
           None if c is None else float(c), None if theta is None else float(theta))
    with _designs_lock:
        ctrl = _designs.get(key)
        if ctrl is not None:
            _designs.move_to_end(key)
            return ctrl
    ctrl = _synthesize(model, spectrum, Q1, R1, c, theta)
    for a in (ctrl.K, ctrl.P1, ctrl.Q1, ctrl.R1, ctrl.R1_bar, ctrl.T):
        a.setflags(write=False)
    with _designs_lock:
        _designs[key] = ctrl
        if len(_designs) > DESIGN_MEMO_SIZE:
            _designs.popitem(last=False)
    return ctrl


def _synthesize(model: LtiModel, spectrum: GraphSpectrum, Q1, R1, c, theta) -> ControllerConfig:
    """The body of ``design_controller`` for checked weights, run on a memo miss."""
    K, P1, R1_bar = design_gain(model, Q1, R1)
    T = K.T @ model.B.T @ P1 @ model.B @ K
    base = ControllerConfig(K=K, c=1.0, P1=P1, Q1=Q1, R1=R1, R1_bar=R1_bar, theta=0.5, T=T)
    notes = []
    rng_analytic = coupling_range(spectrum, base)

    if c is not None and theta is not None:
        chosen_c, chosen_theta = float(c), float(theta)
        notes.append("c and theta supplied by configuration")
    else:
        midpoint_ok = (
            not rng_analytic.is_empty
            and np.isfinite(rng_analytic.midpoint)
            and baseline_radius(model, spectrum, K, rng_analytic.midpoint) < 1.0
        )
        if c is not None:
            candidates = [(baseline_radius(model, spectrum, K, float(c)), float(c))]
            notes.append("c supplied by configuration")
        elif midpoint_ok:
            candidates = [(baseline_radius(model, spectrum, K, rng_analytic.midpoint), rng_analytic.midpoint)]
            notes.append("c = midpoint of the analytic coupling interval")
        else:
            if rng_analytic.is_empty:
                notes.append(
                    "analytic coupling interval empty; grid fallback over "
                    f"({COUPLING_GRID[0]:g}, {COUPLING_GRID[-1]:g}] used"
                )
            elif not np.isfinite(rng_analytic.midpoint):
                notes.append("analytic coupling interval unbounded; grid fallback used")
            else:
                notes.append("analytic coupling midpoint not stabilizing; grid fallback used")
            candidates = sorted(
                (baseline_radius(model, spectrum, K, cv), float(cv)) for cv in COUPLING_GRID
            )
            candidates = [(r, cv) for r, cv in candidates if r < 1.0]
            if not candidates:
                raise DesignError("no coupling on the search grid makes A - c*lam*BK Schur")

        chosen_c = chosen_theta = None
        if theta is not None:
            for radius, cv in candidates:
                if radius < 1.0:
                    chosen_c, chosen_theta = cv, float(theta)
                    notes.append("theta supplied by configuration")
                    break
        else:
            for frac in THETA_FRACTIONS:
                th = frac * THETA_BOUND
                for radius, cv in candidates:
                    if joint_radius(model, spectrum, K, cv, th) <= JOINT_RADIUS_LIMIT:
                        chosen_c, chosen_theta = cv, th
                        notes.append(f"theta = {frac:g} * theta_bound keeps compensator blocks Schur")
                        break
                if chosen_c is not None:
                    break
            if chosen_c is None:
                # last resort: best baseline coupling with the most conservative theta
                radius, cv = candidates[0]
                chosen_c, chosen_theta = cv, THETA_FRACTIONS[-1] * THETA_BOUND
                notes.append("warning: no (c, theta) pair met the joint Schur margin")
        if chosen_c is None:
            raise DesignError("no stabilizing coupling found")

    return replace(base, c=float(chosen_c), theta=float(chosen_theta), notes=tuple(notes))
