"""Feedback-gain synthesis via the discrete algebraic Riccati equation.

The standard DARE (A'PA - P - A'PB(R + B'PB)^-1 B'PA + Q = 0) is solved by
structured doubling, the one Riccati algorithm here; its stabilizing solution
P is positive definite for positive definite Q, which is what the gain
formula K = (R + B'PB)^-1 B'PA requires.

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

from .dynamics import STACK_ENTRIES, LtiModel, baseline_radius, block_spectra
from .graph import GraphSpectrum

JOINT_RADIUS_LIMIT = 0.98
THETA_FRACTIONS = (0.9, 0.7, 0.5, 0.35, 0.2)
# theta < THETA_BOUND keeps the compensator stable; derived in the module docstring
THETA_BOUND = 1.0 / np.sqrt(2.0)
COUPLING_GRID = np.linspace(0.02, 4.0, 200)
# distinct design inputs remembered by ``design_controller``, least recently used evicted
DESIGN_MEMO_SIZE = 64
# most doubling steps ``_dare_doubling`` takes before it gives up
DARE_ITERS = 120


class DesignError(RuntimeError):
    """Gain design failed (Riccati non-convergence or no stabilizing coupling)."""


@dataclass(frozen=True)
class ControllerConfig:
    """Designed consensus controller: gain K, coupling c, compensator parameter theta.

    ``T`` caches K'B'P1BK, which only ``coupling_range`` reads; the theta range
    is the constant THETA_BOUND.
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


def _dare_doubling(A, B, Q, R):
    # structured doubling: A_{k+1} = A_k W^-1 A_k, W = I + G_k H_k,
    # G_{k+1} = G_k + A_k W^-1 G_k A_k', H_{k+1} = H_k + A_k' H_k W^-1 A_k; H -> P
    n = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    Ak, Hk = A.copy(), Q.copy()
    eye = np.eye(n)
    for _ in range(DARE_ITERS):
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
    return None  # H_k still growing: no stabilizing solution


def solve_dare(A, B, Q1, R1) -> np.ndarray:
    """Stabilizing DARE solution by structured doubling.

    The doubling iteration (Lin & Xu 2006) converges quadratically, so a few
    dozen steps reach rounding level even where the closed loop is barely
    Schur. Raises DesignError when it does not converge, when R1 + B'PB is
    not positive definite, or when the residual exceeds 1e-11 of
    ||A'PA||_F + ||Q1||_F: a bound relative to P's scale, which an exact P of
    large norm meets and a P off by 1e-6 does not.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q1 = _as_weight(Q1, A.shape[0], "Q1")
    R1 = _as_weight(R1, B.shape[1], "R1")

    P = _dare_doubling(A, B, Q1, R1)
    if P is None:
        raise DesignError("Riccati doubling iteration did not converge")
    R_bar = R1 + B.T @ P @ B
    if np.linalg.eigvalsh(R_bar).min() <= 0:
        raise DesignError("R1 + B'PB is not positive definite")
    APA = A.T @ P @ A
    gain_term = A.T @ P @ B @ np.linalg.solve(R_bar, B.T @ P @ A)
    residual = np.linalg.norm(APA - P - gain_term + Q1, "fro")
    scale = np.linalg.norm(APA, "fro") + np.linalg.norm(Q1, "fro")
    if residual > 1e-11 * scale:
        raise DesignError(f"Riccati residual {residual:.3e} exceeds 1e-11 of its scale {scale:.3e}")
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


def joint_radius(model: LtiModel, spectrum: GraphSpectrum, K, c, theta: float):
    """Worst spectral radius of the plant+compensator error blocks: a float
    for a coupling c, an array for an array.

    For each nonzero Laplacian eigenvalue lam the resilient error dynamics
    reduce to the block [[A - c lam BK, -B], [theta c lam K, theta I]]; all of
    these must be Schur for the compensated network to converge. The zero
    eigenvalue block carries A's own (marginal) modes and is excluded, exactly
    as in the baseline gain condition.
    """
    spectra = block_spectra(model, spectrum.nonzero_eigenvalues(), K, c, theta)
    return np.abs(spectra).max(axis=(-2, -1), initial=0.0)[()]


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
    rng = coupling_range(spectrum, base)
    if c is not None and theta is not None:
        return replace(base, c=float(c), theta=float(theta),
                       notes=("c and theta supplied by configuration",))

    # candidate couplings, best first
    mid = rng.midpoint
    if c is not None:
        c_note, couplings = "c supplied by configuration", [float(c)]
    elif (not rng.is_empty and np.isfinite(mid)
          and baseline_radius(model, spectrum, K, mid) < 1.0):
        c_note, couplings = "c = midpoint of the analytic coupling interval", [float(mid)]
    else:
        if rng.is_empty:
            c_note = ("analytic coupling interval empty; grid fallback over "
                      f"({COUPLING_GRID[0]:g}, {COUPLING_GRID[-1]:g}] used")
        elif not np.isfinite(mid):
            c_note = "analytic coupling interval unbounded; grid fallback used"
        else:
            c_note = "analytic coupling midpoint not stabilizing; grid fallback used"
        ranked = sorted(zip(baseline_radius(model, spectrum, K, COUPLING_GRID).tolist(),
                            COUPLING_GRID.tolist()))
        couplings = [cv for radius, cv in ranked if radius < 1.0]
        if not couplings:
            raise DesignError("no coupling on the search grid makes A - c*lam*BK Schur")

    if theta is not None:  # c is a midpoint or grid coupling here, so A - c*lam*BK is Schur
        return replace(base, c=couplings[0], theta=float(theta),
                       notes=(c_note, "theta supplied by configuration"))
    # the first (theta, c), largest theta first, that keeps the joint blocks within
    # the margin; the candidates go a stack of joint blocks at a time, and the
    # search stops at the first stack that holds a pair
    size = model.state_dim + model.input_dim
    per = max(1, STACK_ENTRIES // (size ** 2 * max(len(spectrum.nonzero_eigenvalues()), 1)))
    for frac in THETA_FRACTIONS:
        th = float(frac * THETA_BOUND)
        for lo in range(0, len(couplings), per):
            chunk = couplings[lo:lo + per]
            fit = np.flatnonzero(joint_radius(model, spectrum, K, chunk, th) <= JOINT_RADIUS_LIMIT)
            if fit.size:
                return replace(base, c=chunk[fit[0]], theta=th, notes=(
                    c_note, f"theta = {frac:g} * theta_bound keeps compensator blocks Schur"))
    # last resort: best baseline coupling with the most conservative theta
    return replace(base, c=couplings[0], theta=float(THETA_FRACTIONS[-1] * THETA_BOUND),
                   notes=(c_note, "warning: no (c, theta) pair met the joint Schur margin"))
