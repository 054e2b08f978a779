"""Agent dynamics x(k+1) = A x(k) + B u(k), closed-loop assembly and prediction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, GraphSpectrum

MARGINAL_TOL = 1e-9


@dataclass(frozen=True)
class LtiModel:
    """Shared (A, B) dynamics for every agent.

    Construction records the marginal/unstable eigenvalue set of A (|lambda|
    >= 1 - tol) and warns when (A, B) has an uncontrollable non-Schur mode.
    """

    A: np.ndarray
    B: np.ndarray
    marginal_eigenvalues: tuple = ()

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        B = np.atleast_2d(np.array(self.B, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError(f"B must have {A.shape[0]} rows, got {B.shape}")
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        eigs = np.linalg.eigvals(A)
        marginal = tuple(complex(l) for l in eigs if abs(l) >= 1.0 - MARGINAL_TOL)
        object.__setattr__(self, "marginal_eigenvalues", marginal)
        for lam in marginal:
            # PBH test: non-Schur modes must be controllable for any gain design
            pencil = np.hstack([lam * np.eye(A.shape[0]) - A, B])
            if np.linalg.matrix_rank(pencil, tol=1e-9) < A.shape[0]:
                warnings.warn(
                    f"(A, B) is not stabilizable: uncontrollable mode at {lam:.6g}",
                    stacklevel=2,
                )
                break

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ClosedLoopMatrix:
    """A_c = I_N (x) A - c Lhat (x) BK with its spectrum and the gain-design flag."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    coupling_schur: bool


def assemble_closed_loop(model: LtiModel, spectrum: GraphSpectrum, ctrl) -> ClosedLoopMatrix:
    """Build the global closed-loop matrix and check A - c*lam_i*BK Schur for i >= 2."""
    n_agents = spectrum.normalized_laplacian.shape[0]
    BK = model.B @ ctrl.K
    if BK.shape != (model.state_dim, model.state_dim):
        raise ValueError(f"gain K has incompatible shape {ctrl.K.shape}")
    a_c = np.kron(np.eye(n_agents), model.A) - ctrl.c * np.kron(spectrum.normalized_laplacian, BK)
    eigs = np.linalg.eigvals(a_c)
    schur = baseline_radius(model, spectrum, ctrl.K, ctrl.c) < 1.0
    return ClosedLoopMatrix(matrix=a_c, eigenvalues=eigs, coupling_schur=schur)


def baseline_radius(model: LtiModel, spectrum: GraphSpectrum, K, c: float) -> float:
    """Worst spectral radius of A - c lam_i BK over nonzero Laplacian eigenvalues (0 if none)."""
    BK = model.B @ K
    return max(
        (float(np.abs(np.linalg.eigvals(model.A - c * lam * BK)).max())
         for lam in spectrum.nonzero_eigenvalues()),
        default=0.0,
    )


@dataclass(frozen=True)
class ConsensusPrediction:
    """Attack-free asymptote k -> A^k (sum_i p_i x_i(0)), one vector per agent."""

    model: LtiModel
    weighted_initial: np.ndarray

    def value(self, k: int) -> np.ndarray:
        return np.linalg.matrix_power(self.model.A, k) @ self.weighted_initial

    def trajectory(self, horizon: int) -> np.ndarray:
        out = np.empty((horizon + 1, self.model.state_dim))
        v = self.weighted_initial.copy()
        out[0] = v
        for k in range(horizon):
            v = self.model.A @ v
            out[k + 1] = v
        return out


def predict_consensus_value(model: LtiModel, spectrum: GraphSpectrum, x0) -> ConsensusPrediction:
    """Consensus trajectory of the nominal network; requires a spanning tree."""
    if spectrum.left_eigvec_zero is None:
        raise GraphError("consensus prediction needs a simple zero eigenvalue (spanning tree)")
    n = model.state_dim
    X0 = np.asarray(x0, dtype=float).reshape(-1, n)
    if X0.shape[0] != spectrum.left_eigvec_zero.size:
        raise ValueError("x0 does not match the number of agents")
    weighted = spectrum.left_eigvec_zero @ X0
    return ConsensusPrediction(model=model, weighted_initial=weighted)
