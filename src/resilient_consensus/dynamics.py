"""Agent dynamics x(k+1) = A x(k) + B u(k), closed-loop block spectra and prediction."""

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


def block_eigenvalues(model: LtiModel, eigenvalues, K, c: float, theta: float | None = None):
    """eig(A - c lam BK) for each Laplacian eigenvalue lam, one array per lam;
    with ``theta``, eig of the plant+compensator error block
    [[A - c lam BK, -B], [theta c lam K, theta I]] instead.

    A Schur triangularisation of Lhat makes I (x) A - c Lhat (x) BK block
    triangular with these blocks, so over every lam they are its spectrum,
    and with theta that of the compensated error dynamics.
    """
    n, BK = model.state_dim, model.B @ K
    if theta is not None:  # complex for every lam, so that a real spectrum takes the same solver
        joint = np.zeros((n + model.input_dim,) * 2, complex)
        joint[:n, n:], joint[n:, n:] = -model.B, theta * np.eye(model.input_dim)
    for lam in eigenvalues:
        block = model.A - c * lam * BK
        if theta is not None:
            joint[:n, :n], joint[n:, :n] = block, theta * c * lam * K
            block = joint
        yield np.linalg.eigvals(block)


def baseline_radius(model: LtiModel, spectrum: GraphSpectrum, K, c: float) -> float:
    """Worst spectral radius of A - c lam_i BK over nonzero Laplacian eigenvalues (0 if none)."""
    return max(
        (float(np.abs(eigs).max())
         for eigs in block_eigenvalues(model, spectrum.nonzero_eigenvalues(), K, c)),
        default=0.0,
    )


@dataclass(frozen=True)
class ConsensusPrediction:
    """Attack-free asymptote k -> A^k (sum_i p_i x_i(0)), one vector per agent."""

    model: LtiModel
    weighted_initial: np.ndarray

    def value(self, k: int) -> np.ndarray:
        return np.linalg.matrix_power(self.model.A, k) @ self.weighted_initial


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
