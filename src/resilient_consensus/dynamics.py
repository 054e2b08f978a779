"""Agent dynamics x(k+1) = A x(k) + B u(k), closed-loop block spectra and prediction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, GraphSpectrum

MARGINAL_TOL = 1e-9
# most matrix entries one stacked eigvals call of ``block_spectra`` is given,
# which bounds its transient memory; longer stacks go in chunks
STACK_ENTRIES = 1 << 16


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


def block_spectra(model: LtiModel, eigenvalues, K, c, theta: float | None = None) -> np.ndarray:
    """Eigenvalues of A - c lam BK, shape c.shape + (len(eigenvalues), block
    size), for a coupling c or an array of them, and every Laplacian
    eigenvalue lam; with ``theta``, of the plant+compensator error blocks
    [[A - c lam BK, -B], [theta c lam K, theta I]], complex for every lam.

    A Schur triangularisation of Lhat makes I (x) A - c Lhat (x) BK block
    triangular with these blocks, so over every lam they are its spectrum,
    and with theta that of the compensated error dynamics. The blocks of all
    (c, lam) pairs go to ``np.linalg.eigvals`` in stacks of STACK_ENTRIES
    matrix entries.
    """
    n, m = model.state_dim, model.input_dim
    c, lam, BK = np.asarray(c, dtype=float), np.asarray(eigenvalues), model.B @ K
    c_lam = (c[..., None] * lam).ravel()
    if theta is not None:
        theta_c_lam = ((theta * c)[..., None] * lam).ravel()
    size, dtype = (n, np.result_type(c_lam, BK)) if theta is None else (n + m, complex)
    rows = max(1, STACK_ENTRIES // size ** 2)
    out = np.empty((c_lam.size, size), complex)
    for lo in range(0, c_lam.size, rows):
        chunk = slice(lo, lo + rows)
        blocks = np.empty((len(c_lam[chunk]), size, size), dtype)
        plant = blocks[:, :n, :n]  # A - c lam BK, formed in place
        np.subtract(model.A, np.multiply(c_lam[chunk, None, None], BK, out=plant), out=plant)
        if theta is not None:
            blocks[:, :n, n:], blocks[:, n:, n:] = -model.B, theta * np.eye(m)
            np.multiply(theta_c_lam[chunk, None, None], K, out=blocks[:, n:, :n])
        out[chunk] = np.linalg.eigvals(blocks)
    return out.reshape(c.shape + (lam.size, size))


def baseline_radius(model: LtiModel, spectrum: GraphSpectrum, K, c):
    """Worst spectral radius of A - c lam_i BK over nonzero Laplacian
    eigenvalues (0 if none): a float for a coupling c, an array for an array."""
    spectra = block_spectra(model, spectrum.nonzero_eigenvalues(), K, c)
    return np.abs(spectra).max(axis=(-2, -1), initial=0.0)[()]


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
