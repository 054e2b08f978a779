"""Directed communication graphs and their consensus-related spectral objects.

The convention throughout: ``adjacency[i, j] > 0`` means agent ``i`` receives
information from agent ``j`` (an edge j -> i). The weighted in-degree of agent
``i`` is the row sum ``h_i``, and the normalized Laplacian is
``(I + H)^-1 (H - A)`` with ``H = diag(h)``.
Reachability, reachable sets and the spanning-tree test all read one boolean
reachability closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_EIG_TOL = 1e-9
ROOT_SET_REL_TOL = 1e-9


class GraphError(ValueError):
    """Malformed graph, missing spanning tree, or failed spectral computation."""


@dataclass(frozen=True)
class DirectedGraph:
    """Weighted digraph over at least two agents. The diagonal is forced to zero."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"adjacency must be a square matrix, got shape {a.shape}")
        if a.shape[0] < 2:
            raise GraphError("a network needs at least 2 agents")
        if not np.isfinite(a).all():
            raise GraphError("edge weights must be finite")
        if (a < 0).any():
            raise GraphError("edge weights must be nonnegative")
        np.fill_diagonal(a, 0.0)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, n_agents: int, edges) -> "DirectedGraph":
        """Build from an edge list ``[[from, to, weight], ...]`` (0-based, weight optional)."""
        a = np.zeros((n_agents, n_agents))
        for e in edges:
            src, dst = int(e[0]), int(e[1])
            w = float(e[2]) if len(e) > 2 else 1.0
            if not (0 <= src < n_agents and 0 <= dst < n_agents):
                raise GraphError(f"edge {list(e)!r} out of range for {n_agents} agents")
            if src == dst:
                raise GraphError(f"self-loop {list(e)!r} is not allowed")
            a[dst, src] = w
        return cls(a)

    @property
    def n_agents(self) -> int:
        return self.adjacency.shape[0]

    @property
    def in_degrees(self) -> np.ndarray:
        """Weighted in-degrees h_i."""
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class GraphSpectrum:
    """Spectral data of the normalized Laplacian.

    ``left_eigvec_zero`` is the nonnegative left eigenvector of the zero
    eigenvalue normalized to unit sum, or None when the zero eigenvalue is
    repeated (no spanning tree); the root set is then empty.
    """

    laplacian: np.ndarray
    normalized_laplacian: np.ndarray
    eigenvalues: np.ndarray
    left_eigvec_zero: np.ndarray | None
    root_set: frozenset
    zero_multiplicity: int

    @property
    def has_simple_zero(self) -> bool:
        return self.zero_multiplicity == 1

    def nonzero_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.zero_multiplicity:]


def normalized_laplacian(g: DirectedGraph) -> GraphSpectrum:
    """Compute L, (I+H)^-1 L, its spectrum, and the zero-eigenvalue left eigenvector.

    The left eigenvector is obtained as the kernel vector of the transposed
    normalized Laplacian (via SVD) and scaled to unit sum, so the consensus
    value predicted for the nominal network is a weighted average of initial states.
    """
    a = g.adjacency
    h = g.in_degrees
    lap = np.diag(h) - a
    norm_lap = (1.0 / (1.0 + h))[:, None] * lap
    try:
        eigvals = np.linalg.eigvals(norm_lap)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise GraphError(f"eigen-solver failed on normalized Laplacian: {exc}") from exc

    scale = max(1.0, np.abs(eigvals).max())
    zero_mask = np.abs(eigvals) <= ZERO_EIG_TOL * scale
    zero_multiplicity = int(zero_mask.sum())
    order = np.lexsort((eigvals.imag, eigvals.real, ~zero_mask))
    eigvals = eigvals[order]

    left = None
    roots: frozenset = frozenset()
    if zero_multiplicity == 1:
        _, svals, vt = np.linalg.svd(norm_lap.T)
        kernel = vt[-1].real
        total = kernel.sum()
        if abs(total) < 1e-12:
            raise GraphError("degenerate kernel vector for the zero eigenvalue")
        kernel = kernel / total
        # eigen-solver noise on structurally-zero entries
        kernel[np.abs(kernel) < ROOT_SET_REL_TOL * np.abs(kernel).max()] = 0.0
        if (kernel < 0).any():
            raise GraphError("left eigenvector of the zero eigenvalue is not nonnegative")
        left = kernel / kernel.sum()
        left.setflags(write=False)
        roots = frozenset(np.nonzero(left > ROOT_SET_REL_TOL * left.max())[0].tolist())

    lap.setflags(write=False)
    norm_lap.setflags(write=False)
    eigvals.setflags(write=False)
    return GraphSpectrum(
        laplacian=lap,
        normalized_laplacian=norm_lap,
        eigenvalues=eigvals,
        left_eigvec_zero=left,
        root_set=roots,
        zero_multiplicity=zero_multiplicity,
    )


def _reach(g: DirectedGraph) -> np.ndarray:
    """Boolean closure: ``R[i, j]`` is True iff a path of length >= 1 leads from i to j.

    Repeated squaring, R <- R | R R, doubles the covered path length per
    product, so ceil(log2 N) products cover every simple path and cycle.
    """
    r = g.adjacency.T > 0
    for _ in range((g.n_agents - 1).bit_length()):
        f = r.astype(float)
        r = r | (f @ f > 0)
    return r


def _check_agents(g: DirectedGraph, *agents: int) -> None:
    if not all(0 <= a < g.n_agents for a in agents):
        raise GraphError(f"agent index out of range for {g.n_agents} agents")


def is_reachable(g: DirectedGraph, from_agent: int, to_agent: int) -> bool:
    """True iff a directed information path exists from ``from_agent`` to ``to_agent``."""
    _check_agents(g, from_agent, to_agent)
    return from_agent == to_agent or bool(_reach(g)[from_agent, to_agent])


def reachable_set(g: DirectedGraph, from_agent: int) -> frozenset:
    """All agents reachable from ``from_agent`` (excluding itself unless on a cycle)."""
    _check_agents(g, from_agent)
    return frozenset(np.nonzero(_reach(g)[from_agent])[0].tolist())


def has_spanning_tree(g: DirectedGraph) -> bool:
    """True iff some agent reaches every other agent through directed paths."""
    return bool((_reach(g) | np.eye(g.n_agents, dtype=bool)).all(axis=1).any())
