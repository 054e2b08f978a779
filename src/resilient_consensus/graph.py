"""Directed communication graphs and their consensus-related spectral objects.

The convention throughout: ``adjacency[i, j] > 0`` means agent ``i`` receives
information from agent ``j`` (an edge j -> i). The weighted in-degree of agent
``i`` is the row sum ``h_i``, and the normalized Laplacian is
``(I + H)^-1 (H - A)`` with ``H = diag(h)``.
Reachability, reachable sets, the spanning-tree test and the root set come
from depth-first searches over edge lists, O(N + E) each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_EIG_TOL = 1e-9


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
        """Build from an edge list ``[[from, to, weight], ...]`` (0-based, weight optional).
        An agent count whose adjacency cannot be allocated raises GraphError."""
        try:
            a = np.zeros((n_agents, n_agents))
        except (ValueError, MemoryError) as exc:
            raise GraphError(f"the adjacency of {n_agents} agents cannot be allocated") from exc
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

    ``left_eigvec_zero`` is the zero eigenvalue's left eigenvector at unit sum:
    positive on ``root_set``, the agents that reach every agent, and exactly zero
    elsewhere. It is None, and the root set empty, when the zero is repeated.
    """

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

    A spanning tree counts only when the zero eigenvalue is simple. The roots R then
    come from graph searches (``_roots``), and p from the root-block solve
    ``p_R' L_RR = 0``, ``1'p_R = 1``, which weights the predicted consensus value.
    """
    h = g.in_degrees
    norm_lap = (1.0 / (1.0 + h))[:, None] * (np.diag(h) - g.adjacency)
    try:
        eigvals = np.linalg.eigvals(norm_lap)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise GraphError(f"eigen-solver failed on normalized Laplacian: {exc}") from exc

    scale = max(1.0, np.abs(eigvals).max())
    zero_mask = np.abs(eigvals) <= ZERO_EIG_TOL * scale
    zero_multiplicity = int(zero_mask.sum())
    order = np.lexsort((eigvals.imag, eigvals.real, ~zero_mask))
    eigvals = eigvals[order]

    left, roots = None, frozenset()
    if zero_multiplicity == 1:
        # no edge enters the roots R from outside, so p'L = 0 reads p_R' L_RR = 0
        # with p = 0 off R; the first of those equations gives way to 1'p_R = 1
        r = np.flatnonzero(_roots(g))
        system = norm_lap[np.ix_(r, r)].T
        system[0] = 1.0
        p_r = np.linalg.solve(system, np.eye(r.size)[0])
        if not (p_r > 0).all():
            raise GraphError("the root weights are ill-conditioned: a weight is not positive")
        left = np.zeros(g.n_agents)
        left[r] = p_r
        left.setflags(write=False)
        roots = frozenset(r.tolist())

    norm_lap.setflags(write=False)
    eigvals.setflags(write=False)
    return GraphSpectrum(
        normalized_laplacian=norm_lap,
        eigenvalues=eigvals,
        left_eigvec_zero=left,
        root_set=roots,
        zero_multiplicity=zero_multiplicity,
    )


def _lists(mask: np.ndarray) -> list:
    """Edge lists of a boolean matrix: for each row, the columns it is True in."""
    lists = [[] for _ in mask]
    rows, cols = np.nonzero(mask)
    for i, j in zip(rows.tolist(), cols.tolist()):
        lists[i].append(j)
    return lists


def _search(lists: list, start: int, seen: list | None = None) -> list:
    """Mark in ``seen`` (by default a list with none marked) every agent that
    a path of length >= 1 along the edge lists ``lists`` leads to from
    ``start``, and return it. A search, or several sharing ``seen``, expands
    each agent once: O(N + E)."""
    seen = [False] * len(lists) if seen is None else seen
    stack = [start]
    while stack:
        for v in lists[stack.pop()]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return seen


def _check_agents(g: DirectedGraph, *agents: int) -> None:
    if not all(0 <= a < g.n_agents for a in agents):
        raise GraphError(f"agent index out of range for {g.n_agents} agents")


def is_reachable(g: DirectedGraph, from_agent: int, to_agent: int) -> bool:
    """True iff a directed information path exists from ``from_agent`` to ``to_agent``."""
    _check_agents(g, from_agent, to_agent)
    return from_agent == to_agent or _search(_lists(g.adjacency.T > 0), from_agent)[to_agent]


def reachable_set(g: DirectedGraph, from_agent: int) -> frozenset:
    """All agents reachable from ``from_agent`` (excluding itself unless on a cycle)."""
    _check_agents(g, from_agent)
    return frozenset(np.flatnonzero(_search(_lists(g.adjacency.T > 0), from_agent)).tolist())


def _roots(g: DirectedGraph) -> np.ndarray:
    """Mask of the roots: the agents that reach every agent through directed paths.

    Searches from each agent not yet marked, in turn, share one mark list, so
    the marked agents stay closed under out-edges: a root marked before the
    last search would have marked its start ``last`` too. So if a root
    exists, ``last`` is one, and the roots are the agents that reach it.
    """
    out, seen = _lists(g.adjacency.T > 0), [False] * g.n_agents
    for v in range(g.n_agents):
        if not seen[v]:
            last, seen[v] = v, True
            _search(out, v, seen)
    only = [v == last for v in range(g.n_agents)]
    if not all(_search(out, last, list(only))):
        return np.zeros(g.n_agents, dtype=bool)
    return np.array(_search(_lists(g.adjacency > 0), last, only))


def has_spanning_tree(g: DirectedGraph) -> bool:
    """True iff some agent reaches every other agent through directed paths."""
    return bool(_roots(g).any())
