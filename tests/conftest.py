import numpy as np
import pytest

from resilient_consensus import (DirectedGraph, LtiModel, design, design_controller,
                                 normalized_laplacian)


@pytest.fixture
def example1_graph():
    # 4 agents, unit weights: edges 1->0, 0->1, 1->2, 0->3 (0-based)
    return DirectedGraph.from_edges(4, [[1, 0], [0, 1], [1, 2], [0, 3]])


@pytest.fixture
def example1_spectrum(example1_graph):
    return normalized_laplacian(example1_graph)


@pytest.fixture
def chain5_graph():
    # followers of the bundled 5-agent topology: 1 is the sole root
    return DirectedGraph.from_edges(5, [[1, 0], [1, 2], [2, 3], [3, 4]])


@pytest.fixture
def integrator():
    return LtiModel(A=[[1.0]], B=[[1.0]])


@pytest.fixture
def rotation2d():
    return LtiModel(A=[[0.0, -1.0], [1.0, 0.0]], B=[[0.0], [1.0]])


@pytest.fixture
def auv_model():
    return LtiModel(
        A=[[0.65, 0.54, 0.0, -0.0019],
           [0.21, 1.48, 0.0, -0.01],
           [0.83, 0.84, 1.0, 0.99],
           [0.11, 1.21, 0.0, 0.99]],
        B=[[0.08, 0.13],
           [-0.13, 0.20],
           [0.02, 0.09],
           [-0.07, 0.09]],
    )


@pytest.fixture
def example1_ctrl(integrator, example1_spectrum):
    return design_controller(integrator, example1_spectrum)


@pytest.fixture
def cold_designs():
    """The emptied design memo: the next design of any input runs the synthesis."""
    design._designs.clear()
    return design._designs


@pytest.fixture
def synthesis_runs(monkeypatch, cold_designs):
    """Arguments of every synthesis run from an empty memo, recorded through
    ``design``'s globals, which ``design_controller`` calls it through."""
    runs = []
    real = design._synthesize

    def recording(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(design, "_synthesize", recording)
    return runs


def random_spanning_tree_digraph(n, rng, extra_edge_factor=0.3, weighted=False):
    """Tree backbone (random parents) plus random extra edges; always has a root."""
    a = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        child, parent = order[idx], order[rng.integers(0, idx)]
        a[child, parent] = rng.uniform(0.5, 2.0) if weighted else 1.0
    extra = int(extra_edge_factor * n * n)
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j and rng.random() < 0.5:
            a[i, j] = rng.uniform(0.5, 2.0) if weighted else 1.0
    return DirectedGraph(a)


def random_forest_digraph(n, rng, extra_edge_factor=0.3):
    """Random digraph cut into two blocks with no edge between them: no spanning tree."""
    a = random_spanning_tree_digraph(n, rng, extra_edge_factor).adjacency.copy()
    k = int(rng.integers(1, n))
    a[:k, k:] = 0.0
    a[k:, :k] = 0.0
    return DirectedGraph(a)


def chain_digraphs(n):
    """The n-agent chain 0 -> 1 -> ... -> n-1 and its reverse."""
    return (DirectedGraph.from_edges(n, [[i, i + 1] for i in range(n - 1)]),
            DirectedGraph.from_edges(n, [[i + 1, i] for i in range(n - 1)]))


def random_balanced_digraph(n, rng, degree, weight=1.0):
    """Random Hamiltonian cycle plus ``degree - 1`` edge-disjoint derangements.

    Every agent gets in- and out-degree ``degree * weight``, so the normalized
    Laplacian has zero column sums (1' Lhat = 0), and the cycle makes every
    agent a root. Needs ``1 <= degree <= n - 1``.
    """
    if not 1 <= degree <= n - 1:
        raise ValueError(f"degree must lie in [1, {n - 1}] for {n} agents, got {degree}")
    rows = np.arange(n)
    order = rng.permutation(n)
    taken = np.eye(n, dtype=bool)
    taken[order, np.roll(order, -1)] = True  # edge order[k+1] -> order[k]
    for _ in range(degree - 1):
        # rejection-sample a permutation that avoids every edge used so far; the
        # unused edges form a regular bipartite graph, so a match always exists
        perm = rng.permutation(n)
        while taken[rows, perm].any():
            perm = rng.permutation(n)
        taken[rows, perm] = True
    return DirectedGraph(weight * taken)  # drops the diagonal


def bfs_reachable(adjacency, start):
    """Independent reachability oracle: plain BFS over the information flow."""
    n = adjacency.shape[0]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if adjacency[v, u] > 0 and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def bfs_roots(adjacency):
    n = adjacency.shape[0]
    return {r for r in range(n) if len(bfs_reachable(adjacency, r)) == n}
