import numpy as np
import pytest
import scipy.linalg

from resilient_consensus import (DirectedGraph, GraphError, has_spanning_tree, is_reachable,
                                 normalized_laplacian, reachable_set)

from conftest import (bfs_reachable, bfs_roots, chain_digraphs, random_forest_digraph,
                      random_spanning_tree_digraph)

EXAMPLE1_LHAT = np.array([
    [0.5, -0.5, 0.0, 0.0],
    [-0.5, 0.5, 0.0, 0.0],
    [0.0, -0.5, 0.5, 0.0],
    [-0.5, 0.0, 0.0, 0.5],
])


def test_construction_rules():
    with pytest.raises(GraphError):
        DirectedGraph(np.zeros((1, 1)))
    with pytest.raises(GraphError):
        DirectedGraph(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(GraphError):
        DirectedGraph(np.zeros((2, 3)))
    g = DirectedGraph(np.array([[5.0, 1.0], [1.0, 0.0]]))
    assert g.adjacency[0, 0] == 0.0  # diagonal forced to zero


def test_from_edges_validation():
    with pytest.raises(GraphError):
        DirectedGraph.from_edges(3, [[0, 3]])
    with pytest.raises(GraphError):
        DirectedGraph.from_edges(3, [[1, 1]])


def test_example1_normalized_laplacian(example1_graph, example1_spectrum):
    sp = example1_spectrum
    np.testing.assert_allclose(sp.normalized_laplacian, EXAMPLE1_LHAT, atol=1e-15)
    np.testing.assert_allclose(sp.left_eigvec_zero, [0.5, 0.5, 0.0, 0.0], atol=1e-12)
    assert sp.root_set == frozenset({0, 1})
    np.testing.assert_allclose(
        np.sort(sp.eigenvalues.real), [0.0, 0.5, 0.5, 1.0], atol=1e-12)
    assert np.abs(sp.eigenvalues.imag).max() < 1e-12
    assert abs(sp.eigenvalues[0]) < 1e-12  # zero sorted first


def test_left_eigvec_against_nullspace_oracle(example1_spectrum):
    # independent oracle: kernel of Lhat^T via scipy's null_space
    ns = scipy.linalg.null_space(example1_spectrum.normalized_laplacian.T)
    assert ns.shape[1] == 1
    r_oracle = ns[:, 0] / ns[:, 0].sum()
    np.testing.assert_allclose(example1_spectrum.left_eigvec_zero, r_oracle, atol=1e-12)
    resid = example1_spectrum.left_eigvec_zero @ example1_spectrum.normalized_laplacian
    assert np.abs(resid).max() < 1e-10


def test_zero_edge_graph():
    sp = normalized_laplacian(DirectedGraph(np.zeros((3, 3))))
    assert np.abs(sp.normalized_laplacian).max() == 0.0
    assert np.abs(sp.eigenvalues).max() == 0.0
    assert sp.zero_multiplicity == 3
    assert sp.left_eigvec_zero is None
    assert sp.root_set == frozenset()


def test_strongly_connected_eigenvalues_inside_unit_circle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        # ring of 5 plus chords keeps the graph strongly connected
        a = np.zeros((5, 5))
        for i in range(5):
            a[(i + 1) % 5, i] = 1.0
        for _ in range(rng.integers(0, 8)):
            i, j = rng.integers(0, 5, size=2)
            if i != j:
                a[i, j] = rng.uniform(0.5, 2.0)
        sp = normalized_laplacian(DirectedGraph(a))
        nz = sp.nonzero_eigenvalues()
        assert (np.abs(nz - 1.0) < 1.0 + 1e-12).all()


def test_spanning_tree_examples(example1_graph):
    assert has_spanning_tree(example1_graph)
    two_pairs = DirectedGraph.from_edges(4, [[0, 1], [1, 0], [2, 3], [3, 2]])
    assert not has_spanning_tree(two_pairs)
    cycle = DirectedGraph.from_edges(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    assert has_spanning_tree(cycle)


def test_reachability_examples(example1_graph):
    # 1-based agents 2 -> 4 is 0-based 1 -> 3, via 1 -> 0 -> 3
    assert is_reachable(example1_graph, 1, 3)
    assert not is_reachable(example1_graph, 2, 0)  # agent 3 has no outgoing edges
    for i in range(4):
        assert is_reachable(example1_graph, i, i)
    for bad in (-1, 4, 9):
        with pytest.raises(GraphError):
            is_reachable(example1_graph, 0, bad)
        with pytest.raises(GraphError):
            reachable_set(example1_graph, bad)


def test_reachability_matches_bfs_oracle():
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 10))
        g = random_spanning_tree_digraph(n, rng, extra_edge_factor=rng.uniform(0, 0.4),
                                         weighted=bool(rng.integers(0, 2)))
        cases.append((g, [int(rng.integers(0, n))]))
    for _ in range(50):
        g = random_forest_digraph(int(rng.integers(2, 10)), rng, rng.uniform(0, 0.4))
        cases.append((g, range(g.n_agents)))
    cases.extend((g, (0, 29, 59)) for g in chain_digraphs(60))
    for g, sources in cases:
        for src in sources:
            oracle = bfs_reachable(g.adjacency, src)
            assert reachable_set(g, src) | {src} == oracle
            for dst in range(g.n_agents):
                assert is_reachable(g, src, dst) == (dst in oracle)


def test_root_set_and_spanning_tree_properties():
    rng = np.random.default_rng(23)
    graphs = []
    for trial in range(500):
        n = int(rng.integers(2, 13))
        if trial % 5 == 0:
            # occasionally break the tree by isolating one node's in/out edges
            a = random_spanning_tree_digraph(n, rng).adjacency.copy()
            if n > 2:
                a[0, :] = 0.0
                a[:, 0] = 0.0
            graphs.append(DirectedGraph(a))
        else:
            graphs.append(random_spanning_tree_digraph(
                n, rng, extra_edge_factor=rng.uniform(0, 0.4), weighted=bool(rng.integers(0, 2))))
    graphs.extend(random_forest_digraph(int(rng.integers(2, 13)), rng, rng.uniform(0, 0.4))
                  for _ in range(100))
    graphs.extend(chain_digraphs(60))
    for g in graphs:
        sp = normalized_laplacian(g)
        tree = has_spanning_tree(g)
        assert (len(sp.root_set) > 0) == tree
        assert sp.root_set == frozenset(bfs_roots(g.adjacency))
        if tree:
            assert np.abs(sp.left_eigvec_zero @ sp.normalized_laplacian).max() < 1e-10
            assert abs(sp.left_eigvec_zero.sum() - 1.0) < 1e-12
            for root in sp.root_set:
                assert len(bfs_reachable(g.adjacency, root)) == g.n_agents


def test_quadratic_form_matrix_sign_depends_on_structure(example1_spectrum):
    """Eigenvalues of the non-symmetric matrix Lhat'Lhat - 2 Lhat.

    This pins eigenvalues, not the sign of the quadratic form
    x'(Lhat'Lhat - 2 Lhat)x: that sign is set by the symmetric part
    Lhat'Lhat - Lhat - Lhat', whose eigenvalues can differ in sign from these.
    Here the eigenvalues have nonpositive real part on the bundled 4-agent
    graph, a directed ring and an undirected path, and a unit-weight out-star
    with four leaves has a strictly positive one. The form itself is positive
    somewhere on the 4-agent graph, the path and the star, and <= 0 everywhere
    on the ring; it is <= 0 for every x exactly when 1'Lhat = 0, which the
    acceptance suite (criterion 4) checks.
    """
    def max_real_eig(sp):
        L = sp.normalized_laplacian
        return np.linalg.eigvals(L.T @ L - 2.0 * L).real.max()

    assert max_real_eig(example1_spectrum) < 1e-12

    ring = DirectedGraph.from_edges(6, [[i, (i + 1) % 6] for i in range(6)])
    assert max_real_eig(normalized_laplacian(ring)) < 1e-12

    undirected = DirectedGraph.from_edges(
        5, [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2], [3, 4], [4, 3]])
    assert max_real_eig(normalized_laplacian(undirected)) < 1e-12

    # counterexample: hub 0 feeding four leaves (a bona fide directed tree)
    star = DirectedGraph.from_edges(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
    assert max_real_eig(normalized_laplacian(star)) > 0.2
