import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_consensus import (THETA_BOUND, ControllerConfig, DirectedGraph, GraphError,
                                 LtiModel, design_controller, joint_radius, normalized_laplacian,
                                 predict_consensus_value, simulate)
from resilient_consensus.design import COUPLING_GRID, baseline_radius
from resilient_consensus.dynamics import block_spectra
from resilient_consensus.scenarios import MODEL_PRESETS

from conftest import random_forest_digraph, random_spanning_tree_digraph


def kron_closed_loop(model, spectrum, ctrl):
    """I_N (x) A - c Lhat (x) BK, assembled densely."""
    n_agents = spectrum.normalized_laplacian.shape[0]
    return (np.kron(np.eye(n_agents), model.A)
            - ctrl.c * np.kron(spectrum.normalized_laplacian, model.B @ ctrl.K))


def block_union(model, spectrum, ctrl):
    """eig(A - c lam BK) over every Laplacian eigenvalue lam, zero included."""
    return block_spectra(model, spectrum.eigenvalues, ctrl.K, ctrl.c).ravel()


def assert_same_spectrum(actual, expected, atol):
    """Equal multisets of eigenvalues: each expected one pairs with the nearest
    unpaired actual one."""
    assert len(actual) == len(expected)
    left = list(actual)
    for lam in expected:
        i = int(np.argmin(np.abs(np.array(left) - lam)))
        assert abs(left.pop(i) - lam) <= atol, lam


def unit_gain_ctrl(model, K=None, c=1.0):
    """Hand-assembled controller for tests that pin K and c directly."""
    n, m = model.state_dim, model.input_dim
    K = np.eye(m, n) if K is None else np.atleast_2d(np.asarray(K, dtype=float))
    return ControllerConfig(K=K, c=c, P1=np.eye(n), Q1=np.eye(n), R1=np.eye(m),
                            R1_bar=np.eye(m), theta=0.5, T=K.T @ K)


def test_model_validation_and_marginal_classification(auv_model):
    with pytest.raises(ValueError):
        LtiModel(A=[[1.0, 0.0]], B=[[1.0]])
    with pytest.raises(ValueError):
        LtiModel(A=[[1.0]], B=[[1.0], [0.0]])
    marg = sorted(abs(l) for l in auv_model.marginal_eigenvalues)
    # depth integrator at 1 plus two genuinely unstable modes
    assert len(marg) == 3
    assert abs(marg[0] - 1.0) < 1e-12
    assert marg[-1] > 1.5


def test_unstabilizable_model_warns():
    # second state is marginally stable and disconnected from the input
    with pytest.warns(UserWarning, match="not stabilizable"):
        LtiModel(A=[[0.5, 0.0], [0.0, 1.0]], B=[[1.0], [0.0]])


def test_closed_loop_example1(integrator, example1_spectrum):
    ctrl = unit_gain_ctrl(integrator, K=[[1.0]], c=1.0)
    closed = kron_closed_loop(integrator, example1_spectrum, ctrl)
    expected = np.eye(4) - example1_spectrum.normalized_laplacian
    np.testing.assert_allclose(closed, expected, atol=1e-15)
    blocks = block_union(integrator, example1_spectrum, ctrl)
    np.testing.assert_allclose(np.sort(blocks.real), [0.0, 0.5, 0.5, 1.0], atol=1e-12)
    assert_same_spectrum(np.linalg.eigvals(closed), blocks, atol=1e-12)
    # A - c*lam*BK = 1 - lam is Schur for both nonzero eigenvalues {0.5, 1}
    assert baseline_radius(integrator, example1_spectrum, ctrl.K, ctrl.c) < 1.0


def test_closed_loop_no_coupling(integrator, example1_spectrum):
    ctrl = unit_gain_ctrl(integrator, K=[[0.0]], c=1.0)
    closed = kron_closed_loop(integrator, example1_spectrum, ctrl)
    np.testing.assert_allclose(closed, np.eye(4), atol=1e-15)
    assert_same_spectrum(np.linalg.eigvals(closed),
                         block_union(integrator, example1_spectrum, ctrl), atol=1e-15)
    assert not baseline_radius(integrator, example1_spectrum, ctrl.K, ctrl.c) < 1.0
    # no nonzero Laplacian eigenvalue leaves no block to fail
    edgeless = normalized_laplacian(DirectedGraph(np.zeros((3, 3))))
    assert baseline_radius(integrator, edgeless, ctrl.K, ctrl.c) < 1.0


def test_auv_designed_gain_is_schur(auv_model):
    graph = DirectedGraph.from_edges(6, [[0, 1], [0, 2], [2, 1], [2, 3], [3, 4], [4, 5]])
    spectrum = normalized_laplacian(graph)
    ctrl = design_controller(auv_model, spectrum)
    assert baseline_radius(auv_model, spectrum, ctrl.K, ctrl.c) < 1.0
    # Lhat has a 4x4 Jordan block at 1/2, which the dense eig of the global
    # matrix resolves only to about eps^(1/4) ~ 1e-4
    for c in (ctrl.c, 0.5 * ctrl.c, 2.0 * ctrl.c, 4.0 * ctrl.c):
        trial = unit_gain_ctrl(auv_model, ctrl.K, c)
        global_eigs = np.linalg.eigvals(kron_closed_loop(auv_model, spectrum, trial))
        assert_same_spectrum(global_eigs, block_union(auv_model, spectrum, trial), atol=1e-2)
        # the lam = 0 block is A itself; the rest of the spectrum decides the radius
        rest = list(global_eigs)
        for lam in np.linalg.eigvals(auv_model.A):
            rest.pop(int(np.argmin(np.abs(np.array(rest) - lam))))
        radius = baseline_radius(auv_model, spectrum, ctrl.K, c)
        assert abs(np.abs(rest).max() - radius) <= 1e-2 * radius
        assert (radius < 1.0) == (c == ctrl.c)


def dense_error_loop(model, spectrum, K, c, theta):
    """I_N (x) A - c Lhat (x) BK, and with ``theta`` the plant+compensator loop
    [[I (x) A - c Lhat (x) BK, -I (x) B], [theta c Lhat (x) K, theta I]], dense."""
    lap = spectrum.normalized_laplacian
    eye = np.eye(lap.shape[0])
    plant = np.kron(eye, model.A) - c * np.kron(lap, model.B @ K)
    if theta is None:
        return plant
    return np.block([[plant, -np.kron(eye, model.B)],
                     [theta * c * np.kron(lap, K), theta * np.eye(lap.shape[0] * K.shape[0])]])


def without(eigs, removed):
    """``eigs`` less the nearest match of each entry of ``removed``."""
    left = list(eigs)
    for lam in removed:
        left.pop(int(np.argmin(np.abs(np.array(left) - lam))))
    return np.array(left)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), preset=st.sampled_from(sorted(MODEL_PRESETS)),
       forest=st.booleans(), compensated=st.booleans())
def test_block_spectra_match_the_dense_kronecker_loop(seed, preset, forest, compensated):
    """Over an array of couplings, the batched radii (nonzero Laplacian
    eigenvalues) and smallest moduli (every eigenvalue) equal those of the
    dense Kronecker loop, whose spectrum less the zero_multiplicity copies of
    the lam = 0 block's is what the radius reads. Random edge weights keep
    Lhat free of Jordan blocks, which the dense eig resolves only roughly."""
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(2, 7))
    g = (random_forest_digraph(n_agents, rng, 0.3) if forest
         else random_spanning_tree_digraph(n_agents, rng, 0.3))
    spectrum = normalized_laplacian(DirectedGraph(
        g.adjacency * rng.uniform(0.5, 2.0, size=g.adjacency.shape)))
    model = LtiModel(A=MODEL_PRESETS[preset]["A"], B=MODEL_PRESETS[preset]["B"])
    K = rng.normal(size=(model.input_dim, model.state_dim))
    couplings = rng.uniform(0.05, 3.0, size=3)
    theta = float(rng.uniform(0.05, THETA_BOUND)) if compensated else None
    if theta is None:
        radii = baseline_radius(model, spectrum, K, couplings)
        zero_block = np.linalg.eigvals(model.A)
    else:
        radii = joint_radius(model, spectrum, K, couplings, theta)
        zero_block = np.concatenate([np.linalg.eigvals(model.A), np.full(model.input_dim, theta)])
    smallest = np.abs(block_spectra(model, spectrum.eigenvalues, K, couplings, theta)).min(
        axis=(1, 2))
    assert radii.shape == smallest.shape == (3,)
    for c, radius, low in zip(couplings, radii, smallest):
        dense = np.linalg.eigvals(dense_error_loop(model, spectrum, K, c, theta))
        rest = without(dense, np.tile(zero_block, spectrum.zero_multiplicity))
        assert abs(np.abs(rest).max(initial=0.0) - radius) <= 1e-6 * max(radius, 1.0)
        assert abs(np.abs(dense).min() - low) <= 1e-6 * max(low, 1.0)
        # one coupling gives a float, the same as its entry of the array
        one = (baseline_radius(model, spectrum, K, float(c)) if theta is None
               else joint_radius(model, spectrum, K, float(c), theta))
        assert isinstance(one, float) and one == radius


def test_block_spectra_of_an_edgeless_graph_give_zero_radii(integrator, auv_model):
    edgeless = normalized_laplacian(DirectedGraph(np.zeros((3, 3))))
    assert edgeless.nonzero_eigenvalues().size == 0
    for model in (integrator, auv_model):
        K = np.ones((model.input_dim, model.state_dim))
        assert baseline_radius(model, edgeless, K, 1.0) == 0.0
        assert joint_radius(model, edgeless, K, 1.0, 0.5) == 0.0
        np.testing.assert_array_equal(baseline_radius(model, edgeless, K, COUPLING_GRID),
                                      np.zeros(COUPLING_GRID.size))
        np.testing.assert_array_equal(joint_radius(model, edgeless, K, COUPLING_GRID[:5], 0.5),
                                      np.zeros(5))
        # every lam = 0 block is A itself
        spectra = block_spectra(model, edgeless.eigenvalues, K, COUPLING_GRID[:2])
        assert spectra.shape == (2, 3, model.state_dim)
        for block in spectra.reshape(-1, model.state_dim):
            assert_same_spectrum(block, np.linalg.eigvals(model.A), atol=1e-12)


def test_step_examples(integrator, example1_graph, example1_spectrum):
    ctrl = unit_gain_ctrl(integrator, K=[[1.0]], c=1.0)
    trace = simulate(integrator, example1_graph, example1_spectrum, ctrl, horizon=1,
                     x0=[1.0, 3.0, 0.0, 0.0])
    np.testing.assert_allclose(trace.final_x, [2.0, 2.0, 1.5, 0.5], atol=1e-15)
    # no attack, so s = 0 and the law reads the plant: u = c K eps_bar = -Lhat (x + s)
    s = np.zeros((4, 1))
    np.testing.assert_array_equal(trace.u[0], -example1_spectrum.normalized_laplacian
                                  @ (trace.x[0] + s))
    assert trace.steps_run == 1 and list(trace.ks) == [0]

    zero = simulate(integrator, example1_graph, example1_spectrum, ctrl, horizon=1,
                    x0=np.zeros(4))
    assert np.abs(zero.final_x).max() == 0.0


def test_step_rejects_non_finite(integrator, example1_graph, example1_spectrum, example1_ctrl):
    args = (integrator, example1_graph, example1_spectrum, example1_ctrl)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x0"):
            simulate(*args, horizon=10, x0=[1.0, bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="predictor_init"):
            simulate(*args, horizon=10, x0=np.zeros(4), predictor_init=[bad, 0.0, 0.0, 0.0],
                     controller="resilient")


def test_step_determinism(integrator, example1_graph, example1_spectrum, example1_ctrl):
    from resilient_consensus import AttackSpec, sinusoid_signal

    rng = np.random.default_rng(3)
    x0 = rng.normal(size=4)
    attacks = [AttackSpec(agent=1, channel="sensor", signal=sinusoid_signal([0.4], 0.7)),
               AttackSpec(agent=3, channel="actuator", signal=sinusoid_signal([0.9], 0.2))]

    def once():
        return simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                        horizon=50, x0=x0, attacks=attacks, controller="resilient")

    a, b = once(), once()
    assert a.x.tobytes() == b.x.tobytes()
    assert a.final_x.tobytes() == b.final_x.tobytes()


def test_constant_root_attack_ramps(integrator, example1_graph, example1_spectrum, example1_ctrl):
    # all agents' increments equalize and the network ramps off to infinity
    from resilient_consensus import AttackSpec, constant_signal

    attack = AttackSpec(agent=0, channel="actuator", signal=constant_signal([1.0]))
    trace = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                     horizon=3000, x0=[2.0, 4.0, 9.0, -3.0], attacks=[attack])
    increments = trace.x[2500:, :, 0] - trace.x[2499:-1, :, 0]
    np.testing.assert_allclose(increments, 0.5, atol=1e-6)
    assert trace.diverged and trace.growth_detected


def test_predict_consensus_examples(integrator, rotation2d, example1_spectrum):
    pred = predict_consensus_value(integrator, example1_spectrum, [2.0, 4.0, 9.0, -3.0])
    for k in (0, 10, 500):
        np.testing.assert_allclose(pred.value(k), [3.0], atol=1e-12)

    zero = predict_consensus_value(integrator, example1_spectrum, np.zeros(4))
    assert np.abs(zero.value(100)).max() == 0.0

    x0 = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0], [3.0, 1.0]])
    pred_rot = predict_consensus_value(rotation2d, example1_spectrum, x0)
    w = 0.5 * x0[0] + 0.5 * x0[1]
    np.testing.assert_allclose(pred_rot.value(0), w, atol=1e-12)
    np.testing.assert_allclose(pred_rot.value(4), w, atol=1e-12)   # rotation period 4
    np.testing.assert_allclose(pred_rot.value(2), -w, atol=1e-12)
    np.testing.assert_allclose(pred_rot.value(1), [[0.0, -1.0], [1.0, 0.0]] @ w, atol=1e-12)
    np.testing.assert_allclose(pred_rot.value(8), w, atol=1e-12)


def test_predict_consensus_requires_spanning_tree(integrator):
    g = DirectedGraph.from_edges(4, [[0, 1], [1, 0], [2, 3], [3, 2]])
    with pytest.raises(GraphError):
        predict_consensus_value(integrator, normalized_laplacian(g), np.zeros(4))


def test_attack_free_convergence_to_predicted_consensus(integrator):
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(3, 8))
        g = random_spanning_tree_digraph(n, rng, extra_edge_factor=0.2)
        sp = normalized_laplacian(g)
        ctrl = design_controller(integrator, sp)
        x0 = rng.normal(size=n) * 3.0
        trace = simulate(integrator, g, sp, ctrl, horizon=400, x0=x0)
        target = predict_consensus_value(integrator, sp, x0).value(400)
        assert np.abs(trace.final_x - target[0]).max() < 1e-6


def test_superposition_of_trajectories(integrator, example1_graph, example1_spectrum, example1_ctrl):
    from resilient_consensus import AttackSpec, constant_signal, sinusoid_signal

    rng = np.random.default_rng(7)
    x0a, x0b = rng.normal(size=4), rng.normal(size=4)
    at_a = [AttackSpec(agent=2, channel="actuator", signal=constant_signal([0.7]))]
    at_b = [AttackSpec(agent=3, channel="actuator", signal=sinusoid_signal([0.3], 0.8))]

    def states(x0, attacks):
        return simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                        horizon=200, x0=x0, attacks=attacks).x

    combined = states(x0a + x0b, at_a + at_b)
    split = states(x0a, at_a) + states(x0b, at_b)
    ref = np.abs(combined).max()
    assert np.abs(combined - split).max() <= 1e-10 * max(ref, 1.0)
