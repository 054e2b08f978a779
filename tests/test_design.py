import numpy as np
import pytest
import scipy.linalg

from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_consensus import (THETA_BOUND, ControllerConfig, DesignError, DirectedGraph,
                                 LtiModel, coupling_range, design_controller, design_gain,
                                 joint_radius, list_scenarios, load_config, normalized_laplacian,
                                 solve_dare)
from resilient_consensus.design import COUPLING_GRID
from resilient_consensus.scenarios import MODEL_PRESETS

from conftest import random_forest_digraph, random_spanning_tree_digraph

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def dare_residual(A, B, Q, R, P):
    A, B, Q, R = map(np.atleast_2d, (A, B, Q, R))
    gain = A.T @ P @ B @ np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return np.linalg.norm(A.T @ P @ A - P - gain + Q, "fro")


def test_scalar_golden_ratio():
    P = solve_dare([[1.0]], [[1.0]], 1.0, 1.0)
    assert abs(P[0, 0] - GOLDEN) < 1e-10


def test_deadbeat_plant_gives_q():
    Q = np.diag([2.0, 3.0])
    P = solve_dare(np.zeros((2, 2)), np.eye(2), Q, np.eye(2))
    np.testing.assert_allclose(P, Q, atol=1e-12)


@pytest.mark.parametrize("case", ["rotation2d", "auv"])
def test_dare_against_scipy_oracle(case, rotation2d, auv_model):
    model = rotation2d if case == "rotation2d" else auv_model
    P = solve_dare(model.A, model.B, None, None)
    assert dare_residual(model.A, model.B, np.eye(model.state_dim),
                         np.eye(model.input_dim), P) < 1e-8
    P_oracle = scipy.linalg.solve_discrete_are(
        model.A, model.B, np.eye(model.state_dim), np.eye(model.input_dim))
    np.testing.assert_allclose(P, P_oracle, rtol=1e-9, atol=1e-9)


def test_dare_rejects_bad_weights():
    with pytest.raises(ValueError):
        solve_dare([[1.0]], [[1.0]], -1.0, 1.0)
    with pytest.raises(ValueError):
        solve_dare([[1.0]], [[1.0]], 1.0, np.zeros((1, 1)))


def test_design_gain_scalar(integrator):
    K, P1, R1_bar = design_gain(integrator)
    assert abs(P1[0, 0] - GOLDEN) < 1e-10
    assert abs(K[0, 0] - (1.0 + np.sqrt(5.0)) / (3.0 + np.sqrt(5.0))) < 1e-10
    assert abs(R1_bar[0, 0] - (1.0 + GOLDEN)) < 1e-10


def test_design_gain_dead_input_column():
    model = LtiModel(A=[[0.9]], B=[[1.0, 0.0]])
    K, _, _ = design_gain(model)
    assert abs(K[1, 0]) < 1e-14  # dead column contributes nothing


def test_design_gain_rotation_schur(rotation2d):
    K, _, _ = design_gain(rotation2d)
    rho = np.abs(np.linalg.eigvals(rotation2d.A - rotation2d.B @ K)).max()
    assert rho < 1.0


def test_riccati_residual_on_random_systems():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        A = A / max(1.0, np.abs(np.linalg.eigvals(A)).max())  # keep |eig| <= 1
        B = rng.normal(size=(n, m))
        Q = np.eye(n) * rng.uniform(0.5, 2.0)
        R = np.eye(m) * rng.uniform(0.5, 2.0)
        P = solve_dare(A, B, Q, R)
        assert dare_residual(A, B, Q, R, P) < 1e-8


def test_p_monotone_in_q_scalar():
    values = [solve_dare([[1.0]], [[1.0]], q, 1.0)[0, 0] for q in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def _ctrl_with(K, c, Q1, T):
    K = np.atleast_2d(K)
    n = K.shape[1]
    return ControllerConfig(K=K, c=c, P1=np.eye(n), Q1=np.atleast_2d(Q1),
                            R1=np.eye(K.shape[0]), R1_bar=np.eye(K.shape[0]),
                            theta=0.5, T=np.atleast_2d(T))


def test_coupling_range_formula_cases(example1_spectrum):
    # lam_m = 0.5; lam_min(T Q1^-1) = 0.02 -> (4, 10)
    ctrl = _ctrl_with([[1.0]], 1.0, 1.0, 0.02)
    rng = coupling_range(example1_spectrum, ctrl)
    assert abs(rng.c_lo - 4.0) < 1e-12 and abs(rng.c_hi - 10.0) < 1e-12
    assert not rng.is_empty

    ctrl2 = _ctrl_with([[1.0]], 1.0, 1.0, 0.5)  # lam_min = 0.5 -> upper bound 2 < lower 4
    assert coupling_range(example1_spectrum, ctrl2).is_empty


def test_coupling_range_empty_for_standard_scalar_design(integrator, example1_spectrum,
                                                         example1_ctrl):
    rng = coupling_range(example1_spectrum, example1_ctrl)
    assert rng.is_empty  # the analytic interval is conservative here
    assert any("fallback" in note for note in example1_ctrl.notes)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_agents=st.integers(2, 7),
       forest=st.booleans(), model=st.sampled_from(sorted(MODEL_PRESETS)),
       c=st.sampled_from(list(COUPLING_GRID)))
def test_theta_bound_lambda_min_is_zero(seed, n_agents, forest, model, c):
    """lam_min(c Lhat (x) B'P1B R1_bar^-1) = 0 for every graph, model and c > 0,
    which is what makes THETA_BOUND = 1/sqrt(2 + lam_min) the constant 1/sqrt(2)."""
    rng = np.random.default_rng(seed)
    make = random_forest_digraph if forest else random_spanning_tree_digraph
    spectrum = normalized_laplacian(make(n_agents, rng))
    L = spectrum.normalized_laplacian
    assert np.abs(L @ np.ones(n_agents)).max() == 0.0
    assert spectrum.zero_multiplicity >= 1
    preset = MODEL_PRESETS[model]
    lti = LtiModel(A=preset["A"], B=preset["B"])
    _K, P1, R1_bar = design_gain(lti)
    block = lti.B.T @ P1 @ lti.B @ np.linalg.inv(R1_bar)
    lam_min = np.linalg.eigvals(c * np.kron(L, block)).real.min()
    assert abs(lam_min) <= 1e-12


def _compensator_products(spectrum, ctrl):
    """Eigenvalues c lam_i mu_j of c Lhat (x) B'P1B R1_bar^-1, one row per lam_i."""
    block = np.linalg.eigvals((ctrl.R1_bar - ctrl.R1) @ np.linalg.inv(ctrl.R1_bar))
    return ctrl.c * spectrum.eigenvalues[:, None] * block[None, :]


def test_theta_bound_formula_cases(integrator, example1_spectrum, example1_ctrl):
    # 1/sqrt(2 + lam_min) with the dense lam_min is the constant, on the designed
    # controller and with B'P1B = 0; lam_min hits zero through the zero eigenvalue
    ctrl = _ctrl_with([[1.0]], 1.0, 1.0, 1.0)
    object.__setattr__(ctrl, "R1_bar", np.array([[2.0]]))
    object.__setattr__(ctrl, "R1", np.array([[2.0]]))  # B'P1B = 0
    for case in (example1_ctrl, ctrl):
        block = (case.R1_bar - case.R1) @ np.linalg.inv(case.R1_bar)
        dense = np.linalg.eigvals(
            case.c * np.kron(example1_spectrum.normalized_laplacian, block))
        assert abs(1.0 / np.sqrt(2.0 + dense.real.min()) - THETA_BOUND) < 1e-12
        products = _compensator_products(example1_spectrum, case)
        assert abs(1.0 / np.sqrt(2.0 + products.real.min()) - THETA_BOUND) < 1e-12


def test_theta_bound_nonzero_lambda_min():
    # the products over the nonzero Laplacian eigenvalues never have a negative
    # real part, so none of them pulls lam_min below the zero eigenvalue's 0
    for name in list_scenarios():
        config = load_config(name)
        spectrum = normalized_laplacian(config.graph)
        ctrl = design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1,
                                 c=config.c, theta=config.theta)
        products = _compensator_products(spectrum, ctrl)
        nonzero = np.abs(spectrum.eigenvalues) > 1e-9
        assert nonzero.sum() == spectrum.eigenvalues.size - spectrum.zero_multiplicity
        assert products[nonzero].real.min() >= -1e-12
        lam_min = products.real.min()
        assert abs(lam_min) <= 1e-12
        assert abs(1.0 / np.sqrt(2.0 + lam_min) - THETA_BOUND) < 1e-12


def test_theta_bound_default_fraction(integrator, example1_spectrum, example1_ctrl):
    assert abs(THETA_BOUND - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(example1_ctrl.theta - 0.9 * THETA_BOUND) < 1e-12


def test_design_controller_rejects_nonpositive_coupling(integrator, example1_spectrum):
    for c in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="coupling c must be positive"):
            design_controller(integrator, example1_spectrum, c=c)
        with pytest.raises(ValueError, match="coupling c must be positive"):
            design_controller(integrator, example1_spectrum, c=c, theta=0.5)


def test_schur_inside_nonempty_coupling_interval():
    # small Q1 makes the analytic interval nonempty for the scalar integrator
    model = LtiModel(A=[[1.0]], B=[[1.0]])
    graph = DirectedGraph.from_edges(4, [[1, 0], [0, 1], [1, 2], [0, 3]])
    spectrum = normalized_laplacian(graph)
    ctrl = design_controller(model, spectrum, Q1=0.005)
    rng = coupling_range(spectrum, ctrl)
    assert not rng.is_empty and np.isfinite(rng.c_hi)
    assert any("midpoint" in note for note in ctrl.notes)
    BK = model.B @ ctrl.K
    for c in np.linspace(rng.c_lo + 1e-6, rng.c_hi - 1e-6, 25):
        for lam in spectrum.nonzero_eigenvalues():
            assert np.abs(np.linalg.eigvals(model.A - c * lam * BK)).max() < 1.0


def test_design_controller_joint_blocks_schur(rotation2d, auv_model, chain5_graph):
    auv_graph = DirectedGraph.from_edges(6, [[0, 1], [0, 2], [2, 1], [2, 3], [3, 4], [4, 5]])
    for model, graph in ((rotation2d, chain5_graph), (auv_model, auv_graph)):
        spectrum = normalized_laplacian(graph)
        ctrl = design_controller(model, spectrum)
        assert joint_radius(model, spectrum, ctrl.K, ctrl.c, ctrl.theta) < 1.0
        assert 0 < ctrl.theta < THETA_BOUND
        # the gain identity K = R1_bar^-1 B'P1A
        lhs = ctrl.R1_bar @ ctrl.K
        rhs = model.B.T @ ctrl.P1 @ model.A
        assert np.abs(lhs - rhs).max() < 1e-10


def test_coupling_range_rejects_degenerate_spectrum(integrator, example1_spectrum,
                                                    example1_ctrl):
    edgeless = normalized_laplacian(DirectedGraph(np.zeros((3, 3))))
    with pytest.raises(DesignError):
        coupling_range(edgeless, example1_ctrl)


def test_coupling_range_unbounded_for_rank_deficient_t():
    # AUV: m = 2 < n = 4, so T = K'B'P1BK has rank 2 and lam_min(T Q1^-1) is exactly 0
    config = load_config("auv_healthy")
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum)
    assert np.linalg.matrix_rank(ctrl.T) == 2
    assert coupling_range(spectrum, ctrl).c_hi == np.inf
    assert ctrl.notes[0] == "analytic coupling interval unbounded; grid fallback used"


# (c, theta) chosen for every bundled scenario, pinned bit for bit
BUNDLED_GAINS = {
    "auv_const_attack_agent2": (1.9000000000000001, 0.35355339059327373),
    "auv_const_attack_agent2_resilient": (1.9000000000000001, 0.35355339059327373),
    "auv_healthy": (1.9000000000000001, 0.35355339059327373),
    "auv_sin_attack_agent3": (1.9000000000000001, 0.35355339059327373),
    "auv_sin_attack_agent3_resilient": (1.9000000000000001, 0.35355339059327373),
    "chain5_nonroot_attack": (3.24, 0.6363961030678927),
    "example1_consensus": (2.16, 0.6363961030678927),
    "example1_nonroot_attack": (2.16, 0.6363961030678927),
    "example1_root_attack": (2.16, 0.6363961030678927),
    "rotation2d_imp_nonroot": (1.86, 0.6363961030678927),
    "rotation2d_imp_nonroot_resilient": (1.86, 0.6363961030678927),
    "rotation2d_imp_root": (1.86, 0.6363961030678927),
    "rotation2d_imp_root_resilient": (1.86, 0.6363961030678927),
    "rotation2d_nonimp_root": (1.86, 0.6363961030678927),
}


def test_bundled_scenario_gains_pinned():
    assert sorted(BUNDLED_GAINS) == list_scenarios()
    for name, (c, theta) in BUNDLED_GAINS.items():
        config = load_config(name)
        ctrl = design_controller(config.model, normalized_laplacian(config.graph),
                                 Q1=config.q1, R1=config.r1, c=config.c, theta=config.theta)
        assert (ctrl.c, ctrl.theta) == (c, theta), name
