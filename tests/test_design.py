import numpy as np
import pytest
import scipy.linalg

from resilient_consensus import (ControllerConfig, DesignError, DirectedGraph, LtiModel,
                                 coupling_range, design_controller, design_gain, joint_radius,
                                 list_scenarios, load_config, normalized_laplacian, solve_dare,
                                 theta_bound)

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


def test_theta_bound_formula_cases(example1_spectrum):
    # lam_min term hits zero through the Laplacian's zero eigenvalue
    ctrl = _ctrl_with([[1.0]], 1.0, 1.0, 1.0)
    object.__setattr__(ctrl, "R1_bar", np.array([[2.0]]))
    object.__setattr__(ctrl, "R1", np.array([[2.0]]))  # B'P1B = 0 -> bound 1/sqrt(2)
    assert abs(theta_bound(example1_spectrum, ctrl) - 1.0 / np.sqrt(2.0)) < 1e-12


def test_theta_bound_default_fraction(integrator, example1_spectrum, example1_ctrl):
    bound = theta_bound(example1_spectrum, example1_ctrl)
    assert abs(bound - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(example1_ctrl.theta - 0.9 * bound) < 1e-12


def test_theta_bound_nonzero_lambda_min():
    # synthetic spectrum whose eigenvalue products give lam_min = 2 -> bound 0.5
    from resilient_consensus import GraphSpectrum

    spectrum = GraphSpectrum(
        laplacian=np.eye(2), normalized_laplacian=np.eye(2),
        eigenvalues=np.array([1.0 + 0j]), left_eigvec_zero=None,
        root_set=frozenset(), zero_multiplicity=0)
    ctrl = _ctrl_with([[1.0]], 1.0, 1.0, 1.0)
    object.__setattr__(ctrl, "R1", np.array([[1.0]]))
    object.__setattr__(ctrl, "R1_bar", np.array([[3.0]]))  # B'P1B R1_bar^-1 = 2/3
    object.__setattr__(ctrl, "c", 3.0)                     # products: 3 * 1 * 2/3 = 2
    assert abs(theta_bound(spectrum, ctrl) - 0.5) < 1e-12


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
        assert 0 < ctrl.theta < theta_bound(spectrum, ctrl)
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
