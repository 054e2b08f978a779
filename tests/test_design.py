import dataclasses
import importlib.util
import json
import sys
import threading
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_consensus import (BUNDLED_SCENARIOS, THETA_BOUND, ControllerConfig, DesignError,
                                 DirectedGraph, LtiModel, coupling_range, design_controller,
                                 design_gain, joint_radius, list_scenarios, load_config,
                                 normalized_laplacian, solve_dare)
from resilient_consensus import design, dynamics
from resilient_consensus.cli import main
from resilient_consensus.design import COUPLING_GRID, DESIGN_MEMO_SIZE
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


@pytest.mark.parametrize("case, q1", [
    pytest.param("rotation2d", 1.0, id="rotation2d"),
    pytest.param("auv", 1.0, id="auv"),
    # closed loops barely Schur, the hardest inputs for an iterative solver
    pytest.param("integrator", 1e-8, id="integrator-q1=1e-8"),
    pytest.param("rotation2d", 1e-6, id="rotation2d-q1=1e-6"),
])
def test_dare_against_scipy_oracle(case, q1, integrator, rotation2d, auv_model):
    model = {"integrator": integrator, "rotation2d": rotation2d, "auv": auv_model}[case]
    Q = q1 * np.eye(model.state_dim)
    P = solve_dare(model.A, model.B, Q, None)
    assert dare_residual(model.A, model.B, Q, np.eye(model.input_dim), P) < 1e-8
    P_oracle = scipy.linalg.solve_discrete_are(model.A, model.B, Q, np.eye(model.input_dim))
    np.testing.assert_allclose(P, P_oracle, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("r1", [1e4, 1e6])
def test_dare_accepts_exact_solution_of_large_norm(r1, tmp_path, auv_model):
    # ||P|| grows with r1 (2.6e7 at 1e6), and with it the rounding in the residual;
    # the residual is bounded relative to ||A'PA||_F + ||Q1||_F, not absolutely
    P = solve_dare(auv_model.A, auv_model.B, None, r1)
    P_oracle = scipy.linalg.solve_discrete_are(auv_model.A, auv_model.B, np.eye(4),
                                               r1 * np.eye(2))
    assert np.abs(P - P_oracle).max() <= 1e-8 * np.abs(P_oracle).max()
    cfg = tmp_path / "auv.json"
    cfg.write_text(json.dumps({**BUNDLED_SCENARIOS["auv_healthy"], "r1": r1}))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("model", sorted(MODEL_PRESETS))
@pytest.mark.parametrize("r1", [1.0, 1e4, 1e6])
def test_dare_rejects_inexact_solution(monkeypatch, model, r1):
    solve = design._dare_doubling
    monkeypatch.setattr(design, "_dare_doubling", lambda *args: solve(*args) * (1.0 + 1e-6))
    preset = MODEL_PRESETS[model]
    with pytest.raises(DesignError, match="Riccati residual"):
        solve_dare(preset["A"], preset["B"], None, r1)


def test_dare_rejects_bad_weights():
    with pytest.raises(ValueError):
        solve_dare([[1.0]], [[1.0]], -1.0, 1.0)
    with pytest.raises(ValueError):
        solve_dare([[1.0]], [[1.0]], 1.0, np.zeros((1, 1)))
    # a non-symmetric weight fails as itself, not later as a Riccati residual
    with pytest.raises(ValueError, match="R1 must be symmetric"):
        solve_dare(0.5 * np.eye(2), np.eye(2), 1.0, [[1.0, 0.1], [-0.1, 1.0]])
    with pytest.raises(ValueError, match="Q1 must be finite"):
        solve_dare([[1.0]], [[1.0]], float("nan"), 1.0)


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


def test_design_controller_rejects_nonpositive_coupling(integrator, example1_spectrum,
                                                       synthesis_runs, cold_designs):
    # checked before the memo is read, on every call, and never remembered
    for c in (0.0, -1.0, float("nan")):
        for _ in range(2):
            with pytest.raises(ValueError, match="coupling c must be positive"):
                design_controller(integrator, example1_spectrum, c=c)
            with pytest.raises(ValueError, match="coupling c must be positive"):
                design_controller(integrator, example1_spectrum, c=c, theta=0.5)
    assert not synthesis_runs and not cold_designs


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


def test_midpoint_coupling_with_last_resort_theta(integrator, example1_spectrum):
    # Q1 = 1e-8 makes the analytic interval nonempty and its midpoint stabilizing, yet
    # no theta fraction keeps the joint blocks within the margin
    ctrl = design_controller(integrator, example1_spectrum, Q1=1e-8)
    assert (ctrl.c, ctrl.theta) == (72.71244590764849, 0.1414213562373095)
    assert ctrl.notes == ("c = midpoint of the analytic coupling interval",
                          "warning: no (c, theta) pair met the joint Schur margin")
    # a supplied theta takes the first candidate coupling, midpoint or grid
    ctrl = design_controller(integrator, example1_spectrum, Q1=1e-8, theta=0.3)
    assert (ctrl.c, ctrl.theta) == (72.71244590764849, 0.3)
    assert ctrl.notes[1] == "theta supplied by configuration"
    ctrl = design_controller(integrator, example1_spectrum, theta=0.3)
    assert (ctrl.c, ctrl.theta) == (2.16, 0.3)
    assert ctrl.notes == ("analytic coupling interval empty; grid fallback over (0.02, 4] used",
                          "theta supplied by configuration")


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


def _core_periphery_graph():
    """``core_periphery_graph`` of the benchmark's large_network workload, read
    from its file, so that the pins below are its draws."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # its dataclasses look their module up by name
    return module.core_periphery_graph


GRID_NOTES = {"single_integrator": "analytic coupling interval empty; grid fallback over "
                                   "(0.02, 4] used",
              "rotation2d": "analytic coupling interval unbounded; grid fallback used"}
# (model, N, rng seed): (c, theta) as float hex, with theta = 0.9 * theta_bound
NETWORK_GAINS = {
    ("single_integrator", 50, 11): ("0x1.eb851eb851eb9p-1", "0x1.45d5b5c3f4f6bp-1"),
    ("single_integrator", 50, 12): ("0x1.0f5c28f5c28f6p+0", "0x1.45d5b5c3f4f6bp-1"),
    ("single_integrator", 200, 11): ("0x1.ccccccccccccdp-1", "0x1.45d5b5c3f4f6bp-1"),
    ("single_integrator", 200, 12): ("0x1.7ae147ae147aep-1", "0x1.45d5b5c3f4f6bp-1"),
    ("rotation2d", 50, 11): ("0x1.b851eb851eb85p-1", "0x1.45d5b5c3f4f6bp-1"),
}


def test_core_periphery_network_gains_pinned(cold_designs):
    """Designs on the benchmark's random networks, pinned bit for bit; the
    AUV has no stabilizing grid coupling on them."""
    graph = _core_periphery_graph()
    for (preset, N, seed), (c, theta) in NETWORK_GAINS.items():
        model = LtiModel(A=MODEL_PRESETS[preset]["A"], B=MODEL_PRESETS[preset]["B"])
        edges, _ = graph(N, np.random.default_rng(seed))
        ctrl = design_controller(model, normalized_laplacian(DirectedGraph.from_edges(N, edges)))
        assert (ctrl.c.hex(), ctrl.theta.hex()) == (c, theta), (preset, N, seed)
        assert ctrl.notes == (GRID_NOTES[preset],
                              "theta = 0.9 * theta_bound keeps compensator blocks Schur")
    auv = LtiModel(A=MODEL_PRESETS["auv_diving"]["A"], B=MODEL_PRESETS["auv_diving"]["B"])
    edges, _ = graph(50, np.random.default_rng(11))
    with pytest.raises(DesignError, match="no coupling on the search grid"):
        design_controller(auv, normalized_laplacian(DirectedGraph.from_edges(50, edges)))


@pytest.mark.parametrize("entries", [1, 7, 64])
def test_stack_size_leaves_designs_unchanged(monkeypatch, cold_designs, entries):
    """Eigenvalue stacks of a few entries, so that the builder and the theta
    search take many chunks, give every bundled design bit for bit."""
    want = {}
    for name in list_scenarios():
        config = load_config(name)
        want[name] = design_controller(config.model, normalized_laplacian(config.graph),
                                       Q1=config.q1, R1=config.r1, c=config.c,
                                       theta=config.theta)
    cold_designs.clear()
    monkeypatch.setattr(dynamics, "STACK_ENTRIES", entries)
    monkeypatch.setattr(design, "STACK_ENTRIES", entries)
    for name in list_scenarios():
        config = load_config(name)
        got = design_controller(config.model, normalized_laplacian(config.graph),
                                Q1=config.q1, R1=config.r1, c=config.c, theta=config.theta)
        assert got is not want[name]
        assert_same_design(got, want[name])


def assert_same_design(a, b):
    """Every field equal, arrays bit for bit."""
    for f in dataclasses.fields(ControllerConfig):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert x == y, f.name


def test_memo_hit_equals_cold_design_on_bundled_scenarios(cold_designs):
    for name in list_scenarios():
        config = load_config(name)
        args = (config.model, normalized_laplacian(config.graph))
        kwargs = dict(Q1=config.q1, R1=config.r1, c=config.c, theta=config.theta)
        cold_designs.clear()
        cold = design_controller(*args, **kwargs)
        hit = design_controller(*args, **kwargs)
        assert hit is cold, name
        cold_designs.clear()
        assert_same_design(design_controller(*args, **kwargs), hit)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_agents=st.integers(2, 6),
       model=st.sampled_from(sorted(MODEL_PRESETS)),
       supplied=st.sampled_from([{}, {"c": 1.3}, {"c": 1.3, "theta": 0.5}]))
def test_memo_hit_equals_cold_design(seed, n_agents, model, supplied):
    spectrum = normalized_laplacian(
        random_spanning_tree_digraph(n_agents, np.random.default_rng(seed)))
    preset = MODEL_PRESETS[model]
    lti = LtiModel(A=preset["A"], B=preset["B"])
    design._designs.clear()
    try:
        cold = design_controller(lti, spectrum, **supplied)
    except DesignError:
        with pytest.raises(DesignError):  # a failure is not remembered
            design_controller(lti, spectrum, **supplied)
        assert not design._designs
        return
    assert design_controller(lti, spectrum, **supplied) is cold
    design._designs.clear()
    assert_same_design(design_controller(lti, spectrum, **supplied), cold)


def test_memo_tells_every_input_apart(integrator, example1_spectrum, chain5_graph,
                                     synthesis_runs):
    base = dict(model=integrator, spectrum=example1_spectrum, Q1=None, R1=None,
                c=1.2, theta=0.5)
    variants = [{}, {"model": LtiModel(A=[[0.9]], B=[[1.0]])},
                {"model": LtiModel(A=[[1.0]], B=[[2.0]])}, {"Q1": 2.0}, {"R1": 2.0},
                {"spectrum": normalized_laplacian(chain5_graph)}, {"c": 1.3},
                {"theta": 0.4}, {"theta": None}, {"c": None, "theta": None}]
    designs = [design_controller(**{**base, **v}) for v in variants]
    assert len(synthesis_runs) == len(variants) == len({id(d) for d in designs})
    for v, ctrl in zip(variants, designs):
        design._designs.clear()
        assert_same_design(design_controller(**{**base, **v}), ctrl)


def test_memo_result_arrays_are_read_only(integrator, example1_spectrum, cold_designs):
    ctrl = design_controller(integrator, example1_spectrum)
    for name in ("K", "P1", "Q1", "R1", "R1_bar", "T"):
        array = getattr(ctrl, name)
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    varied = dataclasses.replace(ctrl, c=1.0)
    assert varied.c == 1.0 and ctrl.c == 2.16


def test_memo_keeps_its_own_copy_of_the_weights(rotation2d, chain5_graph, synthesis_runs):
    spectrum = normalized_laplacian(chain5_graph)
    Q1 = np.diag([2.0, 0.5])
    original = Q1.copy()
    ctrl = design_controller(rotation2d, spectrum, Q1=Q1)
    assert Q1.flags.writeable and ctrl.Q1 is not Q1
    Q1[0, 0] = 7.0
    np.testing.assert_array_equal(ctrl.Q1, original)
    changed = design_controller(rotation2d, spectrum, Q1=Q1)
    assert changed is not ctrl and changed.Q1[0, 0] == 7.0
    assert design_controller(rotation2d, spectrum, Q1=original) is ctrl
    assert len(synthesis_runs) == 2


def test_memo_shared_by_relabelled_isospectral_graphs(integrator, rotation2d, auv_model,
                                                      example1_graph, chain5_graph,
                                                      cold_designs):
    auv_graph = DirectedGraph.from_edges(6, [[0, 1], [0, 2], [2, 1], [2, 3], [3, 4], [4, 5]])
    rng = np.random.default_rng(8)
    for model, graph in ((integrator, example1_graph), (rotation2d, chain5_graph),
                         (auv_model, auv_graph)):
        spectra = [normalized_laplacian(graph)]
        for perm in (rng.permutation(graph.n_agents), np.arange(graph.n_agents)[::-1]):
            relabelled = DirectedGraph(graph.adjacency[np.ix_(perm, perm)])
            assert not np.array_equal(relabelled.adjacency, graph.adjacency)
            spectra.append(normalized_laplacian(relabelled))
            assert (spectra[-1].nonzero_eigenvalues().tobytes()
                    == spectra[0].nonzero_eigenvalues().tobytes())
        colds = []
        for spectrum in spectra:
            cold_designs.clear()
            colds.append(design_controller(model, spectrum))
        cold_designs.clear()
        shared = [design_controller(model, spectrum) for spectrum in spectra]
        assert len(cold_designs) == 1
        for ctrl, cold in zip(shared, colds):
            assert ctrl is shared[0]
            assert_same_design(ctrl, cold)


def test_memo_is_bounded_and_evicts_least_recently_used(integrator, example1_spectrum,
                                                        synthesis_runs, cold_designs):
    couplings = 1.0 + 0.01 * np.arange(DESIGN_MEMO_SIZE + 1)

    def designed(i):
        return design_controller(integrator, example1_spectrum, c=couplings[i], theta=0.5)

    first = designed(0)
    for i in range(1, DESIGN_MEMO_SIZE):
        designed(i)
        assert len(cold_designs) == i + 1
    assert designed(0) is first  # a hit, which makes entry 1 the least recently used
    designed(DESIGN_MEMO_SIZE)
    assert len(cold_designs) == DESIGN_MEMO_SIZE
    assert len(synthesis_runs) == DESIGN_MEMO_SIZE + 1
    assert designed(0) is first and designed(2).c == couplings[2]
    assert len(synthesis_runs) == DESIGN_MEMO_SIZE + 1
    designed(1)  # evicted, so designed again
    assert len(synthesis_runs) == DESIGN_MEMO_SIZE + 2
    assert len(cold_designs) == DESIGN_MEMO_SIZE


def test_memo_hit_makes_no_radius_calls(monkeypatch, rotation2d, chain5_graph, cold_designs):
    calls = []
    for name in ("baseline_radius", "joint_radius"):
        def counted(*args, _fn=getattr(design, name)):
            calls.append(_fn)
            return _fn(*args)
        monkeypatch.setattr(design, name, counted)
    spectrum = normalized_laplacian(chain5_graph)
    cold = design_controller(rotation2d, spectrum)
    assert calls
    calls.clear()
    assert design_controller(rotation2d, spectrum) is cold
    assert not calls


def test_memo_does_not_keep_failures(synthesis_runs, cold_designs):
    # a marginal uncontrollable mode: the Riccati solve fails on every call
    with pytest.warns(UserWarning, match="not stabilizable"):
        model = LtiModel(A=np.eye(2), B=[[1.0], [0.0]])
    spectrum = normalized_laplacian(DirectedGraph.from_edges(3, [[0, 1], [1, 2]]))
    for _ in range(2):
        with pytest.raises(DesignError):
            design_controller(model, spectrum)
    assert len(synthesis_runs) == 2 and not cold_designs
    for _ in range(2):
        with pytest.raises(ValueError, match="Q1 must be symmetric"):
            design_controller(model, spectrum, Q1=[[1.0, 0.1], [-0.1, 1.0]])
    assert len(synthesis_runs) == 2 and not cold_designs


class _YieldingMemo(OrderedDict):
    """A memo whose lookups let other threads run before the caller goes on."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(1e-3)
        return value


def test_memo_under_concurrent_callers(monkeypatch, integrator, example1_spectrum):
    # more threads than cores, each lookup yielding, over more inputs than the memo holds
    memo = _YieldingMemo()
    monkeypatch.setattr(design, "_designs", memo)
    monkeypatch.setattr(design, "DESIGN_MEMO_SIZE", 3)
    couplings = [1.0 + 0.1 * i for i in range(4)]
    expected = {c: design_controller(integrator, example1_spectrum, c=c, theta=0.5).K.tobytes()
                for c in couplings}
    errors = []

    def caller(offset):
        try:
            for i in range(60):
                c = couplings[(i + offset) % len(couplings)]
                ctrl = design_controller(integrator, example1_spectrum, c=c, theta=0.5)
                assert ctrl.c == c and ctrl.K.tobytes() == expected[c]
                assert len(memo) <= 3
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
