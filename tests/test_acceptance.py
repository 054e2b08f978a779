"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Criterion 6 asserts a mitigation that the implemented scheme cannot deliver as
stated (README, "Known limits of the compensator scheme"); its test keeps the
stated cases and thresholds and fails. Criterion 4 asserts the true scope of
the quadratic-form inequality x'(Lhat'Lhat - 2 Lhat)x <= 0: it holds for every
x exactly when 1'Lhat = 0.
"""

import time

import numpy as np
import pytest

from resilient_consensus import (DirectedGraph, ScenarioConfig, consensus_error_threshold,
                                 design_controller, dtilde_bound, list_scenarios, load_config,
                                 normalized_laplacian, run, simulate, solve_dare, write_csv,
                                 write_summary)
from resilient_consensus.design import baseline_radius

from conftest import bfs_roots, random_balanced_digraph, random_spanning_tree_digraph

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _design_for(config):
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1,
                             c=config.c, theta=config.theta)
    return spectrum, ctrl


def test_criterion_1_attack_free_consensus():
    config = load_config("example1_consensus")
    start = time.monotonic()
    trace = run(config)
    elapsed = time.monotonic() - start
    idx = int(np.searchsorted(trace.ks, 200))
    err_at_200 = np.abs(trace.x[idx] - 3.0).max()
    ok = err_at_200 < 1e-6 and elapsed < 1.0
    assert _report(1, ok, f"max|x(200) - 3| = {err_at_200:.3e}, runtime {elapsed:.3f}s")


def test_criterion_2_root_imp_destabilization():
    # divergence flag within 1e5 steps, at-least-linear growth
    config = load_config("example1_root_attack")
    raw = dict(config.raw)
    raw.update(horizon=100_000, store_stride=1_000)
    flag_trace = run(ScenarioConfig.from_dict(raw))
    flag_ok = flag_trace.diverged and flag_trace.steps_run <= 100_000
    slope_ok = flag_trace.tail_slope >= 0.25  # theory: p_1 |u_a| = 0.5 per step
    verdict_ok = (flag_trace.prediction == "DESTABILIZE"
                  and flag_trace.prediction_matches_divergence)

    # the ramp rate 0.5/step puts the 1e6 crossing near step 2e6
    raw2 = dict(raw)
    raw2.update(horizon=2_100_000, store_stride=100_000, divergence_threshold=1e6)
    crossing_trace = run(ScenarioConfig.from_dict(raw2))
    crossing = crossing_trace.first_crossing
    crossing_ok = crossing is not None and crossing <= 2_100_000

    ok = flag_ok and slope_ok and verdict_ok and crossing_ok
    assert _report(
        2, ok,
        f"flag within 1e5 steps: {flag_ok} (slope {flag_trace.tail_slope:.3f}/step); "
        f"verdict agreement: {verdict_ok}; ||x|| crosses 1e6 at step {crossing}")


def test_criterion_3_nonroot_bounded_deviation():
    config = load_config("chain5_nonroot_attack")
    raw = dict(config.raw)
    raw["horizon"] = 10_000
    attacked = run(ScenarioConfig.from_dict(raw))
    clean_raw = dict(raw)
    clean_raw.pop("attacks")
    clean = run(ScenarioConfig.from_dict(clean_raw))

    bounded = (not attacked.diverged) and attacked.inf_norms.max() < 1e3
    eps_ok = attacked.tail_eps_intact() < 1e-8
    gamma_ok = attacked.tail_gamma() > 0.1
    dev = np.abs(attacked.x - clean.x).max(axis=(0, 2))
    reachable_ok = dev[3] > 1e-3 and dev[4] > 1e-3
    unreachable_ok = dev[0] < 1e-8 and dev[1] < 1e-8

    ok = bounded and eps_ok and gamma_ok and reachable_ok and unreachable_ok
    assert _report(
        3, ok,
        f"bounded: {bounded} (max ||x|| = {attacked.inf_norms.max():.3g}); "
        f"tail eps intact = {attacked.tail_eps_intact():.2e}; "
        f"tail Gamma = {attacked.tail_gamma():.3f}; "
        f"reachable devs = {dev[3]:.3g}/{dev[4]:.3g}, unreachable = {dev[0]:.2e}/{dev[1]:.2e}")


def _form_max(L):
    """Largest value of x'(L'L - 2L)x over unit vectors x.

    The sign of a quadratic form is set by its symmetric part L'L - L - L';
    the eigenvalues of the non-symmetric L'L - 2L do not give it.
    """
    return np.linalg.eigvalsh(L.T @ L - L - L.T).max()


def test_criterion_4_spectral_invariants():
    """Unit-circle bound, root set, and the true scope of the form x'(L'L - 2L)x <= 0.

    With M = I - Lhat = (I+H)^-1 (I+A), which is row-stochastic, the form equals
    ||Mx||^2 - ||x||^2. It is <= 0 for every x exactly when ||M||_2 <= 1, which
    holds exactly when M is doubly stochastic, i.e. when 1'Lhat = 0: M1 = 1 and
    ||M||_2 <= 1 force M'1 = 1, and Birkhoff's theorem gives the converse. The
    random spanning-tree digraphs are almost never balanced, so a seeded family
    of normalized-balanced digraphs checks the side on which the form is <= 0.
    """
    rng = np.random.default_rng(2024)
    circle_ok = True
    quad_ok = True
    roots_ok = True
    n_balanced, balanced_worst = 0, -np.inf
    n_unbalanced, unbalanced_least = 0, np.inf
    for trial in range(500):
        n = int(rng.integers(2, 13))
        g = random_spanning_tree_digraph(
            n, rng, extra_edge_factor=rng.uniform(0.0, 0.4),
            weighted=bool(trial % 2))
        sp = normalized_laplacian(g)
        nz = sp.nonzero_eigenvalues()
        if nz.size and (np.abs(nz - 1.0) > 1.0 + 1e-9).any():
            circle_ok = False
        L = sp.normalized_laplacian
        form_max = _form_max(L)
        balanced = np.abs(L.sum(axis=0)).max() <= 1e-9
        if balanced:
            n_balanced += 1
            balanced_worst = max(balanced_worst, form_max)
        else:
            n_unbalanced += 1
            unbalanced_least = min(unbalanced_least, form_max)
        if (form_max <= 1e-9) != balanced:
            quad_ok = False
        if sp.root_set != frozenset(bfs_roots(g.adjacency)):
            roots_ok = False

    family_worst = -np.inf
    family_size = 200
    for trial in range(family_size):
        n = int(rng.integers(2, 13))
        degree = int(rng.integers(1, min(4, n - 1) + 1))
        weight = 1.0 if trial % 2 == 0 else float(rng.uniform(0.5, 2.0))
        sp = normalized_laplacian(random_balanced_digraph(n, rng, degree, weight))
        family_worst = max(family_worst, _form_max(sp.normalized_laplacian))
    family_ok = family_worst <= 1e-9

    ok = circle_ok and quad_ok and family_ok and roots_ok
    assert _report(
        4, ok,
        f"unit-circle bound: {circle_ok}; "
        f"max x'(L'L - 2L)x <= 1e-9 iff 1'L = 0: {quad_ok} "
        f"(balanced {n_balanced}, worst {balanced_worst:.3g}; "
        f"unbalanced {n_unbalanced}, least {unbalanced_least:.3g}); "
        f"form <= 1e-9 on balanced family: {family_ok} "
        f"({family_size} graphs, worst {family_worst:.3g}); "
        f"root set matches reachability oracle: {roots_ok}")


def test_criterion_5_riccati_correctness():
    def residual(A, B, P):
        n, m = A.shape[0], B.shape[1]
        gain = A.T @ P @ B @ np.linalg.solve(np.eye(m) + B.T @ P @ B, B.T @ P @ A)
        return np.linalg.norm(A.T @ P @ A - P - gain + np.eye(n), "fro")

    P_scalar = solve_dare([[1.0]], [[1.0]], 1.0, 1.0)
    scalar_ok = (abs(P_scalar[0, 0] - GOLDEN) < 1e-10
                 and residual(np.eye(1), np.eye(1), P_scalar) < 1e-8)

    residuals = {"scalar": residual(np.eye(1), np.eye(1), P_scalar)}
    for name in ("rotation2d", "auv_diving"):
        from resilient_consensus.scenarios import MODEL_PRESETS
        A = np.asarray(MODEL_PRESETS[name]["A"], dtype=float)
        B = np.asarray(MODEL_PRESETS[name]["B"], dtype=float)
        residuals[name] = residual(A, B, solve_dare(A, B, None, None))
    residual_ok = all(v < 1e-8 for v in residuals.values())

    schur_ok = True
    for name in list_scenarios():
        config = load_config(name)
        spectrum, ctrl = _design_for(config)
        if baseline_radius(config.model, spectrum, ctrl.K, ctrl.c) >= 1.0:
            schur_ok = False

    ok = scalar_ok and residual_ok and schur_ok
    assert _report(
        5, ok,
        f"residuals: { {k: float(f'{v:.3e}') for k, v in residuals.items()} }; "
        f"golden-ratio match: {scalar_ok}; designed gains Schur in all bundled "
        f"scenarios: {schur_ok}")


MITIGATION_CASES = [
    ("auv_sin_attack_agent3", "auv_sin_attack_agent3_resilient", 3),
    ("auv_const_attack_agent2", "auv_const_attack_agent2_resilient", 2),
    ("rotation2d_imp_root", "rotation2d_imp_root_resilient", 1),
    ("rotation2d_imp_nonroot", "rotation2d_imp_nonroot_resilient", 2),
]


def test_criterion_6_resilient_mitigation():
    """Resilient runs beat baseline 100x (or baseline diverges) and stay under the threshold.

    This fails, and no fault has been shown in either the program or the test:
    ``PAPER.md`` holds only the abstract, which claims secure consensus and
    recovery but gives no ratio and no compensator formula to compare with the
    compensator update in ``engine.simulate``. The cause in each case, at the bundled gains:

    - ``auv_const_attack_agent2``: ratio 1.55 = 1/(1 - theta) at theta = 0.3536.
      The compensator's leaky pole theta < 1/sqrt(2) caps the ratio below 3.42.
    - ``auv_sin_attack_agent3``: ratio 0.116; the compensator amplifies the
      attack 8.6x.
    - ``rotation2d_imp_nonroot``: ratio 1.00. The attack frequency is a plant
      pole, so the compensator scales the error by 1 - theta e^{-i omega}: the
      attacked agent's 2-norm error rises by sqrt(1 + theta^2) = 1.185 (1.741
      against 1.469), while the inf-norm recorded in ``consensus_err`` reads
      1.4688 in both runs.
    - ``rotation2d_imp_root``: resilient tail 469 against a threshold of 54.8.
      The compensator output stays in the range of Lhat (x) K, orthogonal to
      the root weights p, so the consensus mode drifts; the threshold bounds
      only the complement of the marginal modes.
    """
    start = time.monotonic()
    lines = []
    all_ok = True
    for base_name, res_name, attacked_agent in MITIGATION_CASES:
        base = run(load_config(base_name))
        res_config = load_config(res_name)
        res = run(res_config)
        spectrum, ctrl = _design_for(res_config)
        dbound = dtilde_bound(ctrl, spectrum, res.attack_bound, zeta=1.0)
        threshold = consensus_error_threshold(res_config.model, spectrum, ctrl, dbound)

        res_err = res.tail_consensus_error()
        base_err = base.tail_consensus_error()
        threshold_ok = res_err < threshold
        ratio = base_err / res_err if res_err > 0 else np.inf
        ratio_ok = base.diverged or ratio >= 100.0
        recovered = res.tail_consensus_error_per_agent()[attacked_agent] < threshold
        case_ok = threshold_ok and ratio_ok and recovered
        all_ok = all_ok and case_ok
        lines.append(
            f"{base_name}: resilient tail {res_err:.4g} vs threshold {threshold:.4g} "
            f"({'ok' if threshold_ok else 'FAIL'}); baseline tail {base_err:.4g} "
            f"ratio {ratio:.3g} diverged={base.diverged} ({'ok' if ratio_ok else 'FAIL'}); "
            f"attacked agent recovered: {recovered}")
    elapsed = time.monotonic() - start
    runtime_ok = elapsed < 10.0
    ok = all_ok and runtime_ok
    assert _report(6, ok, f"runtime {elapsed:.2f}s; " + " | ".join(lines))


def test_criterion_7_compensator_bound():
    graph = DirectedGraph.from_edges(4, [[1, 0], [0, 1], [1, 2], [0, 3]])
    spectrum = normalized_laplacian(graph)
    from resilient_consensus import AttackSpec, LtiModel, constant_signal

    model = LtiModel(A=[[1.0]], B=[[1.0]])
    theta_cap = 1.0 / np.sqrt(2.0)
    results = []
    all_ok = True
    for frac in (0.5, 0.65, 0.8, 0.95):
        ctrl = design_controller(model, spectrum, theta=frac * theta_cap)
        bound = dtilde_bound(ctrl, spectrum, attack_bound=1.0, zeta=1.0)
        for agent in (2, 0):  # non-root and root targets
            attack = AttackSpec(agent=agent, channel="actuator",
                                signal=constant_signal([1.0]))
            trace = simulate(model, graph, spectrum, ctrl, horizon=4000,
                             x0=[2.0, 4.0, 9.0, -3.0], attacks=[attack],
                             controller="resilient")
            tail = trace.tail_slice()
            dnorm = np.linalg.norm(
                (trace.d[tail] - trace.f[tail]).reshape(-1, trace.n_agents), axis=1)
            limsup = float(dnorm.max())
            point_ok = limsup <= bound
            all_ok = all_ok and point_ok
            results.append(f"theta={frac:.2f}*cap agent{agent}: "
                           f"{limsup:.3f} <= {bound:.3f} {'ok' if point_ok else 'FAIL'}")
    assert _report(7, all_ok, "; ".join(results))


def test_criterion_8_determinism_and_linearity(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        trace = run(load_config("example1_nonroot_attack"))
        csv_p = tmp_path / f"{tag}.csv"
        json_p = tmp_path / f"{tag}.json"
        write_csv(trace, str(csv_p))
        write_summary(trace, str(json_p))
        blobs.append((csv_p.read_bytes(), json_p.read_bytes()))
    deterministic = blobs[0] == blobs[1]

    from resilient_consensus import AttackSpec, LtiModel, constant_signal, sinusoid_signal

    rng = np.random.default_rng(88)
    superposition_ok = True
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 7))
        g = random_spanning_tree_digraph(n, rng, extra_edge_factor=0.25)
        sp = normalized_laplacian(g)
        model = LtiModel(A=[[1.0]], B=[[1.0]])
        ctrl = design_controller(model, sp)
        x0a, x0b = rng.normal(size=n), rng.normal(size=n)
        agents = rng.integers(0, n, size=2)
        at_a = [AttackSpec(agent=int(agents[0]), channel="actuator",
                           signal=constant_signal([float(rng.uniform(-1, 1))]))]
        at_b = [AttackSpec(agent=int(agents[1]), channel="actuator",
                           signal=sinusoid_signal([float(rng.uniform(-1, 1))],
                                                  float(rng.uniform(0.2, 2.0))))]

        def states(x0, attacks):
            return simulate(model, g, sp, ctrl, horizon=150, x0=x0,
                            attacks=attacks).x

        combined = states(x0a + x0b, at_a + at_b)
        split = states(x0a, at_a) + states(x0b, at_b)
        scale = max(np.abs(combined).max(), 1.0)
        rel = np.abs(combined - split).max() / scale
        worst = max(worst, rel)
        if rel > 1e-10:
            superposition_ok = False

    ok = deterministic and superposition_ok
    assert _report(
        8, ok,
        f"byte-identical re-runs: {deterministic}; superposition worst rel err {worst:.2e}")
