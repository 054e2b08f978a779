import numpy as np
import pytest

import copy

from resilient_consensus import (BUNDLED_SCENARIOS, THETA_BOUND, AttackSpec, DirectedGraph,
                                 ScenarioConfig, consensus_error_threshold, constant_signal,
                                 design_controller, dtilde_bound, effective_attack, load_config,
                                 normalized_laplacian, run, signal_series, simulate,
                                 sinusoid_signal, tracking_error)
from resilient_consensus.defense import MAX_TERMS
from resilient_consensus.design import baseline_radius

from conftest import random_spanning_tree_digraph
from test_dynamics import kron_closed_loop, unit_gain_ctrl

X0_HAND = [1.0, 3.0, 0.0, 0.0]


def one_step(model, graph, spectrum, ctrl, x0, **kwargs):
    return simulate(model, graph, spectrum, ctrl, horizon=1, x0=x0, **kwargs)


def test_baseline_law_hand_values(integrator, example1_graph, example1_spectrum):
    ctrl = unit_gain_ctrl(integrator, K=[[1.0]], c=1.0)
    trace = one_step(integrator, example1_graph, example1_spectrum, ctrl, X0_HAND)
    np.testing.assert_allclose(trace.u[0, :, 0], [1.0, -1.0, 1.5, 0.5], atol=1e-15)

    consensus = one_step(integrator, example1_graph, example1_spectrum, ctrl, np.full(4, 2.5))
    assert np.abs(consensus.u).max() == 0.0


def test_compensator_arithmetic(integrator, example1_graph, example1_spectrum):
    # theta = 0.5, c = K = 1; a sensor value 2 on agent 1 makes eps_bar differ
    # from the predictor's eps_hat = [1, -1, 1.5, 0.5] by [1, -1, 1, 0] at k = 0
    ctrl = unit_gain_ctrl(integrator, K=[[1.0]], c=1.0)
    attack = AttackSpec(agent=1, channel="sensor", signal=constant_signal([2.0]))
    trace = simulate(integrator, example1_graph, example1_spectrum, ctrl, horizon=30,
                     x0=X0_HAND, attacks=[attack], controller="resilient")
    assert np.abs(trace.d[0]).max() == 0.0
    np.testing.assert_allclose(trace.d[1, :, 0], [-0.5, 0.5, -0.5, 0.0], atol=1e-15)

    # every later step obeys d(k+1) = theta c K (eps_hat - eps_bar) + theta d(k),
    # with eps_bar = -Lhat (x + s) read from the sensors
    s = np.zeros((30, 4, 1))
    s[:, 1] = signal_series(attack, 30)
    eps_hat = np.stack([tracking_error(xh, example1_spectrum) for xh in trace.x_hat])
    eps_bar = np.stack([tracking_error(xs, example1_spectrum) for xs in trace.x + s])
    expected = 0.5 * (eps_hat - eps_bar)[:-1] + 0.5 * trace.d[:-1]
    np.testing.assert_allclose(trace.d[1:], expected, rtol=1e-12, atol=1e-15)

    # zero error and zero estimate give a zero update
    clean = simulate(integrator, example1_graph, example1_spectrum, ctrl, horizon=30,
                     x0=X0_HAND, controller="resilient")
    assert np.abs(clean.d).max() == 0.0


def test_sensor_corruption_shifts_match_effective_attack(integrator, example1_graph,
                                                         example1_spectrum, example1_ctrl):
    # the control shift caused by corrupted measurements is exactly the
    # sensor part of the effective injection
    spec = AttackSpec(agent=1, channel="sensor", signal=constant_signal([2.0]))
    clean = one_step(integrator, example1_graph, example1_spectrum, example1_ctrl, X0_HAND)
    attacked = one_step(integrator, example1_graph, example1_spectrum, example1_ctrl, X0_HAND,
                        attacks=[spec])
    s = np.zeros((4, 1))
    s[1] = signal_series(spec, 1)[0]
    np.testing.assert_array_equal((attacked.x[0] + s)[:, 0], [1.0, 5.0, 0.0, 0.0])
    shift = attacked.u[0] - clean.u[0]
    f = effective_attack([spec], integrator, example1_spectrum, example1_ctrl, 0)
    np.testing.assert_allclose(shift, f, atol=1e-14)
    np.testing.assert_allclose(attacked.f[0], f, atol=1e-14)
    assert np.abs(shift[3]).max() == 0.0  # agent 3 has no edge from agent 1


def test_resilient_reduces_to_baseline_without_estimate(integrator, example1_graph,
                                                        example1_spectrum, example1_ctrl):
    # a compensator that never starts leaves d = 0, and the law is the baseline
    attacks = [AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0])),
               AttackSpec(agent=1, channel="sensor", signal=sinusoid_signal([0.5], 0.3))]
    kwargs = dict(horizon=200, x0=X0_HAND, attacks=attacks)
    base = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl, **kwargs)
    idle = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                    controller="resilient", compensator_start=200, **kwargs)
    assert np.abs(idle.d).max() == 0.0
    assert base.u.tobytes() == idle.u.tobytes()
    assert base.x.tobytes() == idle.x.tobytes()


def test_predictor_tracks_plant_exactly_without_attack(integrator, example1_graph,
                                                       example1_spectrum, example1_ctrl):
    trace = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                     horizon=150, x0=[2.0, 4.0, 9.0, -3.0])
    assert trace.x.tobytes() == trace.x_hat.tobytes()  # bit-identical dynamics

    # with a trusted leader the predictor applies the leader's u0 and the
    # followers' feed-forward terms exactly as the plant does
    leader = run(load_config("auv_healthy"))
    assert leader.x.tobytes() == leader.x_hat.tobytes()


def test_predictor_reaches_consensus_value(integrator, example1_graph, example1_spectrum,
                                           example1_ctrl):
    # the plant is attacked; the predictor still settles on the attack-free value
    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    trace = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                     horizon=250, x0=[2.0, 4.0, 9.0, -3.0], attacks=[attack],
                     controller="resilient")
    np.testing.assert_allclose(trace.final_x_hat, 3.0, atol=1e-9)


def test_predictor_pairwise_gaps_close(rotation2d, chain5_graph):
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(rotation2d, spectrum)
    rng = np.random.default_rng(2)
    trace = simulate(rotation2d, chain5_graph, spectrum, ctrl, horizon=400,
                     x0=np.zeros(10), predictor_init=rng.normal(size=10),
                     controller="resilient")
    X = trace.final_x_hat.reshape(5, 2)
    gaps = np.abs(X[:, None, :] - X[None, :, :]).max()
    assert gaps < 1e-6


def test_predictor_immune_to_attacks(integrator, example1_graph, example1_spectrum,
                                     example1_ctrl):
    x0 = [2.0, 4.0, 9.0, -3.0]
    clean = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                     horizon=200, x0=x0, controller="resilient")
    attacked = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                        horizon=200, x0=x0, controller="resilient",
                        attacks=[AttackSpec(agent=0, channel="actuator",
                                            signal=constant_signal([1.0])),
                                 AttackSpec(agent=2, channel="sensor",
                                            signal=sinusoid_signal([2.0], 0.9))])
    assert clean.x_hat.tobytes() == attacked.x_hat.tobytes()


def test_no_attack_neutrality(integrator, example1_graph, example1_spectrum, example1_ctrl):
    x0 = [2.0, 4.0, 9.0, -3.0]
    base = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                    horizon=200, x0=x0, controller="baseline")
    res = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                   horizon=200, x0=x0, controller="resilient")
    assert base.x.tobytes() == res.x.tobytes()
    assert np.abs(res.d).max() == 0.0


def test_compensator_estimates_constant_attack(integrator, example1_graph, example1_spectrum,
                                               example1_ctrl):
    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    trace = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                     horizon=3000, x0=[2.0, 4.0, 9.0, -3.0], controller="resilient",
                     attacks=[attack])
    d_tail = trace.d[-1]
    f_tail = trace.f[-1]
    residual = np.linalg.norm(d_tail - f_tail)
    bound = dtilde_bound(example1_ctrl, example1_spectrum, attack_bound=1.0, zeta=1.0)
    assert residual < bound
    assert residual < 1.0  # strictly better than no compensation at all


def test_dtilde_bound_formula(example1_spectrum, example1_ctrl):
    assert dtilde_bound(example1_ctrl, example1_spectrum, 0.0) == 0.0

    # doubling the attack bound doubles the radius
    one = dtilde_bound(example1_ctrl, example1_spectrum, 1.0)
    two = dtilde_bound(example1_ctrl, example1_spectrum, 2.0)
    assert abs(two - 2.0 * one) < 1e-12

    # hand values: 4 |direct - 1/theta| / (theta^-2 - 2), direct 1 or 2 by channel
    theta = example1_ctrl.theta
    for channel, direct in (("actuator", 1.0), ("sensor", 2.0)):
        expected = 4.0 * abs(direct - 1.0 / theta) / (theta ** -2 - 2.0)
        assert abs(dtilde_bound(example1_ctrl, example1_spectrum, 1.0, channel=channel)
                   - expected) <= 1e-12 * expected
    with pytest.raises(ValueError, match="unknown attack channel 'actuatr'"):
        dtilde_bound(example1_ctrl, example1_spectrum, 1.0, channel="actuatr")

    # blows up as theta approaches its admissible bound from below
    bound = THETA_BOUND
    import dataclasses
    close = dataclasses.replace(example1_ctrl, theta=bound * (1 - 1e-9))
    far = dataclasses.replace(example1_ctrl, theta=bound * 0.5)
    assert dtilde_bound(close, example1_spectrum, 1.0) > 1e6 * dtilde_bound(far, example1_spectrum, 1.0)

    over = dataclasses.replace(example1_ctrl, theta=bound * 1.01)
    with pytest.raises(ValueError, match="theta"):
        dtilde_bound(over, example1_spectrum, 1.0)


def test_consensus_error_stays_under_derived_threshold(integrator, example1_graph,
                                                       example1_spectrum, example1_ctrl):
    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    trace = simulate(integrator, example1_graph, example1_spectrum, example1_ctrl,
                     horizon=3000, x0=[2.0, 4.0, 9.0, -3.0], controller="resilient",
                     attacks=[attack])
    dbound = dtilde_bound(example1_ctrl, example1_spectrum, trace.attack_bound)
    threshold = consensus_error_threshold(integrator, example1_spectrum, example1_ctrl, dbound)
    assert trace.tail_consensus_error() < threshold


def kron_threshold(model, spectrum, ctrl, d_bound):
    """The l1 impulse-response sum of I (x) A - c Lhat (x) BK on the complement
    of the lam = 0 block's marginal modes, on dense Kronecker matrices."""
    N, n = spectrum.normalized_laplacian.shape[0], model.state_dim
    a_c = kron_closed_loop(model, spectrum, ctrl)
    proj = np.eye(N * n, dtype=complex)
    vals, right = np.linalg.eig(model.A)
    vals_l, left = np.linalg.eig(model.A.T)
    for lam in model.marginal_eigenvalues:
        rv = np.kron(np.ones(N), right[:, np.argmin(np.abs(vals - lam))])
        lv = np.kron(spectrum.left_eigvec_zero, left[:, np.argmin(np.abs(vals_l - lam))])
        proj -= np.outer(rv, lv) / (lv @ rv)
    term = proj @ np.kron(np.eye(N), model.B)
    gain = 0.0
    for _ in range(MAX_TERMS):
        rows = np.linalg.norm(term, axis=1).max()
        gain += rows
        if rows <= 1e-12 * max(gain, 1.0):
            return gain * d_bound
        term = proj @ (a_c @ term)
    raise AssertionError("reference series did not converge")


def with_leader_row(graph, rng):
    """``graph`` behind a new agent 0 that hears nobody (row 0 of Lhat is zero)
    and pins every root of ``graph`` plus a random follower."""
    n = graph.n_agents + 1
    a = np.zeros((n, n))
    a[1:, 1:] = graph.adjacency
    pinned = [1 + r for r in normalized_laplacian(graph).root_set]
    a[pinned + [int(rng.integers(1, n))], 0] = 1.0
    return DirectedGraph(a)


def test_threshold_equals_the_dense_kronecker_sum(integrator, rotation2d):
    """The threshold sums the matrix of ``engine._Law``'s attack-free step; it
    equals the sum on the dense Kronecker A_c to 1e-12, on the bundled
    resilient scenarios and on random graphs with and without a leader row."""
    cases = []
    for name, raw in BUNDLED_SCENARIOS.items():
        if raw["controller"] == "resilient":
            config = load_config(name)
            spectrum = normalized_laplacian(config.graph)
            cases.append((config.model, spectrum,
                          design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1)))
    assert len(cases) == 4
    rng = np.random.default_rng(22)
    for n in (3, 5, 8):
        for model in (integrator, rotation2d):
            graph = random_spanning_tree_digraph(n, rng, weighted=True)
            for g in (graph, with_leader_row(graph, rng)):
                spectrum = normalized_laplacian(g)
                cases.append((model, spectrum, design_controller(model, spectrum)))
    assert sum(not s.normalized_laplacian[0].any() for _, s, _ in cases) >= 6
    for model, spectrum, ctrl in cases:
        got = consensus_error_threshold(model, spectrum, ctrl, 2.5)
        want = kron_threshold(model, spectrum, ctrl, 2.5)
        assert abs(got - want) <= 1e-12 * want, (got, want)


def test_consensus_error_threshold_rejects_unconverged_series(integrator, example1_spectrum,
                                                             example1_ctrl):
    # a coupling that leaves the slowest block at radius 0.9999 needs far more
    # than MAX_TERMS impulse-response terms; a truncated sum would underestimate
    lam_m = example1_spectrum.nonzero_eigenvalues().real.min()
    c = 1e-4 / (lam_m * example1_ctrl.K[0, 0])
    ctrl = design_controller(integrator, example1_spectrum, c=c, theta=0.5)
    assert abs(baseline_radius(integrator, example1_spectrum, ctrl.K, ctrl.c) - 0.9999) < 1e-12
    with pytest.raises(ValueError, match="did not converge in 20000 terms"):
        consensus_error_threshold(integrator, example1_spectrum, ctrl, 1.0)


def test_consensus_error_shrinks_as_theta_grows(integrator, example1_graph, example1_spectrum):
    """Steady residual scales with (1 - theta): larger theta compensates harder.

    The analytic ultimate-bound formula decreases toward zero as theta -> 0,
    but the realized error moves the opposite way; this pins the realized
    direction (see the decisions ledger for the discrepancy analysis).
    """
    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    bound = 1.0 / np.sqrt(2.0)
    errors = []
    for frac in (0.35, 0.5, 0.65, 0.8, 0.95):
        ctrl = design_controller(integrator, example1_spectrum, theta=frac * bound)
        trace = simulate(integrator, example1_graph, example1_spectrum, ctrl,
                         horizon=3000, x0=[2.0, 4.0, 9.0, -3.0], controller="resilient",
                         attacks=[attack])
        errors.append(trace.tail_consensus_error())
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_sensor_attack_containment(integrator, chain5_graph):
    """Agents with no information path from the attacked sensor stay clean."""
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(integrator, spectrum)
    x0 = [2.0, 4.0, 9.0, -3.0, 5.0]
    attack = AttackSpec(agent=2, channel="sensor", signal=constant_signal([3.0]),
                        start_step=100)
    clean = simulate(integrator, chain5_graph, spectrum, ctrl, horizon=1500, x0=x0,
                     controller="resilient")
    attacked = simulate(integrator, chain5_graph, spectrum, ctrl, horizon=1500, x0=x0,
                        controller="resilient", attacks=[attack])
    dev = np.abs(attacked.x - clean.x).max(axis=(0, 2))
    # agents 0 and 1 cannot be reached from agent 2: untouched to the bit
    assert dev[0] == 0.0 and dev[1] == 0.0
    assert np.isfinite(attacked.inf_norms).all()
    assert not attacked.diverged


def sensor_case(base, agent, signal, start, controller):
    """Bundled scenario ``base`` with its attacks replaced by one unit sensor
    attack on every state of ``agent`` from ``start``, run under ``controller``
    (the compensator starts with the attack)."""
    raw = copy.deepcopy(BUNDLED_SCENARIOS[base])
    raw.update(name=f"{base}_sensor", controller=controller,
               attacks=[{"agent": agent, "channel": "sensor", "signal": signal,
                         "start": start}])
    if controller == "resilient":
        raw["compensator_start"] = start
    return run(ScenarioConfig.from_dict(raw))


@pytest.mark.parametrize("base, agent, signal, start, tails, intact", [
    ("auv_healthy", 3, {"type": "constant", "value": [1.0] * 4}, 61,
     (21.8913, 22.0293), (0, 1, 2, 5)),
    ("auv_healthy", 3, {"type": "sin", "amplitude": [1.0] * 4, "omega": 1.0}, 61,
     (26.8753, 230.9822), (0, 1, 2, 5)),
    ("example1_nonroot_attack", 2, {"type": "constant", "value": [1.0]}, 0,
     (1.0, 1.0), (0, 1, 3)),
    ("chain5_nonroot_attack", 2, {"type": "constant", "value": [1.0]}, 0,
     (1.0, 1.0), (0, 1, 4)),
], ids=["auv_const", "auv_sin", "example1", "chain5"])
def test_sensor_attacks_reach_the_same_agents_under_both_controllers(base, agent, signal,
                                                                     start, tails, intact):
    """README "Known limits" 5: the compensator leaves a sensor attack's reach
    as it is, keeps a constant one's tail level and amplifies an omega = 1 one
    about 8.6x, as for actuator attacks."""
    for controller, tail in zip(("baseline", "resilient"), tails):
        trace = sensor_case(base, agent, signal, start, controller)
        assert abs(trace.tail_consensus_error() - tail) <= 1e-3 * tail, controller
        assert trace.intact_agents == intact, controller
        assert not trace.diverged and trace.prediction == "BOUNDED_DEVIATION"
