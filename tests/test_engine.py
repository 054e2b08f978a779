"""Checks of ``engine.simulate`` that do not go through its block operators.

The step law is checked on the stored arrays with the model matrices, the
designed gains and ``signal_series``; whole runs are compared with a one-step
recursion of the Kronecker-form closed loop, on hand-picked cases and on
random ones, and with each other under superposition, relabelling and the
removal of attacks; the ramp crossing is pinned to its closed form; memory
is measured with ``tracemalloc``.
"""

import copy
import dataclasses
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spanning_tree_digraph
from resilient_consensus import (BUNDLED_SCENARIOS, AttackSpec, ControllerConfig, DirectedGraph,
                                 LeaderSpec, LtiModel, ScenarioConfig, constant_signal,
                                 design_controller, global_performance, load_config,
                                 normalized_laplacian, run, signal_series, simulate,
                                 sinusoid_signal)
from resilient_consensus import engine
from resilient_consensus.attacks import AttackGenerator, effective_injection


def _design(config):
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1,
                             c=config.c, theta=config.theta)
    return spectrum, ctrl


def _signals(config, channel, length, width):
    """Summed attack signals on one channel, (length, N, width)."""
    out = np.zeros((length, config.graph.n_agents, width))
    for spec in config.attacks:
        if spec.channel == channel:
            out[:, spec.agent] += signal_series(spec, length)
    return out


def _record_grids(monkeypatch):
    """One record per later run, from its one ``engine._grid`` call: the
    dimensions ``dims`` of (predictor, error system in each phase of the
    compensator the run has), the window ``span``, the block length ``B``,
    each system's group count ``C``, and ``arrays``: every matrix F and every
    stack of powers."""
    seen = []

    def recording(span, longest, *systems, _original=engine._grid):
        levels = _original(span, longest, *systems)
        dims = tuple(len(F) for F in systems)
        seen.append(types.SimpleNamespace(
            dims=dims, span=span, B=len(levels[0][0]) // dims[0],
            C=tuple(len(up) // dim for (_, up), dim in zip(levels, dims)),
            arrays=[*systems, *(a for pair in levels for a in pair)]))
        return levels

    monkeypatch.setattr(engine, "_grid", recording)
    return seen


def _assert_close(actual, expected, rtol=1e-9, scale=0.0):
    scale = max(np.abs(expected).max(initial=0.0), scale, 1.0)
    assert np.abs(actual - expected).max(initial=0.0) <= rtol * scale


def test_step_law_holds_on_every_stored_step(monkeypatch):
    raw = copy.deepcopy(BUNDLED_SCENARIOS["auv_sin_attack_agent3_resilient"])
    raw["attacks"].append({"agent": 4, "channel": "sensor", "start": 150,
                           "signal": {"type": "sin", "amplitude": [0.3, -0.2, 0.5, 0.1],
                                      "omega": 0.4}})
    raw["compensator_start"] = 131
    config = ScenarioConfig.from_dict(raw)
    N, n, m = config.graph.n_agents, config.model.state_dim, config.model.input_dim
    grids = _record_grids(monkeypatch)
    trace = run(config)
    # one grid, whose window is the whole run, with an error operator on each
    # side of the compensator's start; the actuator attack, the compensator and
    # the sensor attack start inside blocks of the segment before them, not at
    # their ends, and the predictor holds N n states and the leader phase
    (grid,) = grids
    assert len(grid.dims) == 3 and grid.dims[0] == N * n + 2 and grid.span == config.horizon
    assert all(length % grid.B for length in np.diff((0, 61, 131, 150)))
    spectrum, ctrl = _design(config)
    assert (trace.gains["c"], trace.gains["theta"]) == (ctrl.c, ctrl.theta)
    A, B, L, K = config.model.A, config.model.B, spectrum.normalized_laplacian, ctrl.K
    c, theta, leader = ctrl.c, ctrl.theta, config.leader
    T = config.horizon
    assert trace.steps_run == T and list(trace.ks) == list(range(T))
    s = _signals(config, "sensor", T, n)
    a = _signals(config, "actuator", T, m)
    ff = (config.graph.adjacency[:, 0] / (1.0 + config.graph.in_degrees))[:, None]
    ks = np.arange(T)
    compensating = (ks >= 131)[:, None, None]

    def law(measured, own, d):
        """u = c K eps_bar - d; the leader's u_0 = r(k) - K0 x_0 replaces agent 0's
        input, and each follower adds (1+h_i)^-1 a_i0 u_0."""
        U = c * (-L @ measured) @ K.T - d
        u0 = leader.amplitude * np.sin(leader.omega * ks)[:, None] - own[:, 0] @ leader.K0.T
        U[:, 0] = u0
        U[:, 1:] += ff[None, 1:] * u0[:, None]
        return U

    x, x_hat, u, d = trace.x, trace.x_hat, trace.u, trace.d
    _assert_close(u, law(x + s, x, np.where(compensating, d, 0.0)))
    u_hat = law(x_hat, x_hat, 0.0)

    x_next = np.concatenate([x[1:], trace.final_x.reshape(1, N, n)])
    _assert_close(x_next, x @ A.T + (u + a) @ B.T)
    _assert_close(x_hat[1:], (x_hat @ A.T + u_hat @ B.T)[:-1])
    _assert_close(trace.final_x_hat.reshape(N, n), x_hat[-1] @ A.T + u_hat[-1] @ B.T)
    update = theta * c * (-L @ x_hat + L @ (x + s)) @ K.T + theta * d
    _assert_close(d[1:], np.where(compensating, update, d)[:-1])
    assert np.abs(d[:132]).max() == 0.0
    assert np.abs(d[132]).max() > 0.0


def test_ramp_crossing_equals_closed_form_inside_a_block(monkeypatch):
    config = load_config("example1_root_attack")
    spectrum, ctrl = _design(config)
    threshold = 2e4
    (attack,) = config.attacks
    v = float(attack.signal.f0[0])
    p = spectrum.left_eigvec_zero
    L = spectrum.normalized_laplacian
    # after the transient x(k) = p'x0 + k p_a v + delta, with
    # c K Lhat delta = (e_a - p_a 1) v and p'delta = 0
    rhs = -p[attack.agent] * v * np.ones(4)
    rhs[attack.agent] += v
    delta = np.linalg.lstsq(np.vstack([ctrl.c * ctrl.K[0, 0] * L, p]), np.r_[rhs, 0.0],
                            rcond=None)[0]
    rate = p[attack.agent] * v
    offset = p @ config.x0 + delta.max()
    step = int(np.floor((threshold - offset) / rate)) + 1
    # no rounding can move the crossing: the ramp passes the threshold mid-step
    assert offset + (step - 1) * rate < threshold - 0.01 < threshold + 0.01 < offset + step * rate

    grids = _record_grids(monkeypatch)
    trace = simulate(config.model, config.graph, spectrum, ctrl, horizon=50_000, x0=config.x0,
                     attacks=config.attacks, divergence_threshold=threshold, store_stride=1000)
    # the run's one regime is longer than a window. The crossing lies past the
    # first window, strictly inside a block of the grid that the predictor (4
    # states) and the error system (4 + 1 states: a baseline run carries no d)
    # share; blocks restart at each window
    (grid,) = grids
    window = grid.span
    assert grid.dims == (4, 5) and 50_000 > step > window
    assert step % window % grid.B
    assert trace.first_crossing == step
    assert trace.steps_run == step
    assert trace.inf_norms[step] > threshold >= trace.inf_norms[:step].max()


def test_error_system_carries_d_only_when_the_compensator_runs(monkeypatch):
    grids = _record_grids(monkeypatch)
    config = load_config("example1_root_attack")
    spectrum, ctrl = _design(config)

    def error_widths(**kwargs):
        grids.clear()
        simulate(config.model, config.graph, spectrum, ctrl, horizon=300, x0=config.x0,
                 attacks=config.attacks, **kwargs)
        # the predictor: the four agent states
        assert {g.dims[0] for g in grids} == {4}
        return {g.dims[1] for g in grids}

    # e (4 states) and the attack generator (1); d (4) only while it can move
    assert error_widths() == {5}
    assert error_widths(controller="resilient", compensator_start=300) == {5}
    assert error_widths(controller="resilient") == {9}
    assert error_widths(controller="resilient", compensator_start=120) == {9}


def test_memory_grows_only_by_the_inf_norm_series():
    config = load_config("example1_root_attack")
    spectrum, ctrl = _design(config)

    def peak(horizon):
        tracemalloc.start()
        try:
            simulate(config.model, config.graph, spectrum, ctrl, horizon=horizon, x0=config.x0,
                     attacks=config.attacks, store_stride=horizon)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1000)
    small, large = peak(100_000), peak(400_000)
    # the inf-norm series takes 8 bytes a step; everything else is bounded
    assert large - small <= 1.25 * 8 * 300_000


@pytest.mark.parametrize("channel", ["actuator", "sensor"])
def test_attack_on_missing_agent_is_a_value_error(channel, integrator, example1_graph,
                                                  example1_spectrum, example1_ctrl):
    spec = AttackSpec(agent=4, channel=channel, signal=constant_signal([1.0]))
    with pytest.raises(ValueError, match=f"{channel} attack on agent 4 is out of range"):
        simulate(integrator, example1_graph, example1_spectrum, example1_ctrl, horizon=10,
                 x0=np.zeros(4), attacks=[spec])


@pytest.mark.parametrize("agent, signal, leader, message", [
    (4, [1.0], None, "actuator attack on agent 4 is out of range"),
    (1, [1.0, 2.0], None, "actuator attack on agent 1 has signal dimension 2, expected 1"),
    (0, [1.0], LeaderSpec(K0=np.array([[0.5]])), "the leader agent is trusted"),
], ids=["agent_out_of_range", "signal_width", "leader"])
def test_attacks_that_start_after_the_horizon_are_still_checked(
        agent, signal, leader, message, integrator, example1_graph, example1_spectrum,
        example1_ctrl):
    spec = AttackSpec(agent=agent, channel="actuator", signal=constant_signal(signal),
                      start_step=50)
    with pytest.raises(ValueError, match=message):
        simulate(integrator, example1_graph, example1_spectrum, example1_ctrl, horizon=10,
                 x0=np.zeros(4), attacks=[spec], leader=leader)


def _two_channel_config(sensor=(0.3, -0.2), actuator=1.0, sensor_agent=4):
    """rotation2d, resilient, with the bundled actuator attack (from step 61) and a
    sensor attack on agent 4 from step 150: both channels, three regimes. The
    amplitudes and the sensor's agent can be changed; ``actuator=None`` leaves
    the actuator attack out. The sensor sinusoid's phase is not 0, so its held
    generator state would read out a nonzero f before it starts."""
    raw = copy.deepcopy(BUNDLED_SCENARIOS["rotation2d_imp_nonroot_resilient"])
    if actuator is None:
        raw["attacks"].clear()
    else:
        raw["attacks"][0]["signal"]["amplitude"] = [actuator]
    raw["attacks"].append({"agent": sensor_agent, "channel": "sensor", "start": 150,
                           "signal": {"type": "sin", "amplitude": list(sensor), "omega": 0.4,
                                      "phase": 0.7}})
    return ScenarioConfig.from_dict(raw)


def _reference(config, spectrum, ctrl, horizon):
    """The closed loop, one step at a time in Kronecker form: states x, x_hat, d
    for k = 0..horizon and the law u and injection f for k < horizon. With a
    leader, agent 0 applies u_0 = r(k) - K0 x_0 in place of the consensus law,
    and each follower adds (1+h_i)^-1 a_i0 u_0."""
    N, n, m = config.graph.n_agents, config.model.state_dim, config.model.input_dim
    I = np.eye(N)
    A, B = np.kron(I, config.model.A), np.kron(I, config.model.B)
    LK = ctrl.c * np.kron(spectrum.normalized_laplacian, ctrl.K)
    s = _signals(config, "sensor", horizon, n).reshape(horizon, N * n)
    a = _signals(config, "actuator", horizon, m).reshape(horizon, N * m)
    leader = config.leader
    ff = config.graph.adjacency[1:, 0] / (1.0 + config.graph.in_degrees[1:])

    def law(k, own, measured, d):
        U = (-LK @ measured - d).reshape(N, m)
        if leader is not None:
            u0 = leader.amplitude * np.sin(leader.omega * k) - leader.K0 @ own[:n]
            U[0] = u0
            U[1:] += ff[:, None] * u0
        return U.ravel()

    x = np.empty((horizon + 1, N * n))
    x_hat = np.empty((horizon + 1, N * n))
    d = np.zeros((horizon + 1, N * m))
    u = np.empty((horizon, N * m))
    x[0] = np.asarray(config.x0, dtype=float).ravel()
    x_hat[0] = x[0] if config.predictor_init is None else config.predictor_init
    for k in range(horizon):
        u[k] = law(k, x[k], x[k] + s[k], d[k])
        x[k + 1] = A @ x[k] + B @ (u[k] + a[k])
        x_hat[k + 1] = A @ x_hat[k] + B @ law(k, x_hat[k], x_hat[k], 0.0)
        if config.controller == "resilient" and k >= config.compensator_start:
            d[k + 1] = ctrl.theta * (d[k] + LK @ (x[k] + s[k] - x_hat[k]))
    f = a - s @ LK.T
    return (x.reshape(-1, N, n), x_hat.reshape(-1, N, n), d.reshape(-1, N, m),
            u.reshape(-1, N, m), f.reshape(-1, N, m))


def _simulate_with(config, spectrum, ctrl, horizon, stride):
    return simulate(config.model, config.graph, spectrum, ctrl, horizon=horizon, x0=config.x0,
                    attacks=config.attacks, controller=config.controller,
                    compensator_start=config.compensator_start, leader=config.leader,
                    predictor_init=config.predictor_init, store_stride=stride,
                    divergence_threshold=config.divergence_threshold)


def _simulate(config, horizon, stride):
    spectrum, ctrl = _design(config)
    return _simulate_with(config, spectrum, ctrl, horizon, stride), spectrum, ctrl


def _assert_matches_reference(trace, config, spectrum, ctrl, stride, growing=False):
    """Every stored array, the final states, |x| and the injection peaks of a
    run of ``trace.steps_run`` steps against ``_reference``; f is evaluated
    densely, on every agent and input. Returns which agents the injection
    reached.

    The consensus error, eps and Gamma are differences of states, so the
    reference's rounding in them scales with |x|; so it does in d and u on a
    ``growing`` run, whose |x| can be far larger than either."""
    steps = trace.steps_run
    x, x_hat, d, u, f = _reference(config, spectrum, ctrl, steps)
    ks = np.arange(0, steps, stride)
    assert list(trace.ks) == list(ks)
    stored = x[ks]
    scale = np.abs(x).max()
    for actual, expected, power in (
            (trace.x, stored, 0), (trace.x_hat, x_hat[ks], 0), (trace.f, f[ks], 0),
            (trace.d, d[ks], growing), (trace.u, u[ks], growing),
            (trace.final_x, x[-1].ravel(), 0), (trace.final_x_hat, x_hat[-1].ravel(), 0),
            (trace.inf_norms, np.abs(x).max(axis=(1, 2)), 0),
            (trace.eps, -spectrum.normalized_laplacian @ stored, 1),
            (trace.consensus_err, np.abs(stored - x_hat[ks]).max(axis=2), 1),
            (trace.gamma, global_performance(stored, config.graph), 2)):
        assert actual.shape == expected.shape
        _assert_close(actual, expected, scale=scale ** power if power else 0.0)
    bound = np.linalg.norm(f, axis=(1, 2)).max(initial=0.0)
    assert trace.attack_bound == pytest.approx(bound, rel=1e-12, abs=1e-300)
    reached = np.abs(f).max(axis=(0, 2), initial=0.0) > 1e-12
    assert trace.intact_agents == tuple(np.flatnonzero(~reached))
    return reached


@pytest.mark.parametrize("block_floats, window_floats, horizon, stride", [
    # default sizes: one window; partial blocks at the switches and the end
    (None, None, 1000, 7),
    # a window capped at a short horizon
    (None, None, 100, 3),
    # blocks of 6 and 2 steps, windows of 35: switches inside GEMM'd blocks
    (800, 2000, 997, 13),
    # block length 1: the chain holds every state
    (150, 2000, 333, 5),
    # B C below the window in both systems: the block starts of a window follow
    # from more than one super-start, the switches fall inside second-level
    # groups, and the stride does not divide the window
    (800, 5900, 500, 7),
])
def test_runs_match_the_one_step_recursion(monkeypatch, block_floats, window_floats, horizon,
                                           stride):
    if block_floats is not None:
        monkeypatch.setattr(engine, "BLOCK_FLOATS", block_floats)
        monkeypatch.setattr(engine, "WINDOW_FLOATS", window_floats)
    grids = _record_grids(monkeypatch)
    config = _two_channel_config()
    trace, spectrum, ctrl = _simulate(config, horizon, stride)
    assert trace.steps_run == horizon and trace.first_crossing is None
    reached = _assert_matches_reference(trace, config, spectrum, ctrl, stride)
    # the sensor attack on agent 4 reaches its out-neighbours through Lhat
    if horizon > 150:
        assert reached.sum() > 1
    if window_floats == 5900:
        # the last regime, from the sensor attack's start at 150, is longer than
        # a window
        window = grids[-1].span
        assert window < horizon - 150 and window % stride
        assert all(g.B > 1 and g.B * max(g.C) < g.span for g in grids)
        # the error system's groups start at each window and at each switch; the
        # segments before the switches at 61 and 150 are shorter than a window,
        # and the switches fall inside groups
        (grid,) = grids
        assert 150 - 61 < window and grid.C[1] == grid.C[2]
        assert all(length % (grid.B * grid.C[1]) for length in (61, 150 - 61))


def test_attacks_from_the_horizon_on_leave_the_attack_free_run():
    """Attacks on both channels that start at and after the horizon of a
    resilient run: x, u and d are those of the run without them, and the
    verdict is CONSENSUS."""
    config = _two_channel_config()
    late = [dataclasses.replace(spec, start_step=400 + i) for i, spec in enumerate(config.attacks)]
    attacked, spectrum, ctrl = _simulate(dataclasses.replace(config, attacks=late), 400, 3)
    free = _simulate_with(dataclasses.replace(config, attacks=[]), spectrum, ctrl, 400, 3)
    for field in ("x", "u", "d"):
        np.testing.assert_array_equal(getattr(attacked, field), getattr(free, field))
    assert attacked.prediction == free.prediction == "CONSENSUS"


def test_a_run_builds_each_operator_and_one_grid_once(monkeypatch):
    """Four attack starts and the compensator's start inside the horizon: the
    run builds the predictor's matrix, one error operator on each side of the
    compensator's start and one grid of powers, and still matches the one-step
    recursion."""
    calls = dict.fromkeys(("_matrix", "_grid"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(engine, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(engine, name, counting)
    config = _two_channel_config()
    config = dataclasses.replace(config, attacks=[
        dataclasses.replace(config.attacks[i % 2], start_step=start)
        for i, start in enumerate((0, 100, 200, 300))])
    trace, spectrum, ctrl = _simulate(config, 400, 7)
    assert config.compensator_start < 400
    assert calls == {"_matrix": 3, "_grid": 1}
    _assert_matches_reference(trace, config, spectrum, ctrl, 7)


@pytest.mark.parametrize("stride", [1, 7])
def test_each_segment_forms_its_states_with_one_call_per_system(monkeypatch, stride):
    """Four attack starts and the compensator's start cut a run into five
    segments: each system's stored rows and the state that ends a segment
    come from one ``_at`` call, as many as its ``_propagate`` calls."""
    calls = dict.fromkeys(("_at", "_propagate"), 0)
    for name in calls:
        def counting(*args, _name=name, _original=getattr(engine, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(engine, name, counting)
    config = _two_channel_config()
    config = dataclasses.replace(config, attacks=[
        dataclasses.replace(config.attacks[i % 2], start_step=start)
        for i, start in enumerate((0, 100, 200, 300))])
    trace, spectrum, ctrl = _simulate(config, 400, stride)
    assert calls == {"_at": 10, "_propagate": 10}
    _assert_matches_reference(trace, config, spectrum, ctrl, stride)


def test_a_growing_attack_matches_the_one_step_recursion():
    """f = 1.05^(k - 500) on agent 2's actuator from step 500: before the start
    the error system's operator carries W = 1.05 on a generator state that is
    exactly zero, so every stored f before it is 0 and the run matches the
    one-step recursion up to its crossing."""
    raw = copy.deepcopy(BUNDLED_SCENARIOS["rotation2d_imp_nonroot_resilient"])
    raw["attacks"] = [{"agent": 2, "channel": "actuator", "start": 500,
                       "signal": {"type": "exogenous", "W": [[1.05]], "f0": [1.0]}}]
    config = ScenarioConfig.from_dict(raw)
    trace, spectrum, ctrl = _simulate(config, 2000, 7)
    assert trace.first_crossing is not None and trace.first_crossing > 500
    assert not trace.f[trace.ks < 500].any() and trace.f[trace.ks >= 500].any()
    _assert_matches_reference(trace, config, spectrum, ctrl, 7, growing=True)


def test_cut_powers_match_the_one_step_recursion(monkeypatch):
    """A POWER_LIMIT cut shortens the first level of the run's one grid, and
    leaves the error operator after the compensator's start no second level,
    while the one before it keeps both."""
    monkeypatch.setattr(engine, "BLOCK_FLOATS", 3000)
    monkeypatch.setattr(engine, "WINDOW_FLOATS", 8000)
    monkeypatch.setattr(engine, "POWER_LIMIT", 1.5)
    grids = _record_grids(monkeypatch)
    config = _two_channel_config()
    trace, spectrum, ctrl = _simulate(config, 500, 7)
    _assert_matches_reference(trace, config, spectrum, ctrl, 7)
    (grid,) = grids
    assert grid.B < engine._block_length(max(grid.dims), grid.span)
    assert grid.C[1] > 1 and grid.B * grid.C[1] < grid.span and grid.C[2] == 1


def test_a_budget_short_of_one_block_keeps_windows_of_many_blocks(monkeypatch):
    """At 2^15 floats the projected powers of the AUV run's longest block
    alone would overfill the window budget, which left windows of one step;
    the longest block shrinks to the one that gives the longest window."""
    monkeypatch.setattr(engine, "WINDOW_FLOATS", 1 << 15)
    grids = _record_grids(monkeypatch)
    config = load_config("auv_sin_attack_agent3_resilient")
    trace, spectrum, ctrl = _simulate(config, 2000, 7)
    _assert_matches_reference(trace, config, spectrum, ctrl, 7)
    # the last regime runs in windows
    window = grids[-1].span
    assert window < 2000 - sum(g.span for g in grids[:-1])
    assert all(g.B > 1 for g in grids) and window >= 10 * grids[-1].B


@st.composite
def _random_runs(draw):
    """A random run and the engine sizes to simulate it with: a graph with a
    spanning tree, with or without a leader; a model of dimension 1-3 with
    random gains, so that some loops grow; attacks on both channels whose
    starts may fall after the crossing or the horizon; a compensator start, a
    store stride, and BLOCK_FLOATS, WINDOW_FLOATS and POWER_LIMIT small enough
    for partial blocks and groups, cut powers, block length 1 and many
    windows. Returns the run's config, its controller, the stride, the patched
    sizes and the crossing step the threshold is placed at, if any."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N, n = draw(st.integers(2, 5)), draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    A = rng.normal(size=(n, n))
    A *= draw(st.sampled_from([0.5, 0.95, 1.0, 1.1])) / np.abs(np.linalg.eigvals(A)).max()
    model = LtiModel(A=A, B=rng.normal(size=(n, m)))
    ctrl = ControllerConfig(K=0.5 * rng.normal(size=(m, n)),
                            c=draw(st.sampled_from([0.2, 0.6, 1.0])), P1=np.eye(n),
                            Q1=np.eye(n), R1=np.eye(m), R1_bar=np.eye(m),
                            theta=draw(st.sampled_from([0.3, 0.65])), T=np.eye(m))
    horizon = draw(st.integers(1, 120))
    leader = None
    if draw(st.booleans()):
        leader = LeaderSpec(K0=0.3 * rng.normal(size=(m, n)),
                            amplitude=draw(st.sampled_from([0.5, 2.0])),
                            omega=draw(st.sampled_from([0.05, 0.7])))
    attacks = []
    for _ in range(draw(st.integers(0, 3))):
        channel = draw(st.sampled_from(["actuator", "sensor"]))
        width = n if channel == "sensor" else m
        amplitude = draw(st.lists(st.sampled_from([-1.5, -0.3, 0.0, 0.4, 2.0]),
                                  min_size=width, max_size=width))
        signal = (constant_signal(amplitude) if draw(st.booleans())
                  else sinusoid_signal(amplitude, draw(st.sampled_from([0.4, 1.3]))))
        attacks.append(AttackSpec(agent=draw(st.integers(leader is not None, N - 1)),
                                  channel=channel, signal=signal,
                                  start_step=draw(st.integers(0, horizon + 5))))
    x0 = rng.normal(size=N * n)
    config = types.SimpleNamespace(
        model=model, graph=random_spanning_tree_digraph(N, rng), x0=x0, attacks=attacks,
        controller=draw(st.sampled_from(["baseline", "resilient"])),
        compensator_start=draw(st.integers(0, horizon + 5)), leader=leader,
        predictor_init=x0 + 0.2 * rng.normal(size=N * n) if draw(st.booleans()) else None)
    sizes = {"BLOCK_FLOATS": draw(st.sampled_from([None, 1, 30, 120, 600])),
             "WINDOW_FLOATS": draw(st.sampled_from([None, 1, 60, 300, 1500])),
             "POWER_LIMIT": draw(st.sampled_from([None, 1.5, 20.0]))}
    stride = draw(st.integers(1, horizon + 1))
    crossing = draw(st.none() | st.integers(0, horizon))
    return config, ctrl, horizon, stride, sizes, crossing


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_random_runs())
def test_random_runs_match_the_one_step_recursion(case):
    config, ctrl, horizon, stride, sizes, crossing = case
    spectrum = normalized_laplacian(config.graph)
    norms = np.abs(_reference(config, spectrum, ctrl, horizon)[0]).max(axis=(1, 2))
    # a threshold halfway between the largest |x| before the drawn step and a
    # larger |x| at or after it, so that rounding cannot move the crossing;
    # without one that far above, the run does not cross
    peak = np.maximum.accumulate(norms)
    later = [k for k in range(crossing or 0, horizon + 1)
             if crossing is not None and norms[k] > 1.001 * (peak[k - 1] if k else 0.0)]
    if later:
        expected = later[0]
        threshold = (norms[expected] + (peak[expected - 1] if expected else 0.0)) / 2
    else:
        expected, threshold = None, 2.0 * peak[-1] + 1.0
    config.divergence_threshold = threshold
    with mock.patch.multiple(engine, **{k: getattr(engine, k) if v is None else v
                                        for k, v in sizes.items()}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = _simulate_with(config, spectrum, ctrl, horizon, stride)
    assert trace.first_crossing == expected
    assert trace.steps_run == (horizon if expected is None else expected)
    _assert_matches_reference(trace, config, spectrum, ctrl, stride, growing=True)


@pytest.mark.parametrize("case", ["zero_amplitude", "sensor_only", "starts_in_two_windows",
                                  "starts_after_the_crossing", "no_attack"])
def test_injection_peaks_match_a_dense_evaluation(monkeypatch, case):
    if case == "no_attack":
        config = dataclasses.replace(_two_channel_config(), attacks=[])
    elif case == "zero_amplitude":
        # every read-out column of the injection is zero
        config = _two_channel_config(sensor=(0.0, 0.0), actuator=0.0)
    elif case == "sensor_only":
        config = _two_channel_config(actuator=None, sensor_agent=2)
    elif case == "starts_after_the_crossing":
        config = dataclasses.replace(_two_channel_config(), divergence_threshold=4.0)
    else:
        monkeypatch.setattr(engine, "WINDOW_FLOATS", 2000)
        config = _two_channel_config()
    grids = _record_grids(monkeypatch)
    trace, spectrum, ctrl = _simulate(config, 400, 3)
    reached = _assert_matches_reference(trace, config, spectrum, ctrl, 3)
    # the stored f, which the loop's injection matrix reads off the stored
    # generator rows, is the injection of the signals read at those steps
    gen = AttackGenerator(config.attacks, 5, 2, 1)
    g = np.array([gen.state(int(k)) for k in trace.ks]).reshape(len(trace.ks), len(gen.g0))
    _assert_close(trace.f, effective_injection(*gen.read(g),
                                               spectrum.normalized_laplacian, ctrl.c, ctrl.K),
                  rtol=1e-12)
    if case in ("zero_amplitude", "no_attack"):
        assert trace.attack_bound == 0.0 and not reached.any()
    elif case == "sensor_only":
        # the sensor attack on agent 2 reaches its out-neighbours through Lhat
        heard = config.graph.adjacency[:, 2] > 0
        assert heard.any() and list(reached) == list(heard | (np.arange(5) == 2))
    elif case == "starts_after_the_crossing":
        # the sensor attack on agent 4 starts at 150, after the crossing, which
        # lies inside the segment before it, in the run's one window: its
        # generator rows are propagated and its columns read out, yet only the
        # actuator attack on agent 2 may count
        assert [g.span for g in grids] == [400]
        assert 61 < trace.first_crossing == trace.steps_run < 150
        assert list(np.flatnonzero(reached)) == [2] and 4 in trace.intact_agents
    else:
        # the last regime is longer than a window, and the two attacks' starts
        # are more than a window apart
        window = grids[-1].span
        assert window < 400 - 150 and window < 150 - 61


@pytest.mark.parametrize("case", ["auv_resilient", "diverging_ramp"])
def test_runs_agree_across_store_strides(monkeypatch, case):
    """Stride 1 takes the stored rows from one GEMM of the block starts with
    the powers, a longer stride from one gathered product per stored step;
    the read-outs, and so the verdict, do not depend on the stride. Both runs
    span several windows."""
    if case == "auv_resilient":
        config = dataclasses.replace(load_config("auv_sin_attack_agent3_resilient"),
                                     horizon=20_000)
    else:
        config = dataclasses.replace(load_config("example1_root_attack"), horizon=100_000,
                                     divergence_threshold=4e4)
    grids = _record_grids(monkeypatch)
    traces = {stride: _simulate(config, config.horizon, stride)[0]
              for stride in (1, 7, config.horizon)}
    base = traces[1]
    # the last regime runs to the end, so its segments are windows
    assert base.steps_run > 2 * grids[-1].span
    assert (base.first_crossing is None) == (case == "auv_resilient")
    for stride, trace in traces.items():
        assert ((trace.prediction, trace.diverged, trace.growth_detected,
                 trace.prediction_matches_divergence, trace.steps_run, trace.first_crossing)
                == (base.prediction, base.diverged, base.growth_detected,
                    base.prediction_matches_divergence, base.steps_run, base.first_crossing))
        assert trace.intact_agents == base.intact_agents
        assert trace.attack_bound == pytest.approx(base.attack_bound, rel=1e-12)
        for actual, expected in ((trace.inf_norms, base.inf_norms),
                                 (trace.final_x, base.final_x),
                                 (trace.final_x_hat, base.final_x_hat)):
            _assert_close(actual, expected, rtol=1e-12)
        assert list(trace.ks) == list(base.ks[::stride])
        # u, eps, the consensus error and Gamma are differences of states, whose
        # rounding scales with |x|
        scale = np.abs(base.x).max()
        for name, power in (("x", 0), ("x_hat", 0), ("d", 0), ("f", 0), ("u", 1), ("eps", 1),
                            ("consensus_err", 1), ("gamma", 2)):
            _assert_close(getattr(trace, name), getattr(base, name)[::stride], rtol=1e-12,
                          scale=scale ** power if power else 0.0)


def test_a_diverging_run_stops_at_its_crossing_without_warnings():
    raw = copy.deepcopy(BUNDLED_SCENARIOS["example1_consensus"])
    raw.update(c=50, theta=0.3, store_stride=3)
    config = ScenarioConfig.from_dict(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(config)
    assert trace.first_crossing == trace.steps_run == 7
    assert trace.diverged
    # the loop itself is unstable, and the prediction says so
    assert trace.prediction == "DESTABILIZE" and trace.prediction_matches_divergence
    # the crossing lies inside the run's one window, between stored steps; the
    # stored rows end before it and the final states are those at it
    assert trace.horizon > 7 and 7 % 3
    spectrum, ctrl = _design(config)
    _assert_matches_reference(trace, config, spectrum, ctrl, 3)
    assert list(trace.ks) == [0, 3, 6]
    # below a threshold near the largest float the stored u or Gamma of the
    # compensated loop overflow after the loop, and that warns no more than
    # the propagation does
    for c, threshold in ((1e3, 1e300), (1e6, 1e307)):
        raw = copy.deepcopy(BUNDLED_SCENARIOS["example1_consensus"])
        raw.update(c=c, theta=0.3, controller="resilient", divergence_threshold=threshold)
        config = ScenarioConfig.from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = run(config)
        assert trace.first_crossing == trace.steps_run < trace.horizon and trace.diverged
        assert np.abs(trace.x).max() <= threshold < trace.inf_norms[-1]
        assert not (np.isfinite(trace.u).all() and np.isfinite(trace.gamma).all())
        # the tail slope is a finite least-squares fit, even where the plain
        # running sums of a tail near the largest float overflow
        tail = trace.inf_norms[len(trace.inf_norms) - len(trace.inf_norms) // 2:]
        k = np.nonzero(np.isfinite(tail))[0]
        peak = np.abs(tail[k]).max()
        slope = np.polyfit(k, tail[k] / peak, 1)[0] * peak
        assert np.isfinite(trace.tail_slope)
        assert abs(trace.tail_slope - slope) <= 1e-12 * abs(slope)


@pytest.mark.parametrize("a, threshold, step", [(2.0, 1e9, 30),
                                                (1e200, np.finfo(float).max, 2)])
def test_the_run_stops_at_its_first_crossing(example1_graph, example1_spectrum, example1_ctrl,
                                             a, threshold, step):
    # agents that start together never couple, so each state is a^k: 2^30 is the
    # first power of two above 1e9, and 1e400 overflows to a non-finite norm; a
    # crossing at the horizon, in the end state, stops the run too
    model = LtiModel(A=[[a]], B=[[1.0]])
    for horizon in (200, step):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = simulate(model, example1_graph, example1_spectrum, example1_ctrl,
                             horizon=horizon, x0=np.ones(4), divergence_threshold=threshold)
        assert trace.first_crossing == trace.steps_run == step and trace.diverged
        assert len(trace.inf_norms) == step + 1
        assert not trace.inf_norms[step] <= threshold
        assert np.isfinite(trace.inf_norms[:step]).all()
        assert trace.inf_norms[:step].max() <= threshold
        assert np.isfinite(trace.inf_norms[step]) == (a == 2.0)


def _out_star(n_agents):
    """Agent 0 feeds every other agent: a spanning tree with Lhat eigenvalues 0 and 1/2."""
    return DirectedGraph.from_edges(n_agents, [[0, i] for i in range(1, n_agents)])


@pytest.mark.parametrize("case, horizons", [("auv", (5_000, 40_000)),
                                            ("network200", (200, 2_000)),
                                            ("network200_in_2^16_floats", (200, 2_000))])
def test_workspace_stays_within_its_budget(monkeypatch, case, horizons):
    if case == "network200_in_2^16_floats":
        # one step's projection, 201 x 601 floats, alone would overfill this budget
        monkeypatch.setattr(engine, "WINDOW_FLOATS", 1 << 16)
    if case == "auv":
        config = load_config("auv_sin_attack_agent3_resilient")
        model, graph, x0 = config.model, config.graph, config.x0
        kwargs = dict(attacks=config.attacks, controller="resilient",
                      compensator_start=config.compensator_start, leader=config.leader)
        spectrum, ctrl = _design(config)
    else:
        model, graph = LtiModel(A=[[1.0]], B=[[1.0]]), _out_star(200)
        x0 = np.linspace(-1.0, 1.0, 200)
        kwargs = dict(attacks=[AttackSpec(agent=5, channel="actuator",
                                          signal=constant_signal([1.0]))],
                      controller="resilient")
        spectrum = normalized_laplacian(graph)
        ctrl = design_controller(model, spectrum, c=1.0, theta=0.3)
    grids = _record_grids(monkeypatch)
    for horizon in horizons:
        grids.clear()
        tracemalloc.start()
        try:
            trace = simulate(model, graph, spectrum, ctrl, horizon=horizon, x0=x0,
                             store_stride=horizon, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.steps_run == horizon
        # the inf-norm series (8 bytes a step), the matrices F and the stacked
        # powers (bounded by BLOCK_FLOATS, or one operator), each buffer counted
        # once since stacks of one power and F^B are views, come on top of the
        # workspace
        buffers = {id(b): b for g in grids for b in (a if a.base is None else a.base
                                                     for a in g.arrays)}
        extra = 8 * (horizon + 1) + sum(b.nbytes for b in buffers.values())

        assert peak - extra <= 8 * engine.WINDOW_FLOATS + 256 * 1024
        if case != "auv":
            # blocks of one step: every stack is its system's F, not a copy
            for g in grids:
                F_P, F_Q, *stacks = g.arrays
                assert g.B == 1 and all(stack.base is F for stack, F in
                                        zip(stacks, (F_P, F_P, F_Q, F_Q)))
            # one-step blocks read their block starts alone, so windows stay long
            assert grids[-1].span > 1


def _metamorphic_run(rng, graph, compensator_start=70):
    """A leader-free resilient rotation2d run on ``graph`` with two attacks,
    an actuator constant on agent 2 from step 40 and a sensor sinusoid on the
    last agent from step 90, and its (model, spectrum, ctrl, kwargs). The
    coupling and theta are supplied, so that the design is the same for every
    graph with the same Laplacian spectrum."""
    model = load_config("rotation2d_imp_nonroot").model
    N, n = graph.n_agents, model.state_dim
    spectrum = normalized_laplacian(graph)
    ctrl = design_controller(model, spectrum, c=0.6, theta=0.3)
    attacks = [AttackSpec(agent=2, channel="actuator", start_step=40,
                          signal=constant_signal(rng.normal(size=1))),
               AttackSpec(agent=N - 1, channel="sensor", start_step=90,
                          signal=sinusoid_signal(rng.normal(size=n), 0.4, phase=rng.normal()))]
    kwargs = dict(x0=rng.normal(size=N * n), predictor_init=rng.normal(size=N * n),
                  attacks=attacks, controller="resilient", compensator_start=compensator_start)
    return model, spectrum, ctrl, kwargs


# the stored arrays and final states that are linear in the run's initial states
_LINEAR = ("x", "x_hat", "u", "d", "f", "eps", "final_x", "final_x_hat")


def test_runs_are_linear_in_their_initial_states():
    """Superposition: on a leader-free graph the run is linear in (x0,
    predictor_init, f0), f0 the initial states of the attack generators."""
    rng = np.random.default_rng(5)
    graph = random_spanning_tree_digraph(6, rng)
    model, spectrum, ctrl, kwargs = _metamorphic_run(rng, graph)

    def run_from(x0, predictor_init, *f0):
        attacks = [dataclasses.replace(spec, signal=dataclasses.replace(spec.signal, f0=f))
                   for spec, f in zip(kwargs["attacks"], f0)]
        return simulate(model, graph, spectrum, ctrl, horizon=300,
                        **dict(kwargs, x0=x0, predictor_init=predictor_init, attacks=attacks))

    first = [kwargs["x0"], kwargs["predictor_init"], *(s.signal.f0 for s in kwargs["attacks"])]
    second = [rng.normal(size=v.shape) for v in first]
    a, b = 0.7, -1.3
    one, other, total = traces = [run_from(*first), run_from(*second),
                                  run_from(*(a * u + b * v for u, v in zip(first, second)))]
    assert all(t.steps_run == 300 and t.first_crossing is None for t in traces)
    scale = max(np.abs(t.x).max() for t in traces)
    for name in _LINEAR:
        expected = a * getattr(one, name) + b * getattr(other, name)
        _assert_close(getattr(total, name), expected, rtol=1e-12, scale=scale)


def test_relabelling_the_agents_permutes_the_run():
    rng = np.random.default_rng(8)
    graph = random_spanning_tree_digraph(6, rng)
    model, spectrum, ctrl, kwargs = _metamorphic_run(rng, graph)
    N, n = graph.n_agents, model.state_dim
    label = rng.permutation(N)  # agent i is agent label[i] after relabelling
    adjacency = np.empty_like(graph.adjacency)
    adjacency[np.ix_(label, label)] = graph.adjacency
    relabelled = DirectedGraph(adjacency)
    spectrum_r = normalized_laplacian(relabelled)
    ctrl_r = design_controller(model, spectrum_r, c=ctrl.c, theta=ctrl.theta)
    assert np.array_equal(ctrl_r.K, ctrl.K) and (ctrl_r.c, ctrl_r.theta) == (ctrl.c, ctrl.theta)

    def permuted(v):
        out = np.empty_like(v.reshape(N, -1))
        out[label] = v.reshape(N, -1)
        return out.ravel()

    kwargs_r = dict(kwargs, x0=permuted(kwargs["x0"]),
                    predictor_init=permuted(kwargs["predictor_init"]),
                    attacks=[dataclasses.replace(spec, agent=int(label[spec.agent]))
                             for spec in kwargs["attacks"]])
    trace = simulate(model, graph, spectrum, ctrl, horizon=300, **kwargs)
    trace_r = simulate(model, relabelled, spectrum_r, ctrl_r, horizon=300, **kwargs_r)
    # the sensor attack reaches more agents than the two attacked ones
    assert trace.steps_run == 300 and len(trace.intact_agents) < N - 2
    assert trace_r.intact_agents == tuple(sorted(int(label[i]) for i in trace.intact_agents))
    assert ((trace_r.prediction, trace_r.diverged, trace_r.steps_run, trace_r.first_crossing)
            == (trace.prediction, trace.diverged, trace.steps_run, trace.first_crossing))
    assert trace_r.attack_bound == pytest.approx(trace.attack_bound, rel=1e-12)
    _assert_close(trace_r.inf_norms, trace.inf_norms, rtol=1e-12)
    scale = np.abs(trace.x).max()
    for name in _LINEAR + ("consensus_err",):
        original = getattr(trace, name)
        if name.startswith("final"):
            expected = permuted(original)
        else:
            expected = np.empty_like(original)
            expected[:, label] = original
        _assert_close(getattr(trace_r, name), expected, rtol=1e-12, scale=scale)
    _assert_close(trace_r.gamma, trace.gamma, rtol=1e-12, scale=scale ** 2)


def test_predictor_is_the_same_with_and_without_attacks(monkeypatch):
    """x_hat follows the predictor, which no attack touches: on the same block
    grid it is the same bit for bit."""
    config = dataclasses.replace(load_config("auv_sin_attack_agent3_resilient"), horizon=2000)
    spectrum, ctrl = _design(config)
    grids = _record_grids(monkeypatch)
    attacked, clean = (_simulate_with(dataclasses.replace(config, attacks=attacks), spectrum,
                                      ctrl, config.horizon, 7)
                       for attacks in (config.attacks, []))
    # each run has one grid, and both have the same window, blocks and
    # predictor groups; only the error system's size differs
    first, second = grids
    assert (first.span, first.B, first.C[0]) == (second.span, second.B, second.C[0])
    assert first.dims[1:] != second.dims[1:]
    assert attacked.attack_bound > 0.0 and clean.attack_bound == 0.0
    assert np.abs(attacked.x - clean.x).max() > 1e-3
    assert np.array_equal(attacked.x_hat, clean.x_hat)
    assert np.array_equal(attacked.final_x_hat, clean.final_x_hat)
