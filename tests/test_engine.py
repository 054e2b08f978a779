"""Checks of ``engine.simulate`` that do not go through its block operators.

The step law is checked on the stored arrays with the model matrices, the
designed gains and ``signal_series``; whole runs are compared with a one-step
recursion of the Kronecker-form closed loop; the ramp crossing is pinned to
its closed form; memory is measured with ``tracemalloc``.
"""

import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from resilient_consensus import (BUNDLED_SCENARIOS, AttackSpec, DirectedGraph, LtiModel,
                                 ScenarioConfig, constant_signal, design_controller, load_config,
                                 normalized_laplacian, run, signal_series, simulate)
from resilient_consensus import engine


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


def _assert_close(actual, expected, rtol=1e-9):
    scale = max(np.abs(expected).max(), 1.0)
    assert np.abs(actual - expected).max() <= rtol * scale


def test_step_law_holds_on_every_stored_step():
    raw = copy.deepcopy(BUNDLED_SCENARIOS["auv_sin_attack_agent3_resilient"])
    raw["attacks"].append({"agent": 4, "channel": "sensor", "start": 150,
                           "signal": {"type": "sin", "amplitude": [0.3, -0.2, 0.5, 0.1],
                                      "omega": 0.4}})
    raw["compensator_start"] = 131
    config = ScenarioConfig.from_dict(raw)
    N, n, m = config.graph.n_agents, config.model.state_dim, config.model.input_dim
    # the actuator attack, the compensator and the sensor attack start inside
    # predictor blocks (N n states and the leader phase), not at their ends
    block = engine.BLOCK_FLOATS // (N * n + 2) ** 2
    assert all(t % block for t in (61, 131, 150))

    trace = run(config)
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


def test_ramp_crossing_equals_closed_form_inside_a_block():
    config = load_config("example1_root_attack")
    spectrum, ctrl = _design(config)
    threshold = 1e4
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
    # the crossing lies strictly inside a predictor block (4 states) and an
    # error-system block (4 + 1 states: a baseline run carries no d)
    predictor_block = engine.BLOCK_FLOATS // 4 ** 2
    error_block = engine.BLOCK_FLOATS // 5 ** 2
    assert step % predictor_block % error_block != 0

    trace = simulate(config.model, config.graph, spectrum, ctrl, horizon=50_000, x0=config.x0,
                     attacks=config.attacks, divergence_threshold=threshold, store_stride=1000)
    assert trace.first_crossing == step
    assert trace.steps_run == step
    assert trace.inf_norms[step] > threshold >= trace.inf_norms[:step].max()


def test_error_system_carries_d_only_when_the_compensator_runs(monkeypatch):
    widths = []

    def recording(step, dim, limit, _original=engine._stacked_powers):
        widths.append(dim)
        return _original(step, dim, limit)

    monkeypatch.setattr(engine, "_stacked_powers", recording)
    config = load_config("example1_root_attack")
    spectrum, ctrl = _design(config)

    def error_widths(**kwargs):
        widths.clear()
        simulate(config.model, config.graph, spectrum, ctrl, horizon=300, x0=config.x0,
                 attacks=config.attacks, **kwargs)
        assert widths[0] == 4  # the predictor: the four agent states
        return set(widths[1:])

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


def _two_channel_config():
    """rotation2d, resilient, with the bundled actuator attack (from step 61) and a
    sensor attack on agent 4 from step 150: both channels, three regimes."""
    raw = copy.deepcopy(BUNDLED_SCENARIOS["rotation2d_imp_nonroot_resilient"])
    raw["attacks"].append({"agent": 4, "channel": "sensor", "start": 150,
                           "signal": {"type": "sin", "amplitude": [0.3, -0.2], "omega": 0.4}})
    return ScenarioConfig.from_dict(raw)


def _reference(config, spectrum, ctrl, horizon):
    """The leaderless closed loop, one step at a time in Kronecker form: states
    x, x_hat, d for k = 0..horizon and the law u and injection f for k < horizon."""
    N, n, m = config.graph.n_agents, config.model.state_dim, config.model.input_dim
    I = np.eye(N)
    A, B = np.kron(I, config.model.A), np.kron(I, config.model.B)
    LK = ctrl.c * np.kron(spectrum.normalized_laplacian, ctrl.K)
    s = _signals(config, "sensor", horizon, n).reshape(horizon, N * n)
    a = _signals(config, "actuator", horizon, m).reshape(horizon, N * m)
    x = np.empty((horizon + 1, N * n))
    x_hat = np.empty((horizon + 1, N * n))
    d = np.zeros((horizon + 1, N * m))
    u = np.empty((horizon, N * m))
    x[0] = x_hat[0] = np.asarray(config.x0, dtype=float).ravel()
    for k in range(horizon):
        u[k] = -LK @ (x[k] + s[k]) - d[k]
        x[k + 1] = A @ x[k] + B @ (u[k] + a[k])
        x_hat[k + 1] = (A - B @ LK) @ x_hat[k]
        if k >= config.compensator_start:
            d[k + 1] = ctrl.theta * (d[k] + LK @ (x[k] + s[k] - x_hat[k]))
    f = a - s @ LK.T
    return (x.reshape(-1, N, n), x_hat.reshape(-1, N, n), d.reshape(-1, N, m),
            u.reshape(-1, N, m), f.reshape(-1, N, m))


@pytest.mark.parametrize("block_floats, window_floats, horizon, stride", [
    # default sizes: one window; partial blocks at the switches and the end
    (None, None, 1000, 7),
    # a window capped at a horizon shorter than one predictor block
    (None, None, 100, 3),
    # blocks of 8 and 2 steps, windows of 32: switches inside GEMM'd blocks
    (800, 2000, 997, 13),
    # block length 1: the chain holds every state
    (150, 2000, 333, 5),
])
def test_runs_match_the_one_step_recursion(monkeypatch, block_floats, window_floats, horizon,
                                           stride):
    if block_floats is not None:
        monkeypatch.setattr(engine, "BLOCK_FLOATS", block_floats)
        monkeypatch.setattr(engine, "WINDOW_FLOATS", window_floats)
    config = _two_channel_config()
    spectrum, ctrl = _design(config)
    trace = simulate(config.model, config.graph, spectrum, ctrl, horizon=horizon, x0=config.x0,
                     attacks=config.attacks, controller="resilient",
                     compensator_start=config.compensator_start, store_stride=stride)
    x, x_hat, d, u, f = _reference(config, spectrum, ctrl, horizon)
    assert trace.steps_run == horizon and trace.first_crossing is None
    ks = np.arange(0, horizon, stride)
    assert list(trace.ks) == list(ks)
    for actual, expected in ((trace.x, x[ks]), (trace.x_hat, x_hat[ks]), (trace.d, d[ks]),
                             (trace.u, u[ks]), (trace.f, f[ks]),
                             (trace.final_x, x[-1].ravel()),
                             (trace.final_x_hat, x_hat[-1].ravel()),
                             (trace.inf_norms, np.abs(x).max(axis=(1, 2)))):
        _assert_close(actual, expected)
    assert trace.attack_bound == pytest.approx(np.linalg.norm(f, axis=(1, 2)).max(), rel=1e-12)
    reached = np.abs(f).max(axis=(0, 2)) > 1e-12
    assert trace.intact_agents == tuple(np.flatnonzero(~reached))
    # the sensor attack on agent 4 reaches its out-neighbours through Lhat
    if horizon > 150:
        assert reached.sum() > 1


def test_a_diverging_run_stops_at_its_crossing_without_warnings():
    raw = copy.deepcopy(BUNDLED_SCENARIOS["example1_consensus"])
    raw.update(c=50, theta=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run(ScenarioConfig.from_dict(raw))
    assert trace.first_crossing == trace.steps_run == 7
    assert trace.diverged


def _out_star(n_agents):
    """Agent 0 feeds every other agent: a spanning tree with Lhat eigenvalues 0 and 1/2."""
    return DirectedGraph.from_edges(n_agents, [[0, i] for i in range(1, n_agents)])


@pytest.mark.parametrize("case, horizons", [("auv", (5_000, 40_000)),
                                            ("network200", (200, 2_000))])
def test_workspace_stays_within_its_budget(monkeypatch, case, horizons):
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
    powers = []

    def recording(step, dim, limit, _original=engine._stacked_powers):
        powers.append(_original(step, dim, limit))
        return powers[-1]

    monkeypatch.setattr(engine, "_stacked_powers", recording)
    for horizon in horizons:
        powers.clear()
        tracemalloc.start()
        try:
            trace = simulate(model, graph, spectrum, ctrl, horizon=horizon, x0=x0,
                             store_stride=horizon, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.steps_run == horizon
        # the inf-norm series (8 bytes a step) and the stacked powers
        # (bounded by BLOCK_FLOATS, or one operator) come on top of the workspace
        extra = 8 * (horizon + 1) + sum(p.nbytes for p in powers)

        assert peak - extra <= 8 * engine.WINDOW_FLOATS + 256 * 1024
