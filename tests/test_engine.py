"""Checks of ``engine.simulate`` that do not go through its block operators.

The step law is checked on the stored arrays with the model matrices, the
designed gains and ``signal_series``; the ramp crossing is pinned to its
closed form; memory is measured with ``tracemalloc``.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from resilient_consensus import (BUNDLED_SCENARIOS, AttackSpec, ScenarioConfig, constant_signal,
                                 design_controller, load_config, normalized_laplacian, run,
                                 signal_series, simulate)
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
    # error-system block (4 + 4 + 1 states)
    predictor_block = engine.BLOCK_FLOATS // 4 ** 2
    error_block = engine.BLOCK_FLOATS // 9 ** 2
    assert step % predictor_block % error_block != 0

    trace = simulate(config.model, config.graph, spectrum, ctrl, horizon=50_000, x0=config.x0,
                     attacks=config.attacks, divergence_threshold=threshold, store_stride=1000)
    assert trace.first_crossing == step
    assert trace.steps_run == step
    assert trace.inf_norms[step] > threshold >= trace.inf_norms[:step].max()


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
