import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import unit_gain_ctrl

from resilient_consensus import (AttackSpec, DirectedGraph, ExogenousSignal, LtiModel, Verdict,
                                 attack_projection, constant_signal, design_controller,
                                 destabilization_verdict, effective_attack, normalized_laplacian,
                                 root_targeted, signal_series, sinusoid_signal)
from resilient_consensus.attacks import AttackGenerator


def test_constant_signal_values():
    spec = AttackSpec(agent=0, channel="actuator", signal=constant_signal([1.0]))
    series = signal_series(spec, 101)
    np.testing.assert_allclose(series[100], [1.0])
    np.testing.assert_allclose(series[0], [1.0])


def test_zero_before_start():
    spec = AttackSpec(agent=1, channel="sensor",
                      signal=sinusoid_signal([2.0, 3.0], 0.7), start_step=50)
    series = signal_series(spec, 61)
    for k in (0, 10, 49):
        assert np.abs(series[k]).max() == 0.0
    assert np.abs(series[60]).max() > 0.0
    assert np.abs(signal_series(spec, 50)).max() == 0.0  # ends before the start


def test_rotation_generator_matches_sine():
    # W = rotation, f0 = [0, a]: first component is a sin(w k)
    omega, a = 0.31, 2.5
    W = np.array([[np.cos(omega), np.sin(omega)], [-np.sin(omega), np.cos(omega)]])
    spec = AttackSpec(agent=0, channel="actuator",
                      signal=ExogenousSignal(W=W, f0=[0.0, a]))
    series = signal_series(spec, 194)
    for k in (0, 1, 7, 40, 193):
        expected = np.linalg.matrix_power(W, k) @ np.array([0.0, a])
        np.testing.assert_allclose(series[k], expected, atol=1e-10)
        assert abs(series[k][0] - a * np.sin(omega * k)) < 1e-9


def test_sinusoid_signal_closed_form():
    spec = AttackSpec(agent=0, channel="actuator",
                      signal=sinusoid_signal([10.0, 10.0], 1.0), start_step=61)
    series = signal_series(spec, 200)
    ks = np.arange(200)
    expected = np.where(ks[:, None] >= 61, 10.0 * np.sin(1.0 * (ks[:, None] - 61)), 0.0)
    np.testing.assert_allclose(series, np.repeat(expected, 2, axis=1), atol=1e-10)


def test_classify_imp_examples(integrator, example1_spectrum, example1_ctrl,
                               rotation2d, chain5_graph):
    """An attack on a root destabilizes exactly when its generator shares a
    marginal mode with A (the internal model principle)."""
    const = AttackSpec(agent=0, channel="actuator", signal=constant_signal([1.0]))
    assert destabilization_verdict([const], integrator, example1_spectrum,
                                   example1_ctrl) is Verdict.DESTABILIZE  # eig {1} inside {1}

    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(rotation2d, spectrum)
    matched = AttackSpec(agent=1, channel="actuator",
                         signal=sinusoid_signal([1.0], np.pi / 2))
    assert sorted(np.round(np.imag(np.linalg.eigvals(matched.signal.W)), 9)) == [-1.0, 1.0]
    assert destabilization_verdict([matched], rotation2d, spectrum, ctrl) is Verdict.DESTABILIZE

    unmatched = AttackSpec(agent=1, channel="actuator", signal=sinusoid_signal([1.0], 1.0))
    assert (destabilization_verdict([unmatched], rotation2d, spectrum, ctrl)
            is Verdict.BOUNDED_DEVIATION)


def test_verdict_is_scale_invariant(rotation2d, chain5_graph):
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(rotation2d, spectrum)
    rng = np.random.default_rng(4)
    for _ in range(20):
        scale = float(rng.uniform(0.01, 100.0))
        omega = float(rng.uniform(0.1, 3.0))
        spec = AttackSpec(agent=1, channel="actuator",
                          signal=sinusoid_signal([scale], omega))
        base = AttackSpec(agent=1, channel="actuator",
                          signal=sinusoid_signal([1.0], omega))
        assert (destabilization_verdict([spec], rotation2d, spectrum, ctrl)
                is destabilization_verdict([base], rotation2d, spectrum, ctrl))
    for scale in (0.01, 100.0):  # the resonant pi/2 rotation at both ends of the range
        spec = AttackSpec(agent=1, channel="actuator",
                          signal=sinusoid_signal([scale], np.pi / 2))
        assert destabilization_verdict([spec], rotation2d, spectrum, ctrl) is Verdict.DESTABILIZE


def test_a_signal_without_an_output_map_reads_its_whole_state():
    sig = ExogenousSignal(W=np.diag([1.0, 0.5, -1.0]), f0=[1.0, -2.0, 0.5])
    np.testing.assert_array_equal(sig.output, np.eye(3))
    assert sig.dim == sig.f0.size == 3


def test_unused_channels_read_as_zeros():
    """N = 3 agents, n = 2, m = 1: a channel no attack uses, and both channels
    of a run with no attack, read zero arrays of the channel's shape."""
    act = AttackSpec(agent=1, channel="actuator", signal=sinusoid_signal([2.0], 0.3),
                     start_step=4)
    sens = AttackSpec(agent=2, channel="sensor", signal=constant_signal([0.5, -1.0]))
    ks = np.arange(7)
    for specs in ([act], [sens], []):
        gen = AttackGenerator(specs, 3, 2, 1)
        states = np.array([gen.state(k) for k in ks]).reshape(len(ks), len(gen.g0))
        sensor, actuator = gen.read(states)
        assert sensor.shape == (7, 3, 2) and actuator.shape == (7, 3, 1)
        expected_a = np.zeros((7, 3, 1))
        expected_s = np.zeros((7, 3, 2))
        for spec in specs:
            target = expected_s if spec.channel == "sensor" else expected_a
            target[:, spec.agent] = signal_series(spec, 7)
        np.testing.assert_allclose(actuator, expected_a, atol=1e-15)
        np.testing.assert_allclose(sensor, expected_s, atol=1e-15)


def test_effective_attack_examples(integrator, example1_spectrum, example1_ctrl):
    no_attacks = effective_attack([], integrator, example1_spectrum, example1_ctrl, 0)
    assert no_attacks.shape == (4, 1) and np.abs(no_attacks).max() == 0.0

    act = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.5]))
    f = effective_attack([act], integrator, example1_spectrum, example1_ctrl, 5)
    np.testing.assert_allclose(f[2], [1.5], atol=1e-15)
    assert np.abs(np.delete(f, 2, axis=0)).max() == 0.0


def test_effective_attack_sensor_expansion(integrator, example1_spectrum):
    # hand expansion on the 4-agent graph with c = K = 1, sensor value v = 2 on
    # agent 1: in-neighbors 0 and 2 receive +v/2, agent 1 itself -h_1 v / 2
    from test_dynamics import unit_gain_ctrl

    ctrl = unit_gain_ctrl(integrator, K=[[1.0]], c=1.0)
    sens = AttackSpec(agent=1, channel="sensor", signal=constant_signal([2.0]))
    f = effective_attack([sens], integrator, example1_spectrum, ctrl, 0)
    np.testing.assert_allclose(f[:, 0], [1.0, -1.0, 1.0, 0.0], atol=1e-15)


def test_effective_attack_linearity(integrator, example1_spectrum, example1_ctrl):
    a1 = AttackSpec(agent=1, channel="sensor", signal=constant_signal([2.0]))
    a2 = AttackSpec(agent=0, channel="actuator", signal=sinusoid_signal([3.0], 0.5))
    f1 = effective_attack([a1], integrator, example1_spectrum, example1_ctrl, 9)
    f2 = effective_attack([a2], integrator, example1_spectrum, example1_ctrl, 9)
    both = effective_attack([a1, a2], integrator, example1_spectrum, example1_ctrl, 9)
    np.testing.assert_allclose(both, f1 + f2, atol=1e-14)


def test_attack_projection_examples(integrator, example1_spectrum, example1_ctrl):
    root_attack = AttackSpec(agent=0, channel="actuator", signal=constant_signal([1.0]))
    f = effective_attack([root_attack], integrator, example1_spectrum, example1_ctrl, 0)
    np.testing.assert_allclose(attack_projection(f, example1_spectrum), [0.5], atol=1e-15)

    nonroot = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    f2 = effective_attack([nonroot], integrator, example1_spectrum, example1_ctrl, 0)
    np.testing.assert_allclose(attack_projection(f2, example1_spectrum), [0.0], atol=1e-15)

    zero = attack_projection(np.zeros((4, 1)), example1_spectrum)
    assert np.abs(zero).max() == 0.0


def test_root_targeted_iff_root_attacked(integrator, example1_spectrum, example1_ctrl):
    for agent, expect in ((0, True), (1, True), (2, False), (3, False)):
        spec = AttackSpec(agent=agent, channel="actuator",
                          signal=constant_signal([1.0]), start_step=10)
        got = root_targeted([spec], integrator, example1_spectrum, example1_ctrl)
        assert got == expect, f"agent {agent}"
    # sensor attacks project through the Laplacian and never reach the kernel
    sens = AttackSpec(agent=0, channel="sensor", signal=constant_signal([5.0]))
    assert not root_targeted([sens], integrator, example1_spectrum, example1_ctrl)


def test_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec(agent=0, channel="network", signal=constant_signal([1.0]))
    with pytest.raises(ValueError):
        AttackSpec(agent=0, channel="sensor", signal=constant_signal([1.0]), start_step=-1)
    with pytest.raises(ValueError):
        ExogenousSignal(W=np.eye(2), f0=[1.0])


# rotation2d (n = 2, m = 1) on the 4-agent example graph, whose roots are 0 and 1
PROP_MODEL = LtiModel(A=[[0.0, -1.0], [1.0, 0.0]], B=[[0.0], [1.0]])
PROP_SPECTRUM = normalized_laplacian(DirectedGraph.from_edges(4, [[1, 0], [0, 1], [1, 2], [0, 3]]))
PROP_CTRL = unit_gain_ctrl(PROP_MODEL, K=[[0.3, -0.7]], c=0.8)
PROBE = 256


@st.composite
def attack_with_closed_form(draw):
    """An attack and its signal's closed form j -> value (None for a custom W).

    Custom generators have entries k/8 with |k| <= 2 and dimension <= 4, so
    every row's absolute sum is at most 1 and no read-out grows over a probe;
    integer f0 and read-out maps make a zero read-out exactly zero."""
    channel = draw(st.sampled_from(["sensor", "actuator"]))
    width = PROP_MODEL.state_dim if channel == "sensor" else PROP_MODEL.input_dim
    vector = st.lists(st.integers(-2, 2), min_size=width, max_size=width)
    kind = draw(st.sampled_from(["constant", "sinusoid", "custom", "nilpotent"]))
    form = None
    if kind == "constant":
        value = np.array(draw(vector), dtype=float)
        signal, form = constant_signal(value), (lambda j: value)
    elif kind == "sinusoid":
        amp = np.array(draw(vector), dtype=float)
        omega, phase = draw(st.floats(0.1, 3.0)), draw(st.floats(-3.0, 3.0))
        signal = sinusoid_signal(amp, omega, phase)
        form = lambda j: amp * np.sin(omega * j + phase)  # noqa: E731
    else:
        d = draw(st.integers(1, 4))
        W = np.array(draw(st.lists(st.integers(-2, 2), min_size=d * d, max_size=d * d)),
                     dtype=float).reshape(d, d) / 8
        if kind == "nilpotent":
            W = np.triu(W, 1)
        f0 = draw(st.lists(st.integers(-1, 1), min_size=d, max_size=d))
        C = draw(st.lists(st.integers(-1, 1), min_size=width * d, max_size=width * d))
        signal = ExogenousSignal(W=W, f0=f0, output=np.reshape(C, (width, d)))
    spec = AttackSpec(agent=draw(st.integers(0, 3)), channel=channel, signal=signal,
                      start_step=draw(st.integers(0, 20)))
    return spec, form


def _reference_injection(specs, length):
    """f(k) for k < length, from each attack's ``signal_series``:
    f = -c (Lhat s) K' + a, with s and a the summed sensor and actuator signals."""
    sens = np.zeros((length, 4, PROP_MODEL.state_dim))
    act = np.zeros((length, 4, PROP_MODEL.input_dim))
    for spec in specs:
        (sens if spec.channel == "sensor" else act)[:, spec.agent] += signal_series(spec, length)
    return -PROP_CTRL.c * (PROP_SPECTRUM.normalized_laplacian @ sens) @ PROP_CTRL.K.T + act


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(attacks=st.lists(attack_with_closed_form(), min_size=1, max_size=3))
def test_generator_matches_series_probe_and_closed_form(attacks):
    specs = [spec for spec, _ in attacks]
    last = max(spec.start_step for spec in specs)
    f = _reference_injection(specs, last + PROBE)
    scale = np.abs(f).max()
    for k in range(last + 40):
        got = effective_attack(specs, PROP_MODEL, PROP_SPECTRUM, PROP_CTRL, k)
        assert np.abs(got - f[k]).max() <= 1e-12 * scale, k

    # the exact decisions against a 256-step probe: the attacks, alone or together,
    # predict CONSENSUS iff their injection is zero once all are live, and together
    # they are root-targeted iff S(k) = p' f(k) is nonzero then
    for spec in specs:
        silent = np.abs(_reference_injection([spec], spec.start_step + PROBE)).max() <= 1e-12
        verdict = destabilization_verdict([spec], PROP_MODEL, PROP_SPECTRUM, PROP_CTRL)
        assert (verdict is Verdict.CONSENSUS) == silent
    verdict = destabilization_verdict(specs, PROP_MODEL, PROP_SPECTRUM, PROP_CTRL)
    assert (verdict is Verdict.CONSENSUS) == (np.abs(f[last:]).max() <= 1e-12)
    S = attack_projection(f[last:], PROP_SPECTRUM)
    assert root_targeted(specs, PROP_MODEL, PROP_SPECTRUM, PROP_CTRL) == bool(
        (np.linalg.norm(S, axis=1) > 1e-12).any())

    # far out, against the closed forms; matrix powers drift by about k eps
    if all(form is not None for _, form in attacks):
        k = 10 ** 7
        sens = np.zeros((4, PROP_MODEL.state_dim))
        act = np.zeros((4, PROP_MODEL.input_dim))
        for spec, form in attacks:
            (sens if spec.channel == "sensor" else act)[spec.agent] += form(k - spec.start_step)
        expected = -PROP_CTRL.c * (PROP_SPECTRUM.normalized_laplacian @ sens) @ PROP_CTRL.K.T + act
        got = effective_attack(specs, PROP_MODEL, PROP_SPECTRUM, PROP_CTRL, k)
        assert np.abs(got - expected).max() <= 10 * k * np.finfo(float).eps * max(scale, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(attacks=st.lists(attack_with_closed_form(), min_size=1, max_size=3))
def test_generator_state_reads_every_signal_and_its_window_continues_it(attacks):
    """g(k) is zero on the rows of attacks that start after k, so one read-out
    of it gives every signal of step k, and the window is g at the dim W
    steps from the last start."""
    specs = [spec for spec, _ in attacks]
    n, m = PROP_MODEL.state_dim, PROP_MODEL.input_dim
    gen = AttackGenerator(specs, 4, n, m)
    expected = {"sensor": np.zeros((31, 4, n)), "actuator": np.zeros((31, 4, m))}
    for spec in specs:
        expected[spec.channel][:, spec.agent] += signal_series(spec, 31)
    for k in range(31):
        sensor, actuator = gen.read(gen.state(k)[None])
        np.testing.assert_allclose(sensor[0], expected["sensor"][k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(actuator[0], expected["actuator"][k], rtol=0, atol=1e-12)
    last = max(spec.start_step for spec in specs)
    window = gen.window()
    assert window.shape == (len(gen.g0),) * 2
    for j, row in enumerate(window):
        np.testing.assert_allclose(row, gen.state(last + j), rtol=0, atol=1e-12)
