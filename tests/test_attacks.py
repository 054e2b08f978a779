import numpy as np
import pytest

from resilient_consensus import (AttackSpec, ExogenousSignal, attack_projection, classify_imp,
                                 constant_signal, effective_attack, root_targeted, signal_series,
                                 sinusoid_signal)


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


def test_classify_imp_examples(integrator, rotation2d):
    const = AttackSpec(agent=0, channel="actuator", signal=constant_signal([1.0]))
    assert classify_imp(const, integrator).is_imp  # eig {1} inside {1}

    matched = AttackSpec(agent=0, channel="actuator",
                         signal=sinusoid_signal([1.0], np.pi / 2))
    cls = classify_imp(matched, rotation2d)
    assert cls.is_imp
    assert sorted(np.round(np.imag(cls.matched_eigenvalues), 9)) == [-1.0, 1.0]

    unmatched = AttackSpec(agent=0, channel="actuator", signal=sinusoid_signal([1.0], 1.0))
    assert not classify_imp(unmatched, rotation2d).is_imp
    assert classify_imp(unmatched, rotation2d).verdict == "non-IMP"


def test_classification_is_scale_invariant(rotation2d):
    rng = np.random.default_rng(4)
    for _ in range(20):
        scale = float(rng.uniform(0.01, 100.0))
        omega = float(rng.uniform(0.1, 3.0))
        spec = AttackSpec(agent=0, channel="actuator",
                          signal=sinusoid_signal([scale], omega))
        base = AttackSpec(agent=0, channel="actuator",
                          signal=sinusoid_signal([1.0], omega))
        assert classify_imp(spec, rotation2d).verdict == classify_imp(base, rotation2d).verdict


def test_effective_attack_examples(integrator, example1_spectrum, example1_ctrl):
    no_attacks = effective_attack([], integrator, example1_spectrum, example1_ctrl, 0)
    assert np.abs(no_attacks).max() == 0.0

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
