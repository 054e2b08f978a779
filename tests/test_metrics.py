import dataclasses

import numpy as np
import pytest

from resilient_consensus import (BUNDLED_SCENARIOS, AttackSpec, DirectedGraph, GrowthAnalysis,
                                 ScenarioConfig, Verdict, analyze_growth,
                                 constant_signal, design_controller, design_gain,
                                 destabilization_verdict, deviation_bound, effective_attack,
                                 global_performance, hinf_bypass_report, normalized_laplacian,
                                 run, simulate, sinusoid_signal, tracking_error)
from resilient_consensus.dynamics import baseline_radius
from resilient_consensus.metrics import GROWTH_CHUNK

from conftest import random_spanning_tree_digraph


def test_tracking_error_examples(example1_spectrum):
    eps = tracking_error(np.array([1.0, 3.0, 0.0, 0.0]), example1_spectrum)
    np.testing.assert_allclose(eps[:, 0], [1.0, -1.0, 1.5, 0.5], atol=1e-15)
    assert np.abs(tracking_error(np.full(4, 7.0), example1_spectrum)).max() == 0.0


def test_global_performance_examples(example1_graph):
    assert global_performance(np.full(4, 3.0), example1_graph) == 0.0
    # edges 1->0, 0->1, 1->2, 0->3: (1-3)^2 + (3-1)^2 + (0-3)^2 + (0-1)^2 = 18
    assert abs(global_performance(np.array([1.0, 3.0, 0.0, 0.0]), example1_graph) - 18.0) < 1e-12


def test_global_performance_stacked_matches_single_states():
    # a random digraph with every edge made bidirectional, and 2-d agent states
    rng = np.random.default_rng(31)
    a = random_spanning_tree_digraph(9, rng, extra_edge_factor=0.2).adjacency
    graph = DirectedGraph(np.maximum(a, a.T))
    assert (graph.adjacency == graph.adjacency.T).all() and (graph.adjacency > 0).sum() >= 16
    states = rng.normal(size=(40, 9, 2)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1, 1))
    stacked = global_performance(states, graph)
    assert stacked.shape == (40,)
    single = np.array([global_performance(s, graph) for s in states])
    assert all(isinstance(global_performance(s.ravel(), graph), float) for s in states[:3])
    np.testing.assert_allclose(stacked, single, rtol=1e-12, atol=0.0)


def test_global_performance_is_the_row_sum_of_every_bundled_run():
    # summed slice by slice, Gamma keeps the bits of the per-edge row sums
    for name, raw in BUNDLED_SCENARIOS.items():
        config = ScenarioConfig.from_dict(raw)
        trace = run(config)
        i, j = np.nonzero(config.graph.adjacency > 0)
        row_sums = ((trace.x[:, i] - trace.x[:, j]) ** 2).sum(axis=2).sum(axis=1)
        assert trace.gamma.tobytes() == row_sums.tobytes(), name


def test_deviation_bound_cases(integrator, rotation2d, auv_model, example1_spectrum,
                               example1_ctrl):
    assert deviation_bound(integrator, example1_spectrum, example1_ctrl, 0, 5.0) == 0.0

    # Example-1 with K = c = 1 puts a zero eigenvalue into A_c: undefined
    from test_dynamics import kron_closed_loop, unit_gain_ctrl
    unit = unit_gain_ctrl(integrator, K=[[1.0]], c=1.0)
    assert deviation_bound(integrator, example1_spectrum, unit, 1, 1.0) is None

    one = deviation_bound(integrator, example1_spectrum, example1_ctrl, 1, 1.0)
    two = deviation_bound(integrator, example1_spectrum, example1_ctrl, 1, 2.0)
    if one is not None:
        assert abs(two - 2.0 * one) < 1e-9

    # lambda_min(A_c) from the block spectra equals the smallest eigenvalue
    # modulus of the dense I (x) A - c Lhat (x) BK
    rng = np.random.default_rng(23)
    for model in (integrator, rotation2d, auv_model):
        K = design_gain(model)[0]
        for _ in range(8):
            graph = random_spanning_tree_digraph(int(rng.integers(3, 8)), rng, weighted=True)
            spectrum = normalized_laplacian(graph)
            ctrl = unit_gain_ctrl(model, K, float(rng.uniform(0.1, 3.0)))
            lam_min = np.abs(np.linalg.eigvals(kron_closed_loop(model, spectrum, ctrl))).min()
            expected = 3 * np.linalg.norm(model.B, ord=2) * 1.5 / lam_min
            bound = deviation_bound(model, spectrum, ctrl, 3, 1.5)
            assert abs(bound - expected) <= 1e-9 * expected


def test_destabilization_verdict_examples(integrator, example1_spectrum, example1_ctrl):
    assert destabilization_verdict([], integrator, example1_spectrum,
                                   example1_ctrl) is Verdict.CONSENSUS
    # a supplied c = 50 leaves A - c lam BK unstable: the loop diverges unattacked
    unstable = design_controller(integrator, example1_spectrum, c=50, theta=0.3)
    assert baseline_radius(integrator, example1_spectrum, unstable.K, unstable.c) >= 1.0
    assert destabilization_verdict([], integrator, example1_spectrum,
                                   unstable) is Verdict.DESTABILIZE

    root = AttackSpec(agent=0, channel="actuator", signal=constant_signal([1.0]))
    assert destabilization_verdict([root], integrator, example1_spectrum,
                                   example1_ctrl) is Verdict.DESTABILIZE

    nonroot = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    assert destabilization_verdict([nonroot], integrator, example1_spectrum,
                                   example1_ctrl) is Verdict.BOUNDED_DEVIATION

    # a zero-amplitude signal counts as no attack
    silent = AttackSpec(agent=0, channel="actuator", signal=constant_signal([0.0]))
    assert destabilization_verdict([silent], integrator, example1_spectrum,
                                   example1_ctrl) is Verdict.CONSENSUS


def test_verdict_nonimp_and_sensor_cases(rotation2d, chain5_graph, integrator,
                                         example1_spectrum, example1_ctrl):
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(rotation2d, spectrum)
    nonimp_root = AttackSpec(agent=1, channel="actuator", signal=sinusoid_signal([1.0], 1.0))
    assert destabilization_verdict([nonimp_root], rotation2d, spectrum,
                                   ctrl) is Verdict.BOUNDED_DEVIATION
    imp_root = AttackSpec(agent=1, channel="actuator", signal=sinusoid_signal([1.0], np.pi / 2))
    assert destabilization_verdict([imp_root], rotation2d, spectrum, ctrl) is Verdict.DESTABILIZE
    # sensor corruption cannot reach the Laplacian kernel: never destabilizing
    sensor_root = AttackSpec(agent=0, channel="sensor", signal=constant_signal([9.0]))
    assert destabilization_verdict([sensor_root], integrator, example1_spectrum,
                                   example1_ctrl) is Verdict.BOUNDED_DEVIATION


_EXAMPLE1_GRAPH = {"n_agents": 4, "edges": [[1, 0, 1.0], [0, 1, 1.0], [1, 2, 1.0], [0, 3, 1.0]]}
_I2 = [[1.0, 0.0], [0.0, 1.0]]


def _example1_run(model, attacks, x0=(2.0, 4.0, 9.0, -3.0)):
    """A 4000-step baseline run on the 4-agent example graph, from a dict."""
    return run(ScenarioConfig.from_dict({
        "name": "verdict_case", "model": model, "graph": _EXAMPLE1_GRAPH, "horizon": 4000,
        "x0": list(x0), "controller": "baseline", "attacks": attacks}))


def _exogenous(agent, W, f0):
    return {"agent": agent, "channel": "actuator",
            "signal": {"type": "exogenous", "W": W, "f0": f0}}


@pytest.mark.parametrize("model, attack, diverges", [
    # the generator's unit mode, excited on root 0, resonates with A = I
    ({"A": _I2, "B": _I2}, _exogenous(0, [[1.0, 0.0], [0.0, 0.5]], [1.0, 1.0]), True),
    ({"A": _I2, "B": _I2}, _exogenous(0, [[1.0, 0.0], [0.0, 0.5]], [1.0, 0.0]), True),
    # every eigenvalue of W matches one of A's, but no excited mode is marginal in both
    ({"A": [[1.0, 0.0], [0.0, 0.5]], "B": _I2},
     _exogenous(0, [[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0]), False),
    ({"A": [[1.0, 0.0], [0.0, 0.5]], "B": _I2},
     _exogenous(0, [[1.0, 0.0], [0.0, 0.5]], [0.0, 1.0]), False),
    # a growing generator diverges wherever it enters, root or not
    ("single_integrator", _exogenous(2, [[1.01]], [1.0]), True),
    ("single_integrator", _exogenous(0, [[1.01]], [1.0]), True),
    # a ramp (a Jordan chain at 1) on non-root agent 2
    ({"A": _I2, "B": _I2}, _exogenous(2, [[1.0, 1.0], [0.0, 1.0]], [0.0, 1.0]), True),
], ids=["unit-mode-root", "constant-root", "stable-generator", "unexcited-unit-mode",
        "growing-nonroot", "growing-root", "ramp-nonroot"])
def test_verdict_predicts_what_the_run_does(model, attack, diverges):
    x0 = [2.0, 4.0, 9.0, -3.0] if model == "single_integrator" else [1.0] * 8
    trace = _example1_run(model, [attack], x0)
    assert trace.diverged is diverges
    assert trace.prediction_matches_divergence
    assert trace.prediction == ("DESTABILIZE" if diverges else "BOUNDED_DEVIATION")


def test_attacks_that_cancel_predict_consensus():
    # +1 and -1 on agent 2's actuator: the injection is zero, and every agent intact
    trace = _example1_run("single_integrator", [
        {"agent": 2, "channel": "actuator", "signal": {"type": "constant", "value": [v]}}
        for v in (1.0, -1.0)])
    assert trace.intact_agents == (0, 1, 2, 3)
    assert trace.prediction == "CONSENSUS"


@pytest.mark.parametrize("start, prediction", [
    (5000, "CONSENSUS"), (4000, "CONSENSUS"), (3999, "DESTABILIZE"), (3000, "DESTABILIZE")])
def test_the_verdict_reads_only_attacks_that_start_inside_the_horizon(start, prediction):
    # a constant attack on root agent 0 of a 4000-step run
    trace = _example1_run("single_integrator", [
        {"agent": 0, "channel": "actuator", "signal": {"type": "constant", "value": [1.0]},
         "start": start}])
    assert trace.prediction == prediction
    if start >= 4000:  # the attack never runs
        assert trace.intact_agents == (0, 1, 2, 3) and not trace.diverged
        assert trace.prediction_matches_divergence


def test_growth_analysis_shapes():
    decaying = 5.0 * 0.97 ** np.arange(400)
    assert not analyze_growth(decaying).growth_detected

    ramp = 0.5 * np.arange(400.0)
    g = analyze_growth(ramp)
    assert g.growth_detected
    assert abs(g.tail_slope - 0.5) < 1e-9

    oscillating = 2.0 + np.sin(0.2 * np.arange(800))
    assert not analyze_growth(oscillating).growth_detected

    # the magnitude crossing is the engine's alone
    assert [f.name for f in dataclasses.fields(GrowthAnalysis)] == ["growth_detected",
                                                                     "tail_slope"]

    # a ramp near the largest float: the unscaled sums of j * y overflow
    near_max = 1e305 * (1.0 + 0.5 * np.arange(400.0))
    assert abs(analyze_growth(near_max).tail_slope - 5e304) <= 1e-9 * 5e304


def test_growth_analysis_of_long_series_matches_full_length_references():
    # series longer than one slope chunk, with the events beyond the first chunk
    rng = np.random.default_rng(5)
    T = 3 * GROWTH_CHUNK + 123
    k = np.arange(T, dtype=float)
    for series in (0.5 * k + rng.normal(size=T),
                   3.0 + np.sin(0.01 * k) + 1e-3 * rng.normal(size=T),
                   np.where(k % 97 == 0, np.nan, 1e-4 * k + 2.0),
                   np.where(k == T - 1, np.inf, 7.0 - 1e-5 * k)):
        g = analyze_growth(series)
        tail_k, tail = k[T - T // 2:], series[T - T // 2:]
        finite = np.isfinite(tail)
        slope = np.polyfit(tail_k[finite], tail[finite], 1)[0]
        assert abs(g.tail_slope - slope) <= 1e-9 * max(abs(slope), 1e-6)


def run_chain5(integrator, chain5_graph, controller="baseline", attacks=(), horizon=2500):
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(integrator, spectrum)
    return simulate(integrator, chain5_graph, spectrum, ctrl, horizon=horizon,
                    x0=[2.0, 4.0, 9.0, -3.0, 5.0], attacks=list(attacks),
                    controller=controller)


def test_attack_reach_split(integrator, chain5_graph):
    """Deviation from the attack-free run is nonzero exactly on the reachable set."""
    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    clean = run_chain5(integrator, chain5_graph)
    attacked = run_chain5(integrator, chain5_graph, attacks=[attack])
    dev = np.abs(attacked.x - clean.x).max(axis=(0, 2))
    assert dev[0] < 1e-8 and dev[1] < 1e-8          # cannot be reached from 2
    assert dev[3] > 1e-3 and dev[4] > 1e-3          # downstream of the attack
    assert dev[2] > 1e-3                            # the compromised agent itself


def test_chain_deviation_monotone_with_distance(integrator):
    # directed chain 0 -> 1 -> 2 -> 3 -> 4, attack at the head
    chain = DirectedGraph.from_edges(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    spectrum = normalized_laplacian(chain)
    ctrl = design_controller(integrator, spectrum)
    attack = AttackSpec(agent=1, channel="actuator", signal=constant_signal([1.0]))
    clean = simulate(integrator, chain, spectrum, ctrl, horizon=2500,
                     x0=[1.0, 2.0, 3.0, 4.0, 5.0])
    attacked = simulate(integrator, chain, spectrum, ctrl, horizon=2500,
                        x0=[1.0, 2.0, 3.0, 4.0, 5.0], attacks=[attack])
    dev = np.abs(attacked.x[-1] - clean.x[-1]).ravel()
    downstream = dev[1:]  # distance 0, 1, 2, 3 from the compromised agent
    assert all(b <= a + 1e-9 for a, b in zip(downstream, downstream[1:]))


def test_hinf_bypass_report_cases(integrator, chain5_graph):
    clean = run_chain5(integrator, chain5_graph)
    rep = hinf_bypass_report(clean)
    assert rep.tail_eps_intact < 1e-6 and rep.tail_gamma < 0.1
    assert not rep.bypassed
    assert rep.attack_energy == 0.0

    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]))
    attacked = run_chain5(integrator, chain5_graph, attacks=[attack])
    rep2 = hinf_bypass_report(attacked)
    assert rep2.intact_agents == (0, 1, 3, 4)
    assert rep2.tail_eps_intact < 1e-6
    assert rep2.tail_gamma > 0.1
    assert rep2.bypassed  # local errors silent while the network disagrees

    mitigated = run_chain5(integrator, chain5_graph, controller="resilient",
                           attacks=[attack])
    rep3 = hinf_bypass_report(mitigated)
    assert rep3.tail_gamma < rep2.tail_gamma


def test_hinf_bypass_intact_set_counts_unstored_steps(integrator, chain5_graph):
    # the attack starts at step 995, after the last stored step 990: only the
    # full-run injection shows that agent 2 is attacked
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(integrator, spectrum)
    attack = AttackSpec(agent=2, channel="actuator", signal=constant_signal([1.0]),
                        start_step=995)
    trace = simulate(integrator, chain5_graph, spectrum, ctrl, horizon=1000,
                     x0=[2.0, 4.0, 9.0, -3.0, 5.0], attacks=[attack], store_stride=10)
    assert trace.ks[-1] == 990 and np.abs(trace.f).max() == 0.0
    assert hinf_bypass_report(trace).intact_agents == trace.intact_agents == (0, 1, 3, 4)
    assert trace.attack_bound == 1.0


def test_stored_injection_matches_effective_attack(rotation2d, chain5_graph):
    spectrum = normalized_laplacian(chain5_graph)
    ctrl = design_controller(rotation2d, spectrum)
    attacks = [AttackSpec(agent=3, channel="sensor", signal=sinusoid_signal([0.8, -0.5], 0.4),
                          start_step=17),
               AttackSpec(agent=2, channel="actuator", signal=sinusoid_signal([1.5], 1.1),
                          start_step=5),
               AttackSpec(agent=3, channel="actuator", signal=constant_signal([0.3]))]
    trace = simulate(rotation2d, chain5_graph, spectrum, ctrl, horizon=300,
                     x0=np.linspace(-1.0, 1.0, 10), attacks=attacks, store_stride=7,
                     controller="resilient")
    assert len(trace.ks) == 43
    scale = np.abs(trace.f).max()
    assert scale > 0.5
    for i, k in enumerate(trace.ks):
        expected = effective_attack(attacks, rotation2d, spectrum, ctrl, int(k))
        assert np.abs(trace.f[i] - expected).max() <= 1e-12 * scale, int(k)
    # the sensor attack reaches agents 3 and 4 only; agents 0 and 1 stay intact
    assert trace.intact_agents == (0, 1)
