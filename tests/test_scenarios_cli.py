import json
import os
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from resilient_consensus import (BUNDLED_SCENARIOS, ConfigError, ScenarioConfig,
                                 design_controller, global_performance, joint_radius,
                                 list_scenarios, load_config, normalized_laplacian, run, validate,
                                 write_csv, write_plot_data, write_summary)
from resilient_consensus import trace as trace_module
from resilient_consensus.cli import main
from resilient_consensus.trace import CSV_CHUNK_FLOATS, SUMMARY_SCHEMA, SimulationTrace


def small_config(**overrides):
    raw = {
        "name": "smoke",
        "model": "single_integrator",
        "graph": {"n_agents": 4,
                  "edges": [[1, 0, 1.0], [0, 1, 1.0], [1, 2, 1.0], [0, 3, 1.0]]},
        "horizon": 100,
        "x0": [2.0, 4.0, 9.0, -3.0],
    }
    raw.update(overrides)
    return raw


def test_bundled_catalog_covers_both_campaigns():
    names = list_scenarios()
    assert len(names) >= 6
    assert any(n.startswith("auv_") for n in names)
    assert any(n.startswith("rotation2d_") for n in names)
    for name in names:
        ScenarioConfig.from_dict(BUNDLED_SCENARIOS[name])  # all parse


def test_trace_stores_every_step_metrics():
    config = ScenarioConfig.from_dict(small_config(horizon=40))
    trace = run(config)
    assert len(trace.ks) == 40 and trace.eps.shape[0] == trace.gamma.shape[0] == 40
    assert trace.ks[0] == 0 and trace.ks[-1] == 39
    assert trace.gamma[0] == global_performance(trace.x[0], config.graph)
    assert not trace.diverged and trace.first_crossing is None


def test_signal_schema_conditionals():
    with pytest.raises(ConfigError, match="omega"):
        ScenarioConfig.from_dict(small_config(
            attacks=[{"agent": 1, "channel": "actuator", "signal": {"type": "sin"}}]))
    with pytest.raises(ConfigError, match="W"):
        ScenarioConfig.from_dict(small_config(
            attacks=[{"agent": 1, "channel": "actuator", "signal": {"type": "exogenous"}}]))


def test_validation_rejects_bad_configs():
    with pytest.raises(ConfigError, match="horizon"):
        ScenarioConfig.from_dict(small_config(horizon=0))
    with pytest.raises(ConfigError, match="x0"):
        ScenarioConfig.from_dict(small_config(x0=[1.0, 2.0]))
    with pytest.raises(ConfigError, match="agent"):
        ScenarioConfig.from_dict(small_config(
            attacks=[{"agent": 9, "channel": "actuator",
                      "signal": {"type": "constant", "value": [1.0]}}]))
    with pytest.raises(ConfigError, match="signal"):
        ScenarioConfig.from_dict(small_config(
            attacks=[{"agent": 1, "channel": "actuator",
                      "signal": {"type": "constant", "value": [1.0, 2.0]}}]))
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(small_config(controller="fancy"))
    with pytest.raises(ConfigError, match="leader"):
        ScenarioConfig.from_dict(small_config(
            leader={"K0": [[1.0]]},
            attacks=[{"agent": 0, "channel": "actuator",
                      "signal": {"type": "constant", "value": [1.0]}}]))
    with pytest.raises(ConfigError, match=r"leader.K0: expected shape \(1, 1\), got \(1, 2\)"):
        ScenarioConfig.from_dict(small_config(leader={"K0": [[1.0, 2.0]]}))
    # a preset's K0 is no default: the leader must name its own
    with pytest.raises(ConfigError, match="'K0' is a required property"):
        ScenarioConfig.from_dict(small_config(model="auv_diving", leader={"amplitude": 1.0}))


def test_non_finite_initial_states_rejected(tmp_path, capsys):
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="x0"):
            ScenarioConfig.from_dict(small_config(x0=[2.0, bad, 9.0, -3.0]))
        with pytest.raises(ConfigError, match="x0"):
            ScenarioConfig.from_dict(small_config(x0={"scale": bad}))
        with pytest.raises(ConfigError, match="predictor_init"):
            ScenarioConfig.from_dict(small_config(controller="resilient",
                                                  predictor_init=[0.0, bad, 0.0, 0.0]))
    # Python's json module reads and writes NaN, so such a file can reach the CLI
    for field in ("x0", "predictor_init"):
        cfg = tmp_path / f"nan_{field}.json"
        cfg.write_text(json.dumps(small_config(**{field: [2.0, float("nan"), 9.0, -3.0]})))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("x0", [{"scale": "abc"}, {"scale": [1, 2]}, {"scale": None},
                                {"scal": 2.0}, {"scale": True}],
                         ids=["text_scale", "list_scale", "null_scale", "misspelt_key",
                              "boolean_scale"])
def test_malformed_x0_objects_are_config_errors(tmp_path, capsys, x0):
    # a generated x0 takes one number, its scale, and nothing else
    with pytest.raises(ConfigError, match="^x0"):
        ScenarioConfig.from_dict(small_config(x0=x0))
    cfg = tmp_path / "bad_x0.json"
    cfg.write_text(json.dumps(small_config(x0=x0)))
    for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
        assert main(argv) == 2, argv
        assert "x0" in capsys.readouterr().err
    assert not (tmp_path / "smoke.summary.json").exists()


_SIN = {"agent": 2, "channel": "actuator", "signal": {"type": "sin", "omega": 0.5}}


@pytest.mark.parametrize("overrides, field", [
    ({"c": float("nan")}, "c"),
    ({"controller": "resilient", "theta": float("nan")}, "theta"),
    ({"divergence_threshold": float("nan")}, "divergence_threshold"),
    ({"attacks": [{"agent": 2, "channel": "actuator",
                   "signal": {"type": "constant", "value": [float("nan")]}}]},
     "attacks.0.signal.value.0"),
    ({"attacks": [{**_SIN, "signal": {"type": "sin", "omega": float("inf")}}]},
     "attacks.0.signal.omega"),
    ({"attacks": [{**_SIN, "signal": {"type": "sin", "omega": 0.5,
                                      "amplitude": [float("nan")]}}]},
     "attacks.0.signal.amplitude.0"),
    ({"attacks": [{"agent": 2, "channel": "actuator",
                   "signal": {"type": "exogenous", "W": [[float("inf")]], "f0": [1.0]}}]},
     "attacks.0.signal.W.0.0"),
    ({"leader": {"K0": [[1.0]], "omega": float("inf")}}, "leader.omega"),
    ({"leader": {"K0": [[float("nan")]]}}, "leader.K0.0.0"),
    # an integer literal beyond the float range, where 1e400 already reads as infinity
    ({"x0": {"scale": 10**400}}, "x0.scale"),
    ({"c": 10**400}, "c"),
    ({"controller": "resilient", "theta": 10**400}, "theta"),
    ({"x0": [2.0, 10**400, 9.0, -3.0]}, "x0.1"),
    ({"horizon": 10**400}, "horizon"),
    ({"store_stride": 10**400}, "store_stride"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, overrides, field):
    raw = small_config(**overrides)
    with pytest.raises(ConfigError, match=f"^{field} must be finite$"):
        ScenarioConfig.from_dict(raw)
    cfg = tmp_path / "non_finite.json"
    cfg.write_text(json.dumps(raw))  # json writes NaN and Infinity, and reads them back
    for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
        assert main(argv) == 2, argv
        assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "smoke.summary.json").exists()


@pytest.mark.parametrize("field", ["horizon", "store_stride", "seed"])
def test_integers_beyond_int64_are_config_errors(tmp_path, capsys, field):
    raw = small_config(**{field: 2**63})
    message = f"{field}: {2**63} is greater than the maximum of {2**63 - 1}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ScenarioConfig.from_dict(raw)
    ScenarioConfig.from_dict(small_config(**{field: 2**63 - 1}))  # the largest int64 parses
    cfg = tmp_path / "huge_integer.json"
    cfg.write_text(json.dumps(raw))
    for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "smoke.summary.json").exists()


def test_an_agent_count_that_cannot_be_allocated_is_a_config_error(tmp_path, capsys):
    # 2^40 agents: NumPy refuses the (2^40, 2^40) adjacency before allocating anything
    raw = small_config(graph={**small_config()["graph"], "n_agents": 2**40})
    message = f"graph: the adjacency of {2**40} agents cannot be allocated"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ScenarioConfig.from_dict(raw)
    cfg = tmp_path / "huge_graph.json"
    cfg.write_text(json.dumps(raw))
    for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "smoke.summary.json").exists()


def test_a_horizon_that_cannot_be_allocated_is_a_config_error(tmp_path, capsys):
    # 2^62 steps: NumPy refuses the per-step arrays before allocating anything
    cfg = tmp_path / "huge_horizon.json"
    cfg.write_text(json.dumps(small_config(horizon=2**62)))
    message = f"horizon: {2**62} steps cannot be allocated"
    for argv in (["run", str(cfg)], ["run-all", "--horizon", str(2**62)]):
        assert main([*argv, "--out", str(tmp_path)]) == 2, argv
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", [["run", "example1_consensus"], ["run-all"]],
                         ids=["run", "run-all"])
def test_an_output_directory_that_cannot_be_created_is_a_config_error(tmp_path, capsys,
                                                                      command):
    # a regular file as the parent: the directory cannot be made under it
    parent = tmp_path / "file"
    parent.write_text("")
    out = parent / "sub"
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [parent]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_all_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exited:
        main(["run-all", "--jobs", jobs, "--out", str(tmp_path)])
    assert exited.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_bad_weights_are_config_errors(tmp_path, capsys):
    cases = (("r1", [[1.0, 0.0], [0.0, -1.0]], "r1 must be positive definite"),
             ("r1", [[1.0, 0.1], [-0.1, 1.0]], "r1 must be symmetric"),
             ("q1", [[1.0]], "q1 must be a scalar or 4x4 matrix"),
             ("q1", float("nan"), "q1 must be finite"))
    for field, value, message in cases:
        raw = {**BUNDLED_SCENARIOS["auv_healthy"], "name": "bad_weight", field: value}
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig.from_dict(raw)
        cfg = tmp_path / "bad_weight.json"
        cfg.write_text(json.dumps(raw))
        for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
            assert main(argv) == 2, (argv, value)
            assert message in capsys.readouterr().err
    assert not (tmp_path / "bad_weight.summary.json").exists()


def test_bad_custom_model_is_a_config_error(tmp_path, capsys):
    cases = (({"A": [[1.0, 0.0]], "B": [[1.0]]}, "A must be square"),
             ({"A": [[1.0]], "B": [[1.0], [1.0]]}, "B must have 1 rows"))
    for model, message in cases:
        with pytest.raises(ConfigError, match=f"model: {message}"):
            ScenarioConfig.from_dict(small_config(model=model))
        cfg = tmp_path / "bad_model.json"
        cfg.write_text(json.dumps(small_config(name="bad_model", model=model)))
        for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
            assert main(argv) == 2, (argv, model)
            assert message in capsys.readouterr().err
    assert not (tmp_path / "bad_model.summary.json").exists()


_MALFORMED = {"ragged": [[1.0, 2.0], [1.0]], "non_numeric": ["a", 1.0]}


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
@pytest.mark.parametrize("field, make", [
    ("graph.adjacency", lambda value: small_config(graph={"adjacency": value})),
    ("x0", lambda value: small_config(x0=value)),
    ("predictor_init", lambda value: small_config(predictor_init=value)),
    ("leader.K0", lambda value: small_config(leader={"K0": value})),
], ids=["graph.adjacency", "x0", "predictor_init", "leader.K0"])
def test_malformed_numeric_arrays_are_config_errors(tmp_path, capsys, field, make, kind):
    raw = make(_MALFORMED[kind])
    with pytest.raises(ConfigError, match=f"^{field}: "):
        ScenarioConfig.from_dict(raw)
    cfg = tmp_path / "malformed.json"
    cfg.write_text(json.dumps(raw))
    for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not (tmp_path / "smoke.summary.json").exists()


def _valid_with_every_numeric_array():
    """A config that parses, with a value for every numeric array field."""
    return small_config(
        model={"A": [[1.0]], "B": [[1.0]]},
        graph={"adjacency": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]},
        predictor_init=[0.0, 1.0, 2.0, 3.0], leader={"K0": [[0.5]]},
        q1=[[1.0]], r1=[[1.0]],
        attacks=[{"agent": 1, "channel": "actuator",
                  "signal": {"type": "exogenous", "W": [[1.0]], "f0": [1.0]}},
                 {"agent": 2, "channel": "sensor", "signal": {"type": "constant", "value": [1.0]}},
                 {"agent": 3, "channel": "actuator",
                  "signal": {"type": "sin", "omega": 0.5, "amplitude": [1.0]}}])


_NUMERIC_ARRAYS = [("model", "A"), ("model", "B"), ("graph", "adjacency"), ("x0",),
                   ("predictor_init",), ("leader", "K0"), ("q1",), ("r1",),
                   ("attacks", 0, "signal", "W"), ("attacks", 0, "signal", "f0"),
                   ("attacks", 1, "signal", "value"), ("attacks", 2, "signal", "amplitude")]
_NUMBER = st.integers(-3, 3)
# neither NumPy nor float() reads these as numbers
_NON_NUMBER = st.one_of(st.text(alphabet="abxyz", min_size=1, max_size=3),
                        st.dictionaries(st.sampled_from("ab"), _NUMBER, max_size=1))


@st.composite
def _malformed_arrays(draw):
    """A list that no float array holds: a row with a non-numeric entry, alone
    or as a matrix's row, or rows of unequal lengths, or a row next to a number."""
    row = draw(st.lists(_NUMBER, max_size=3))
    kind = draw(st.sampled_from(["non_numeric", "ragged", "mixed"]))
    if kind == "non_numeric":
        row.insert(draw(st.integers(0, len(row))), draw(_NON_NUMBER))
        return draw(st.sampled_from([row, [row]]))
    if kind == "ragged":
        rows = [row, row + draw(st.lists(_NUMBER, min_size=1, max_size=2))]
        return draw(st.permutations(rows))
    return draw(st.permutations([row, draw(_NUMBER)]))


def test_the_config_with_every_numeric_array_parses():
    ScenarioConfig.from_dict(_valid_with_every_numeric_array())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(_NUMERIC_ARRAYS), value=_malformed_arrays())
def test_a_malformed_numeric_array_is_a_config_error_and_nothing_else(path, value):
    raw = _valid_with_every_numeric_array()
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize("edge", [[0.5, 1], [-0.5, 1]], ids=["half", "minus_half"])
def test_fractional_agent_indices_are_config_errors(tmp_path, capsys, edge):
    raw = small_config(graph={"n_agents": 4, "edges": [[1, 0], [1, 2], [0, 3], edge]})
    message = f"graph: edge {edge!r} has an agent index that is not a whole number"
    cfg = tmp_path / "fractional_edge.json"
    cfg.write_text(json.dumps(raw))
    for argv in (["run", str(cfg), "--out", str(tmp_path)], ["validate", str(cfg)]):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err
    assert not (tmp_path / "smoke.summary.json").exists()


TWO_CYCLES = {"n_agents": 4, "edges": [[0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0]]}


def test_run_rejects_graph_without_spanning_tree(tmp_path, capsys):
    config = ScenarioConfig.from_dict(small_config(graph=TWO_CYCLES))
    with pytest.raises(ConfigError, match="spanning tree"):
        run(config)
    cfg = tmp_path / "two_cycles.json"
    cfg.write_text(json.dumps(small_config(name="two_cycles", graph=TWO_CYCLES)))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "spanning tree" in capsys.readouterr().err
    assert not (tmp_path / "two_cycles.summary.json").exists()


def test_validate_reports_coupling_fallback():
    config = ScenarioConfig.from_dict(small_config())
    diags = validate(config)
    assert not any(d["level"] == "error" for d in diags)
    warnings = [d for d in diags if d["level"] == "warning"]
    assert any("fallback" in d["message"] and "c = " in d["message"] for d in warnings)


def test_validate_names_a_supplied_coupling_and_its_unstable_loop(tmp_path):
    config = ScenarioConfig.from_dict(small_config(c=50, theta=0.3))
    diags = validate(config)
    (interval,) = [d for d in diags if d["level"] == "warning" and d["field"] == "c"]
    assert "c = 50 supplied by configuration" in interval["message"]
    assert "fallback" not in interval["message"]
    # single integrators: the loop's radius is max |1 - c lam K| over nonzero lam
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum, c=50, theta=0.3)
    lam = spectrum.nonzero_eigenvalues()
    radius = float(np.abs(1.0 - 50 * lam * ctrl.K[0, 0]).max())
    assert radius > 1.0
    (error,) = [d for d in diags if d["level"] == "error"]
    assert error["field"] == "c" and f"spectral radius {radius:.4g}" in error["message"]
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps(small_config(c=50, theta=0.3)))
    assert main(["validate", str(cfg)]) == 2
    # a supplied coupling that keeps the loop Schur is no error
    stable = validate(ScenarioConfig.from_dict(small_config(c=2.0, theta=0.3)))
    assert not any(d["level"] == "error" for d in stable)


CYCLE20 = {"n_agents": 20, "edges": [[i, (i + 1) % 20, 1.0] for i in range(20)]}


def test_validate_reports_an_unstable_compensating_loop_as_an_error(tmp_path, capsys):
    """rotation2d on a directed 20-cycle: no (c, theta) pair meets the joint
    Schur margin, and the last-resort pair leaves the compensating loop
    unstable. A baseline run of the same network has no such loop."""
    raw = small_config(name="cycle20", model="rotation2d", controller="resilient",
                       graph=CYCLE20, x0=[0.1] * 40)
    config = ScenarioConfig.from_dict(raw)
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum)
    radius = joint_radius(config.model, spectrum, ctrl.K, ctrl.c, ctrl.theta)
    assert radius > 1.0
    (error,) = [d for d in validate(config) if d["level"] == "error"]
    assert error["field"] == "design"
    assert error["message"].startswith(f"joint_radius {radius:.4g} >= 1")
    cfg = tmp_path / "cycle20.json"
    cfg.write_text(json.dumps(raw))
    assert main(["validate", str(cfg)]) == 2
    assert "joint_radius" in capsys.readouterr().out
    baseline = ScenarioConfig.from_dict(dict(raw, controller="baseline"))
    assert not any(d["level"] == "error" for d in validate(baseline))


def cycle20_config(model, **overrides):
    """A resilient 20-cycle of ``model`` with a 0.1 constant actuator attack on
    agent 3, seed 3, over 20,000 steps; its design is the last resort."""
    raw = small_config(name=f"cycle20_{model}", model=model, controller="resilient",
                       graph=CYCLE20, horizon=20_000, seed=3,
                       attacks=[{"agent": 3, "channel": "actuator",
                                 "signal": {"type": "constant", "value": [0.1]}}])
    del raw["x0"]  # drawn from the seed
    return ScenarioConfig.from_dict(dict(raw, **overrides))


def test_an_unstable_compensating_loop_predicts_destabilize():
    """rotation2d: the last-resort pair c = 1.36, theta = 0.1414 has joint
    radius 1.0043, so the run diverges whatever the attack. Its verdict reads
    the compensating loop by the condition ``validate`` reports an error on."""
    config = cycle20_config("rotation2d")
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum)
    assert (ctrl.c, round(ctrl.theta, 4)) == (1.36, 0.1414)
    assert abs(joint_radius(config.model, spectrum, ctrl.K, ctrl.c, ctrl.theta) - 1.0043) < 1e-4
    trace = run(config)
    assert trace.prediction == "DESTABILIZE"
    assert trace.diverged and trace.first_crossing == 6097
    assert trace.prediction_matches_divergence
    assert any(d["level"] == "error" for d in validate(config))
    # a compensator that never starts leaves the baseline loop, which is stable
    idle = cycle20_config("rotation2d", horizon=2000, compensator_start=2000)
    assert not any(d["level"] == "error" for d in validate(idle))
    assert run(idle).prediction == "BOUNDED_DEVIATION"


def test_a_stable_last_resort_loop_keeps_running():
    """single_integrator: the last-resort pair has joint radius 0.9935 < 1, so
    the run goes the whole horizon, and its verdict stays the root attack's."""
    config = cycle20_config("single_integrator")
    spectrum = normalized_laplacian(config.graph)
    ctrl = design_controller(config.model, spectrum)
    assert "warning: no (c, theta) pair met the joint Schur margin" in ctrl.notes
    assert abs(joint_radius(config.model, spectrum, ctrl.K, ctrl.c, ctrl.theta) - 0.9935) < 1e-4
    assert not any(d["level"] == "error" for d in validate(config))
    trace = run(config)
    assert trace.steps_run == 20_000 and trace.first_crossing is None
    assert trace.prediction == "DESTABILIZE"  # a constant attack on a root of the cycle
    assert trace.diverged and trace.prediction_matches_divergence


def test_bundled_scenarios_validate_without_errors():
    for name in BUNDLED_SCENARIOS:
        assert not any(d["level"] == "error" for d in validate(load_config(name))), name


# joined by an edge too weak for the spectrum to resolve: the zero eigenvalue is double
WEAK_BRIDGE = {"n_agents": 4, "edges": [[0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0],
                                        [1, 2, 1e-9]]}


def test_validate_flags_missing_spanning_tree(tmp_path, capsys):
    for name, graph in (("two_cycles", TWO_CYCLES), ("weak_bridge", WEAK_BRIDGE)):
        config = ScenarioConfig.from_dict(small_config(name=name, graph=graph))
        diags = validate(config)
        assert any(d["level"] == "error" and "spanning tree" in d["message"] for d in diags)
        with pytest.raises(ConfigError, match="spanning tree"):
            run(config)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(small_config(name=name, graph=graph)))
        assert main(["validate", str(cfg)]) == 2
        assert "spanning tree" in capsys.readouterr().out


def test_run_is_deterministic_and_files_byte_identical(tmp_path):
    config_dict = small_config(seed=3)
    paths = []
    for tag in ("a", "b"):
        trace = run(ScenarioConfig.from_dict(config_dict))
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        write_csv(trace, str(csv_path))
        write_summary(trace, str(json_path))
        paths.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert paths[0][0] == paths[1][0]
    assert paths[0][1] == paths[1][1]


def test_csv_shape_contract(tmp_path):
    trace = run(ScenarioConfig.from_dict(small_config()))
    out = tmp_path / "t.csv"
    write_csv(trace, str(out))
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 101  # header + one row per step
    header = lines[0].split(",")
    # k + x(4) + xhat(4) + u(4) + d(4) + eps(4) + gamma
    assert len(header) == 22
    assert header[0] == "k" and header[-1] == "gamma"
    assert header[1] == "x_a0_0" and header[5] == "xhat_a0_0"


def test_csv_memory_does_not_grow_with_horizon(tmp_path):
    def peak(horizon):
        trace = run(ScenarioConfig.from_dict(small_config(horizon=horizon)))
        path = tmp_path / f"h{horizon}.csv"
        tracemalloc.start()
        try:
            write_csv(trace, str(path))
            return tracemalloc.get_traced_memory()[1], path.stat().st_size
        finally:
            tracemalloc.stop()

    rows_per_chunk = CSV_CHUNK_FLOATS // 22  # k, 5 x 4 agent columns, gamma
    small, small_bytes = peak(2 * rows_per_chunk)
    large, large_bytes = peak(8 * rows_per_chunk)
    assert large_bytes > 3.5 * small_bytes
    # holding the file's text in memory would grow the peak with the file
    assert large <= 1.25 * small


def test_csv_float_format_pinned(tmp_path):
    trace = run(ScenarioConfig.from_dict(small_config(horizon=3)))
    specials = [-0.0, 5e-324, 1e300, 3.0, -2.0, 0.1, -1e-300, 1.0]
    trace.x[:] = np.resize(specials, trace.x.shape)
    trace.gamma[:] = [1e300, -0.0, 2.0]
    write_csv(trace, str(tmp_path / "t.csv"))
    write_plot_data(trace, str(tmp_path / "t.plot.csv"))
    rows = (tmp_path / "t.csv").read_text().split("\n")[1:-1]
    plot_rows = (tmp_path / "t.plot.csv").read_text().split("\n")[1:-1]
    assert rows[0].split(",")[:5] == ["0", "-0.0", "5e-324", "1e+300", "3.0"]
    assert rows[1].split(",")[:5] == ["1", "-2.0", "0.1", "-1e-300", "1.0"]
    assert [r.split(",")[-1] for r in rows] == ["1e+300", "-0.0", "2.0"]
    assert plot_rows[0] == "0,0.0,5e-324,1e+300,3.0,1e+300"
    for i, k in enumerate(trace.ks):
        row = [str(int(k))]
        for arr in (trace.x, trace.x_hat, trace.u, trace.d, trace.eps):
            row.extend(repr(float(v)) for v in arr[i].ravel())
        row.append(repr(float(trace.gamma[i])))
        assert rows[i] == ",".join(row)
        norms = np.abs(trace.x[i]).max(axis=1)
        plot = [str(int(k))] + [repr(float(v)) for v in norms] + [repr(float(trace.gamma[i]))]
        assert plot_rows[i] == ",".join(plot)


def _bits(*values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


ZERO, MINUS_ZERO = _bits(0.0, -0.0)
# the values either side of 1e-4, 1e-5, 1e-9 and 1e16, where repr and JSON
# number notation part, and one- and many-digit values of orjson's 0.0000...
NOTATION_BITS = _bits(1e-4, np.nextafter(1e-4, 0.0), 1e-05, 9.999999999999999e-06, -2.5e-07,
                      1e-09, 9.999999999999999e-10, 1.5e-10, -1e-05, -3e-05, 1.234e-05,
                      1e16, 9999999999999998.0, 1.2345678901234568e+17)
# signed zeros, infinities, subnormals, extremes, short and 17-digit reprs,
# the notation boundaries, and NaNs with different signs and payloads (quiet,
# payload 1, signalling)
SPECIAL_BITS = (_bits(0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                      1.7976931348623157e308, 1e300, 0.1, 3.0, -2.0, 1.0000000000000002)
                + NOTATION_BITS
                + [0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000,
                   0x7FF0000000000001])


def _table_trace(cells, n_agents, state_dim, input_dim):
    """A trace whose x, xhat, u, d, eps and gamma are the columns of ``cells``."""
    steps = len(cells)
    dims = (state_dim, state_dim, input_dim, input_dim, state_dim)
    bounds = np.cumsum([0] + [n_agents * dim for dim in dims] + [1])
    x, x_hat, u, d, eps, gamma = (cells[:, lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    x, x_hat, u, d, eps = (block.reshape(steps, n_agents, dim)
                           for block, dim in zip((x, x_hat, u, d, eps), dims))
    return SimulationTrace(
        name="table", controller="baseline", horizon=steps, steps_run=steps,
        n_agents=n_agents, state_dim=state_dim, input_dim=input_dim, stride=3,
        ks=np.arange(steps) * 3, x=x, x_hat=x_hat, u=u, d=d, f=u, eps=eps,
        gamma=gamma.reshape(steps), consensus_err=np.zeros((steps, n_agents)),
        inf_norms=np.zeros(steps + 1), final_x=x[-1].ravel(), final_x_hat=x_hat[-1].ravel(),
        diverged=False, first_crossing=None, growth_detected=False, tail_slope=0.0,
        prediction="CONSENSUS")


def _repr_rows(ks, blocks):
    """Reference body: one line per k, every value through its own ``repr``."""
    return "".join(",".join([str(int(k))]
                            + [repr(float(v)) for b in blocks for v in b[i].ravel()]) + "\n"
                   for i, k in enumerate(ks)).encode()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(palette=st.lists(st.one_of(st.sampled_from(SPECIAL_BITS),
                                  st.integers(-(1 << 63), (1 << 63) - 1)),
                        min_size=1, max_size=12),
       n_agents=st.integers(2, 3), state_dim=st.integers(1, 3), input_dim=st.integers(1, 2),
       steps=st.integers(1, 40), chunk=st.sampled_from([5, 64, CSV_CHUNK_FLOATS]),
       seed=st.integers(0, 2**32 - 1))
# 0.0 beside -0.0 in one chunk: a formatter keyed on values prints one of them wrong
@example(palette=[ZERO, MINUS_ZERO], n_agents=2, state_dim=1, input_dim=1, steps=3,
         chunk=CSV_CHUNK_FLOATS, seed=0)
# every notation boundary, each in several rows and chunks
@example(palette=NOTATION_BITS, n_agents=2, state_dim=1, input_dim=1, steps=12, chunk=64, seed=0)
def test_emitted_bytes_equal_per_value_repr(palette, n_agents, state_dim, input_dim, steps,
                                            chunk, seed):
    # a small palette repeats values across rows, columns and chunks; chunks of
    # 5 or 64 floats put chunk boundaries inside the table and rows wider than a
    # chunk, which then holds one row
    width = n_agents * (3 * state_dim + 2 * input_dim) + 1
    picks = np.random.default_rng(seed).integers(len(palette), size=(steps, width))
    cells = np.array(palette, dtype=np.int64)[picks].view(np.float64)
    trace = _table_trace(cells, n_agents, state_dim, input_dim)
    norms = np.abs(trace.x).max(axis=2)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(trace_module, "CSV_CHUNK_FLOATS", chunk):
        write_csv(trace, os.path.join(tmp, "t.csv"))
        write_plot_data(trace, os.path.join(tmp, "t.plot.csv"))
        body = Path(tmp, "t.csv").read_bytes().split(b"\n", 1)[1]
        plot_body = Path(tmp, "t.plot.csv").read_bytes().split(b"\n", 1)[1]
    assert body == _repr_rows(trace.ks, (trace.x, trace.x_hat, trace.u, trace.d, trace.eps,
                                         trace.gamma))
    assert plot_body == _repr_rows(trace.ks, (norms, trace.gamma))


def test_bundled_runs_emit_the_bytes_of_per_value_repr(tmp_path):
    # the bundled runs at stride 1 hold cells of every notation, and runs
    # longer than 500 steps give the plot data a strided k column
    for name, raw in BUNDLED_SCENARIOS.items():
        trace = run(ScenarioConfig.from_dict(dict(raw, store_stride=1)))
        write_csv(trace, str(tmp_path / "t.csv"))
        write_plot_data(trace, str(tmp_path / "t.plot.csv"))
        body = (tmp_path / "t.csv").read_bytes().split(b"\n", 1)[1]
        plot_body = (tmp_path / "t.plot.csv").read_bytes().split(b"\n", 1)[1]
        assert body == _repr_rows(trace.ks, (trace.x, trace.x_hat, trace.u, trace.d, trace.eps,
                                             trace.gamma)), name
        idx = slice(None, None, -(-len(trace.ks) // 500))
        assert plot_body == _repr_rows(trace.ks[idx], (np.abs(trace.x[idx]).max(axis=2),
                                                       trace.gamma[idx])), name


def test_csv_write_peak_stays_under_one_mib(tmp_path):
    # 77,600 floats at stride 1: only a chunk's strings may be held at a time
    raw = dict(BUNDLED_SCENARIOS["auv_sin_attack_agent3_resilient"], store_stride=1)
    trace = run(ScenarioConfig.from_dict(raw))
    tracemalloc.start()
    try:
        write_csv(trace, str(tmp_path / "auv.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_shipped_example_scenario_runs():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "example-scenario.json")
    config = load_config(path)
    assert not any(d["level"] == "error" for d in validate(config))
    trace = run(config)
    assert not trace.diverged
    assert trace.controller == "resilient"


def test_readme_library_sketch_runs(capsys):
    # the README's python sketch runs as printed, so the documented API cannot go stale
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split()[0] == "BOUNDED_DEVIATION"
    assert printed[-1] == "False"  # root_targeted: agent 2 is no root


def test_shipped_schema_matches_package():
    shipped = json.loads((Path(__file__).parent.parent / "docs" / "scenario.schema.json")
                         .read_text(encoding="utf-8"))
    from resilient_consensus.scenarios import SCENARIO_SCHEMA
    assert shipped == json.loads(json.dumps(SCENARIO_SCHEMA))


def test_summary_round_trips_schema(tmp_path):
    Draft202012Validator.check_schema(SUMMARY_SCHEMA)
    validator = Draft202012Validator(SUMMARY_SCHEMA)
    trace = run(ScenarioConfig.from_dict(small_config()))
    path = tmp_path / "s.json"
    write_summary(trace, str(path))
    loaded = json.loads(path.read_text())
    assert not list(validator.iter_errors(loaded))
    assert loaded["prediction"] == "CONSENSUS"


def test_random_x0_uses_seed():
    a = ScenarioConfig.from_dict(small_config(x0={"scale": 2.0}, seed=5))
    b = ScenarioConfig.from_dict(small_config(x0={"scale": 2.0}, seed=5))
    c = ScenarioConfig.from_dict(small_config(x0={"scale": 2.0}, seed=6))
    np.testing.assert_array_equal(a.x0, b.x0)
    assert np.abs(a.x0 - c.x0).max() > 0


def test_full_bundled_matrix_under_time_budget_and_verdicts_agree(tmp_path):
    start = time.monotonic()
    for name in list_scenarios():
        trace = run(load_config(name))
        # the destabilization prediction must match the empirical flag everywhere
        assert trace.prediction_matches_divergence, name
    assert time.monotonic() - start < 60.0


def test_graph_dense_matrix_form():
    config = ScenarioConfig.from_dict(small_config(
        graph={"adjacency": [[0.0, 1.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0, 0.0],
                             [0.0, 1.0, 0.0, 0.0],
                             [1.0, 0.0, 0.0, 0.0]]}))
    trace = run(config)
    assert not trace.diverged
    np.testing.assert_allclose(trace.final_x, 3.0, atol=1e-9)


def test_predictor_init_override():
    config = ScenarioConfig.from_dict(small_config(
        controller="resilient", predictor_init=[0.0, 0.0, 0.0, 0.0], horizon=400))
    trace = run(config)
    assert np.abs(trace.x_hat[0]).max() == 0.0
    # predictor still reaches its own consensus (zero here), plant reaches 3
    assert np.abs(trace.final_x_hat).max() < 1e-6
    np.testing.assert_allclose(trace.final_x, 3.0, atol=1e-6)


def test_divergence_threshold_truncates_run():
    config = ScenarioConfig.from_dict(small_config(
        name="truncating", horizon=4000, divergence_threshold=50.0,
        attacks=[{"agent": 0, "channel": "actuator",
                  "signal": {"type": "constant", "value": [1.0]}}]))
    trace = run(config)
    assert trace.diverged and trace.first_crossing is not None
    assert trace.steps_run == trace.first_crossing < 4000
    assert len(trace.inf_norms) == trace.steps_run + 1


def test_a_run_starting_above_the_threshold_stops_at_step_0(tmp_path):
    raw = dict(BUNDLED_SCENARIOS["example1_consensus"], divergence_threshold=8.0)
    trace = run(ScenarioConfig.from_dict(raw))  # ||x0||_inf = 9
    assert trace.steps_run == trace.first_crossing == 0 and trace.diverged
    assert len(trace.ks) == 0 and list(trace.inf_norms) == [9.0]
    assert list(trace.final_x) == raw["x0"]
    assert trace.tail_consensus_error() == 0.0
    assert list(trace.tail_consensus_error_per_agent()) == [0.0] * 4
    write_summary(trace, str(tmp_path / "s.json"))
    loaded = json.loads((tmp_path / "s.json").read_text())
    assert not list(Draft202012Validator(SUMMARY_SCHEMA).iter_errors(loaded))
    assert loaded["steps_run"] == loaded["first_crossing_step"] == 0
    write_csv(trace, str(tmp_path / "t.csv"))
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("k,x_a0_0,")


def test_cli_list_and_run(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "example1_consensus" in out

    code = main(["run", "example1_consensus", "--out", str(tmp_path), "--format", "both"])
    assert code == 0
    assert (tmp_path / "example1_consensus.csv").exists()
    assert (tmp_path / "example1_consensus.summary.json").exists()


def test_cli_config_file_and_plot_data(tmp_path):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(small_config(name="from_file", horizon=800)))
    code = main(["run", str(cfg), "--out", str(tmp_path), "--plot-data"])
    assert code == 0
    # 800 stored steps thin to every second one: at most the default 500 rows, from k = 0
    rows = (tmp_path / "from_file.plot.csv").read_text().split("\n")[1:-1]
    assert [int(r.split(",")[0]) for r in rows] == list(range(0, 800, 2))


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(small_config(horizon=0)))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["validate", str(bad)]) == 2
    assert main(["run", "no_such_scenario", "--out", str(tmp_path)]) == 2
    capsys.readouterr()

    assert main(["run", "example1_root_attack", "--out", str(tmp_path),
                 "--fail-on-divergence"]) == 4
    assert main(["run", "example1_root_attack", "--out", str(tmp_path)]) == 0
    assert main(["validate", "example1_consensus"]) == 0


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # marginal uncontrollable mode: the Riccati iteration cannot stabilize it
    cfg = tmp_path / "unstabilizable.json"
    cfg.write_text(json.dumps(small_config(
        name="unstabilizable",
        model={"A": [[1.0, 0.0], [0.0, 1.0]], "B": [[1.0], [0.0]]},
        x0=[1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0])))
    with pytest.warns(UserWarning, match="not stabilizable"):
        code = main(["run", str(cfg), "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_run_all(tmp_path, synthesis_runs):
    code = main(["run-all", "--jobs", "1", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    for name in list_scenarios():
        assert (tmp_path / f"{name}.summary.json").exists()
    # 14 scenarios, 4 distinct design inputs: AUV, rotation2d, example1, chain5
    assert len(synthesis_runs) == 4


def test_run_all_in_two_workers_matches_one(tmp_path, capsys):
    results = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        code = main(["run-all", "--jobs", jobs, "--horizon", "300", "--seed", "7",
                     "--plot-data", "--fail-on-divergence", "--out", str(out)])
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        results.append((code, capsys.readouterr().out.splitlines(), files))
    assert results[0] == results[1]
    code, lines, files = results[0]
    assert code == 4  # example1_root_attack diverges
    assert [line.split(":")[0] for line in lines] == list_scenarios()
    assert len(files) == 3 * len(list_scenarios())


# ``run-all --seed 7`` at the bundled horizons: name, status, prediction, steps,
# tail gamma and tail consensus error of every scenario
RUN_ALL_SEED_7 = """\
auv_const_attack_agent2: bounded, prediction=BOUNDED_DEVIATION, steps=800, tail gamma=114.3, tail consensus err=8.451
auv_const_attack_agent2_resilient: bounded, prediction=BOUNDED_DEVIATION, steps=800, tail gamma=53.46, tail consensus err=5.463
auv_healthy: bounded, prediction=CONSENSUS, steps=800, tail gamma=0.1374, tail consensus err=0
auv_sin_attack_agent3: bounded, prediction=BOUNDED_DEVIATION, steps=800, tail gamma=393.5, tail consensus err=14.7
auv_sin_attack_agent3_resilient: bounded, prediction=BOUNDED_DEVIATION, steps=800, tail gamma=1.929e+04, tail consensus err=126.7
chain5_nonroot_attack: bounded, prediction=BOUNDED_DEVIATION, steps=2000, tail gamma=0.9976, tail consensus err=0.9988
example1_consensus: bounded, prediction=CONSENSUS, steps=250, tail gamma=7.889e-31, tail consensus err=0
example1_nonroot_attack: bounded, prediction=BOUNDED_DEVIATION, steps=2000, tail gamma=2.245, tail consensus err=1.498
example1_root_attack: DIVERGED, prediction=DESTABILIZE, steps=2000, tail gamma=2.245, tail consensus err=999.9
rotation2d_imp_nonroot: bounded, prediction=BOUNDED_DEVIATION, steps=1000, tail gamma=2.158, tail consensus err=1.469
rotation2d_imp_nonroot_resilient: bounded, prediction=BOUNDED_DEVIATION, steps=1000, tail gamma=3.031, tail consensus err=1.469
rotation2d_imp_root: DIVERGED, prediction=DESTABILIZE, steps=1000, tail gamma=8.63, tail consensus err=469
rotation2d_imp_root_resilient: DIVERGED, prediction=DESTABILIZE, steps=1000, tail gamma=12.13, tail consensus err=469
rotation2d_nonimp_root: bounded, prediction=BOUNDED_DEVIATION, steps=1000, tail gamma=4.544, tail consensus err=1.703
"""


def _run_all_fields(line):
    """(name, status, prediction, steps) and the two tail numbers of a run-all line."""
    name, rest = line.split(": ", 1)
    fields = [field.split("=")[-1] for field in rest.split(", ")]
    return (name, *fields[:3]), [float(v) for v in fields[3:]]


def test_run_all_seed_7_prints_the_pinned_lines(tmp_path, capsys):
    assert main(["run-all", "--seed", "7", "--format", "json", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = RUN_ALL_SEED_7.splitlines()
    assert len(lines) == len(expected)
    for line, pinned in zip(lines, expected):
        (labels, tails), (pinned_labels, pinned_tails) = map(_run_all_fields, (line, pinned))
        assert labels == pinned_labels
        for value, pin in zip(tails, pinned_tails):
            # 4 significant digits, as printed; a pinned value under 1e-12 is
            # rounding noise around an exact zero and need only stay under it
            assert abs(value) < 1e-12 if abs(pin) < 1e-12 else f"{value:.4g}" == f"{pin:.4g}", line


def test_validate_then_run_designs_once(synthesis_runs):
    config = load_config("auv_healthy")
    assert not any(d["level"] == "error" for d in validate(config))
    run(config)
    assert len(synthesis_runs) == 1


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RESILIENT_CONSENSUS_OUT", str(tmp_path / "envout"))
    assert main(["run", "example1_consensus", "--format", "json"]) == 0
    assert (tmp_path / "envout" / "example1_consensus.summary.json").exists()


def test_run_applies_its_overrides_before_it_parses(tmp_path, capsys):
    # a horizon of 0 is invalid on its own, and valid once --horizon replaces it
    cfg = tmp_path / "horizon_0.json"
    cfg.write_text(json.dumps(small_config(horizon=0)))
    assert main(["validate", str(cfg)]) == 2
    assert "horizon: 0 is less than the minimum of 1" in capsys.readouterr().err
    assert main(["run", str(cfg), "--horizon", "50", "--seed", "3",
                 "--out", str(tmp_path), "--format", "csv"]) == 0
    assert len((tmp_path / "smoke.csv").read_text().strip().split("\n")) == 51
    # a file that holds no JSON object stays a config error under overrides
    cfg.write_text("[1, 2]")
    assert main(["run", str(cfg), "--horizon", "50", "--out", str(tmp_path)]) == 2
    assert "holds no JSON object" in capsys.readouterr().err


def test_cli_horizon_and_seed_overrides(tmp_path):
    code = main(["run", "example1_consensus", "--horizon", "50",
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    lines = (tmp_path / "example1_consensus.csv").read_text().strip().split("\n")
    assert len(lines) == 51
