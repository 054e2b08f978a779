import json
import os
import time

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from resilient_consensus import (BUNDLED_SCENARIOS, ConfigError, ScenarioConfig,
                                 global_performance, list_scenarios, load_config, run, validate,
                                 write_csv, write_plot_data, write_summary)
from resilient_consensus.cli import main
from resilient_consensus.trace import SUMMARY_SCHEMA


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


def test_shipped_example_scenario_runs():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "example-scenario.json")
    config = load_config(path)
    assert not any(d["level"] == "error" for d in validate(config))
    trace = run(config)
    assert not trace.diverged
    assert trace.controller == "resilient"


def test_shipped_schema_matches_package():
    shipped = json.loads(
        open(os.path.join(os.path.dirname(__file__), "..", "docs", "scenario.schema.json"),
             encoding="utf-8").read())
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
    cfg.write_text(json.dumps(small_config(name="from_file")))
    code = main(["run", str(cfg), "--out", str(tmp_path), "--plot-data"])
    assert code == 0
    assert (tmp_path / "from_file.plot.csv").exists()


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


def test_validate_then_run_designs_once(synthesis_runs):
    config = load_config("auv_healthy")
    assert not any(d["level"] == "error" for d in validate(config))
    run(config)
    assert len(synthesis_runs) == 1


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RESILIENT_CONSENSUS_OUT", str(tmp_path / "envout"))
    assert main(["run", "example1_consensus", "--format", "json"]) == 0
    assert (tmp_path / "envout" / "example1_consensus.summary.json").exists()


def test_cli_horizon_and_seed_overrides(tmp_path):
    code = main(["run", "example1_consensus", "--horizon", "50",
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    lines = (tmp_path / "example1_consensus.csv").read_text().strip().split("\n")
    assert len(lines) == 51
