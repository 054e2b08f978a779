"""Scenario configs: schema, presets, bundled experiment matrix, and the runner."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np
from jsonschema import Draft202012Validator

from . import engine
from .attacks import AttackSpec, constant_signal, sinusoid_signal, ExogenousSignal
from .design import THETA_BOUND, DesignError, _as_weight, coupling_range, design_controller
from .dynamics import LtiModel
from .graph import DirectedGraph, GraphError, normalized_laplacian
from .trace import SimulationTrace


class ConfigError(ValueError):
    """Scenario config rejected; message carries the offending field path."""


MODEL_PRESETS = {
    "single_integrator": {
        "A": [[1.0]],
        "B": [[1.0]],
    },
    "rotation2d": {
        "A": [[0.0, -1.0], [1.0, 0.0]],
        "B": [[0.0], [1.0]],
    },
    "auv_diving": {
        # heave speed, pitch rate, depth, pitch; bow and stern plane deflections
        "A": [[0.65, 0.54, 0.0, -0.0019],
              [0.21, 1.48, 0.0, -0.01],
              [0.83, 0.84, 1.0, 0.99],
              [0.11, 1.21, 0.0, 0.99]],
        "B": [[0.08, 0.13],
              [-0.13, 0.20],
              [0.02, 0.09],
              [-0.07, 0.09]],
        "K0": [[-0.18, -2.25, 0.13, -0.21],
               [1.56, 5.39, 0.49, 1.59]],
    },
}

_SIGNAL_SCHEMA = {
    "type": "object",
    "required": ["type"],
    "properties": {
        "type": {"enum": ["constant", "sin", "exogenous"]},
        "value": {"type": ["number", "array"]},
        "amplitude": {"type": ["number", "array"]},
        "omega": {"type": "number"},
        "phase": {"type": "number"},
        "W": {"type": "array"},
        "f0": {"type": "array"},
    },
    "allOf": [
        {"if": {"properties": {"type": {"const": "sin"}}},
         "then": {"required": ["omega"]}},
        {"if": {"properties": {"type": {"const": "exogenous"}}},
         "then": {"required": ["W", "f0"]}},
    ],
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["name", "model", "graph", "horizon"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "model": {
            "oneOf": [
                {"enum": sorted(MODEL_PRESETS)},
                {
                    "type": "object",
                    "required": ["A", "B"],
                    "properties": {"A": {"type": "array"}, "B": {"type": "array"}},
                    "additionalProperties": False,
                },
            ]
        },
        "graph": {
            "type": "object",
            "properties": {
                "n_agents": {"type": "integer", "minimum": 2},
                "edges": {
                    "type": "array",
                    "items": {"type": "array", "minItems": 2, "maxItems": 3,
                              "items": {"type": "number"}},
                },
                "adjacency": {"type": "array"},
            },
        },
        "horizon": {"type": "integer", "minimum": 1},
        "x0": {"type": ["array", "object"]},
        "controller": {"enum": ["baseline", "resilient"]},
        "q1": {"type": ["number", "array"]},
        "r1": {"type": ["number", "array"]},
        "c": {"type": "number", "exclusiveMinimum": 0},
        "theta": {"type": "number", "exclusiveMinimum": 0},
        "attacks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["agent", "channel", "signal"],
                "additionalProperties": False,
                "properties": {
                    "agent": {"type": "integer", "minimum": 0},
                    "channel": {"enum": ["actuator", "sensor"]},
                    "signal": _SIGNAL_SCHEMA,
                    "start": {"type": "integer", "minimum": 0},
                },
            },
        },
        "leader": {
            "type": "object",
            "required": ["K0"],
            "additionalProperties": False,
            "properties": {
                "K0": {"type": "array"},
                "amplitude": {"type": "number"},
                "omega": {"type": "number"},
            },
        },
        "compensator_start": {"type": "integer", "minimum": 0},
        "predictor_init": {"type": ["string", "array"]},
        "seed": {"type": "integer", "minimum": 0},
        "divergence_threshold": {"type": "number", "exclusiveMinimum": 0},
        "store_stride": {"type": "integer", "minimum": 1},
    },
}

_VALIDATOR = Draft202012Validator(SCENARIO_SCHEMA)


def _schema_errors(raw: dict) -> list:
    errors = []
    for err in sorted(_VALIDATOR.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        errors.append(f"{path}: {err.message}")
    return errors


def _parse_signal(raw: dict) -> ExogenousSignal:
    kind = raw["type"]
    if kind == "constant":
        return constant_signal(raw.get("value", 1.0))
    if kind == "sin":
        return sinusoid_signal(raw.get("amplitude", 1.0), raw["omega"], raw.get("phase", 0.0))
    return ExogenousSignal(W=np.asarray(raw["W"], dtype=float),
                           f0=np.asarray(raw["f0"], dtype=float))


@dataclass
class ScenarioConfig:
    """Validated, resolved scenario ready to simulate."""

    name: str
    model: LtiModel
    graph: DirectedGraph
    horizon: int
    x0: np.ndarray
    controller: str = "baseline"
    q1: object = None
    r1: object = None
    c: float | None = None
    theta: float | None = None
    attacks: list = field(default_factory=list)
    leader: engine.LeaderSpec | None = None
    compensator_start: int = 0
    predictor_init: np.ndarray | None = None
    seed: int | None = None
    divergence_threshold: float = engine.DIVERGENCE_THRESHOLD
    store_stride: int = 1
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        errors = _schema_errors(raw)
        if errors:
            raise ConfigError("; ".join(errors))

        model_raw = raw["model"]
        k0 = None
        if isinstance(model_raw, str):
            preset = MODEL_PRESETS[model_raw]
            model = LtiModel(A=np.asarray(preset["A"]), B=np.asarray(preset["B"]))
            k0 = preset.get("K0")
        else:
            model = LtiModel(A=np.asarray(model_raw["A"], dtype=float),
                             B=np.asarray(model_raw["B"], dtype=float))
        for weight, dim in (("q1", model.state_dim), ("r1", model.input_dim)):
            if weight in raw:
                try:
                    _as_weight(raw[weight], dim, weight)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(str(exc)) from exc

        graw = raw["graph"]
        try:
            if "adjacency" in graw:
                graph = DirectedGraph(np.asarray(graw["adjacency"], dtype=float))
            elif "edges" in graw and "n_agents" in graw:
                graph = DirectedGraph.from_edges(graw["n_agents"], graw["edges"])
            else:
                raise ConfigError("graph: needs either adjacency or n_agents+edges")
        except GraphError as exc:
            raise ConfigError(f"graph: {exc}") from exc

        seed = raw.get("seed")
        n_total = graph.n_agents * model.state_dim
        x0_raw = raw.get("x0")
        if x0_raw is None or isinstance(x0_raw, dict):
            scale = 1.0 if x0_raw is None else float(x0_raw.get("scale", 1.0))
            rng = np.random.default_rng(0 if seed is None else seed)
            x0 = scale * rng.normal(size=n_total)
        else:
            x0 = np.asarray(x0_raw, dtype=float).ravel()
            if x0.size != n_total:
                raise ConfigError(f"x0: expected {n_total} values, got {x0.size}")
        if not np.isfinite(x0).all():
            raise ConfigError("x0: every value must be finite")

        attacks = []
        for idx, araw in enumerate(raw.get("attacks", [])):
            if araw["agent"] >= graph.n_agents:
                raise ConfigError(f"attacks.{idx}.agent: index {araw['agent']} out of "
                                  f"range for {graph.n_agents} agents")
            try:
                signal = _parse_signal(araw["signal"])
                spec = AttackSpec(agent=araw["agent"], channel=araw["channel"],
                                  signal=signal, start_step=araw.get("start", 0))
            except ValueError as exc:
                raise ConfigError(f"attacks.{idx}: {exc}") from exc
            expected = model.input_dim if spec.channel == "actuator" else model.state_dim
            if spec.signal.dim != expected:
                raise ConfigError(f"attacks.{idx}.signal: dimension {spec.signal.dim} "
                                  f"does not match {spec.channel} width {expected}")
            attacks.append(spec)

        leader = None
        lraw = raw.get("leader")
        if lraw is not None:
            K0 = np.asarray(lraw["K0"], dtype=float) if "K0" in lraw else None
            if K0 is None and k0 is not None:
                K0 = np.asarray(k0, dtype=float)
            if K0.shape != (model.input_dim, model.state_dim):
                raise ConfigError(f"leader.K0: expected shape "
                                  f"({model.input_dim}, {model.state_dim}), got {K0.shape}")
            leader = engine.LeaderSpec(K0=K0, amplitude=lraw.get("amplitude", 1.0),
                                       omega=lraw.get("omega", 0.05))
            if any(a.agent == 0 for a in attacks):
                raise ConfigError("attacks: the leader agent 0 is trusted and "
                                  "cannot be attacked")

        pred_raw = raw.get("predictor_init", "match")
        if isinstance(pred_raw, str):
            if pred_raw != "match":
                raise ConfigError("predictor_init: must be 'match' or an explicit vector")
            predictor_init = None
        else:
            predictor_init = np.asarray(pred_raw, dtype=float).ravel()
            if predictor_init.size != n_total:
                raise ConfigError(f"predictor_init: expected {n_total} values")
            if not np.isfinite(predictor_init).all():
                raise ConfigError("predictor_init: every value must be finite")

        return cls(
            name=raw["name"],
            model=model,
            graph=graph,
            horizon=raw["horizon"],
            x0=x0,
            controller=raw.get("controller", "baseline"),
            q1=raw.get("q1"),
            r1=raw.get("r1"),
            c=raw.get("c"),
            theta=raw.get("theta"),
            attacks=attacks,
            leader=leader,
            compensator_start=raw.get("compensator_start", 0),
            predictor_init=predictor_init,
            seed=seed,
            divergence_threshold=raw.get("divergence_threshold", engine.DIVERGENCE_THRESHOLD),
            store_stride=raw.get("store_stride", 1),
            raw=copy.deepcopy(raw),
        )


def load_config(source) -> ScenarioConfig:
    """Accept a bundled scenario name, a JSON file path, or a raw dict."""
    if isinstance(source, dict):
        return ScenarioConfig.from_dict(source)
    if source in BUNDLED_SCENARIOS:
        return ScenarioConfig.from_dict(BUNDLED_SCENARIOS[source])
    try:
        with open(source, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {source!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {source!r}: {exc}") from exc
    return ScenarioConfig.from_dict(raw)


_NO_SPANNING_TREE = "no spanning tree (the zero eigenvalue is not simple)"


def run(config: ScenarioConfig) -> SimulationTrace:
    """Design gains for the scenario and simulate it.

    A graph with no spanning tree is rejected: consensus results do not apply.
    """
    spectrum = normalized_laplacian(config.graph)
    if not spectrum.has_simple_zero:
        raise ConfigError(f"graph: {_NO_SPANNING_TREE}")
    ctrl = design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1,
                             c=config.c, theta=config.theta)
    return engine.simulate(
        model=config.model,
        graph=config.graph,
        spectrum=spectrum,
        ctrl=ctrl,
        horizon=config.horizon,
        x0=config.x0,
        attacks=config.attacks,
        controller=config.controller,
        compensator_start=config.compensator_start,
        leader=config.leader,
        predictor_init=config.predictor_init,
        divergence_threshold=config.divergence_threshold,
        store_stride=config.store_stride,
        name=config.name,
        seed=config.seed,
    )


def validate(config: ScenarioConfig) -> list:
    """Static diagnostics without running: graph, gain design, parameter ranges."""
    diags = []
    try:
        spectrum = normalized_laplacian(config.graph)
        if not spectrum.has_simple_zero:
            diags.append({"level": "error", "field": "graph", "message": _NO_SPANNING_TREE})
        ctrl = design_controller(config.model, spectrum, Q1=config.q1, R1=config.r1,
                                 c=config.c, theta=config.theta)
    except (DesignError, GraphError, ValueError) as exc:
        diags.append({"level": "error", "field": "design", "message": str(exc)})
        return diags

    rng = coupling_range(spectrum, ctrl)
    if rng.is_empty:
        diags.append({
            "level": "warning", "field": "c",
            "message": (f"analytic coupling interval ({rng.c_lo:.4g}, {rng.c_hi:.4g}) is "
                        f"empty; grid-search fallback selected c = {ctrl.c:.4g}"),
        })
    if not (0 < ctrl.theta < THETA_BOUND):
        diags.append({"level": "error", "field": "theta",
                      "message": f"theta = {ctrl.theta:.4g} outside (0, {THETA_BOUND:.4g})"})
    for note in ctrl.notes:
        if note.startswith("warning"):
            diags.append({"level": "warning", "field": "design", "message": note})
    return diags


def list_scenarios() -> list:
    return sorted(BUNDLED_SCENARIOS)


# ---------------------------------------------------------------------------
# bundled experiment matrix
# ---------------------------------------------------------------------------

_EXAMPLE1_GRAPH = {
    "n_agents": 4,
    # agent pairs are 0-based: edges 1->0, 0->1, 1->2, 0->3
    "edges": [[1, 0, 1.0], [0, 1, 1.0], [1, 2, 1.0], [0, 3, 1.0]],
}

# five followers in a chain; agent 1 is the sole root
_CHAIN5_GRAPH = {
    "n_agents": 5,
    "edges": [[1, 0, 1.0], [1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0]],
}

# leader 0 pins followers 1 and 2; follower indices shift up by one
_AUV_GRAPH = {
    "n_agents": 6,
    "edges": [[0, 1, 1.0], [0, 2, 1.0], [2, 1, 1.0], [2, 3, 1.0],
              [3, 4, 1.0], [4, 5, 1.0]],
}

_AUV_BASE = {
    "model": "auv_diving",
    "graph": _AUV_GRAPH,
    "horizon": 800,
    "x0": {"scale": 0.5},
    "seed": 7,
    "leader": {"K0": MODEL_PRESETS["auv_diving"]["K0"], "amplitude": 1.0, "omega": 0.05},
}

_AUV_SIN_ATTACK = [{
    "agent": 3, "channel": "actuator",
    "signal": {"type": "sin", "amplitude": [10.0, 10.0], "omega": 1.0},
    "start": 61,
}]

_AUV_CONST_ATTACK = [{
    "agent": 2, "channel": "actuator",
    "signal": {"type": "constant", "value": [5.0, 5.0]},
    "start": 61,
}]

_ROT_BASE = {
    "model": "rotation2d",
    "graph": _CHAIN5_GRAPH,
    "horizon": 1000,
    "x0": {"scale": 1.0},
    "seed": 11,
}


def _rot_attack(agent: int, omega: float) -> list:
    return [{"agent": agent, "channel": "actuator",
             "signal": {"type": "sin", "amplitude": [1.0], "omega": omega},
             "start": 61}]


BUNDLED_SCENARIOS = {
    "example1_consensus": {
        "name": "example1_consensus",
        "model": "single_integrator",
        "graph": _EXAMPLE1_GRAPH,
        "horizon": 250,
        "x0": [2.0, 4.0, 9.0, -3.0],
        "controller": "baseline",
    },
    "example1_root_attack": {
        "name": "example1_root_attack",
        "model": "single_integrator",
        "graph": _EXAMPLE1_GRAPH,
        "horizon": 2000,
        "x0": [2.0, 4.0, 9.0, -3.0],
        "controller": "baseline",
        "attacks": [{"agent": 0, "channel": "actuator",
                     "signal": {"type": "constant", "value": [1.0]}}],
    },
    "example1_nonroot_attack": {
        "name": "example1_nonroot_attack",
        "model": "single_integrator",
        "graph": _EXAMPLE1_GRAPH,
        "horizon": 2000,
        "x0": [2.0, 4.0, 9.0, -3.0],
        "controller": "baseline",
        "attacks": [{"agent": 2, "channel": "actuator",
                     "signal": {"type": "constant", "value": [1.0]}}],
    },
    "chain5_nonroot_attack": {
        "name": "chain5_nonroot_attack",
        "model": "single_integrator",
        "graph": _CHAIN5_GRAPH,
        "horizon": 2000,
        "x0": [2.0, 4.0, 9.0, -3.0, 5.0],
        "controller": "baseline",
        "attacks": [{"agent": 2, "channel": "actuator",
                     "signal": {"type": "constant", "value": [1.0]}}],
    },
    "auv_healthy": {
        "name": "auv_healthy", **_AUV_BASE, "controller": "baseline",
    },
    "auv_sin_attack_agent3": {
        "name": "auv_sin_attack_agent3", **_AUV_BASE,
        "controller": "baseline", "attacks": _AUV_SIN_ATTACK,
    },
    "auv_sin_attack_agent3_resilient": {
        "name": "auv_sin_attack_agent3_resilient", **_AUV_BASE,
        "controller": "resilient", "compensator_start": 61, "attacks": _AUV_SIN_ATTACK,
    },
    "auv_const_attack_agent2": {
        "name": "auv_const_attack_agent2", **_AUV_BASE,
        "controller": "baseline", "attacks": _AUV_CONST_ATTACK,
    },
    "auv_const_attack_agent2_resilient": {
        "name": "auv_const_attack_agent2_resilient", **_AUV_BASE,
        "controller": "resilient", "compensator_start": 61, "attacks": _AUV_CONST_ATTACK,
    },
    "rotation2d_imp_root": {
        "name": "rotation2d_imp_root", **_ROT_BASE,
        "controller": "baseline", "attacks": _rot_attack(1, float(np.pi / 2)),
    },
    "rotation2d_imp_root_resilient": {
        "name": "rotation2d_imp_root_resilient", **_ROT_BASE,
        "controller": "resilient", "compensator_start": 61,
        "attacks": _rot_attack(1, float(np.pi / 2)),
    },
    "rotation2d_imp_nonroot": {
        "name": "rotation2d_imp_nonroot", **_ROT_BASE,
        "controller": "baseline", "attacks": _rot_attack(2, float(np.pi / 2)),
    },
    "rotation2d_imp_nonroot_resilient": {
        "name": "rotation2d_imp_nonroot_resilient", **_ROT_BASE,
        "controller": "resilient", "compensator_start": 61,
        "attacks": _rot_attack(2, float(np.pi / 2)),
    },
    "rotation2d_nonimp_root": {
        # the unit-rate sinusoid: its generator eigenvalues exp(+-i) do not
        # match the plant's +-i, so it deviates the network without instability
        "name": "rotation2d_nonimp_root", **_ROT_BASE,
        "controller": "baseline", "attacks": _rot_attack(1, 1.0),
    },
}
