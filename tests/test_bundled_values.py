"""The bundled scenarios' results at seed 7, pinned to rounding.

``tests/data/run_all_seed7_values.json`` holds, for each bundled scenario
run as ``run-all --seed 7`` runs it, every numeric field of its summary, the
largest |value| of each stored trace array, and the fields that must match
exactly: the verdict, the divergence flag, the first crossing, the steps run
and the intact agents. A number matches within 1e-9 of
max(1, |pinned value|, the scenario's pinned max_state_norm), so a change
that only reorders floating-point operations keeps it. A change that alters
these results on purpose regenerates the pin with

    PYTHONPATH=src python tests/test_bundled_values.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from resilient_consensus import BUNDLED_SCENARIOS, ScenarioConfig, list_scenarios, run

PIN = pathlib.Path(__file__).parent / "data" / "run_all_seed7_values.json"
ARRAYS = ("x", "x_hat", "u", "d", "f", "eps", "gamma")
RTOL = 1e-9


def _numbers(value, prefix=""):
    """{dotted path: value} of every numeric leaf of a summary, bools left out."""
    if isinstance(value, dict):
        return {k: v for key, item in value.items()
                for k, v in _numbers(item, f"{prefix}{key}.").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in _numbers(item, f"{prefix}{i}.").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {prefix[:-1]: float(value)}
    return {}


def _values(name: str) -> dict:
    """What the pin holds for one bundled scenario, run with seed 7."""
    trace = run(ScenarioConfig.from_dict(dict(BUNDLED_SCENARIOS[name], seed=7)))
    return {
        "numbers": _numbers(trace.to_summary()),
        "peaks": {a: float(np.abs(getattr(trace, a)).max(initial=0.0)) for a in ARRAYS},
        "exact": {"prediction": trace.prediction, "diverged": bool(trace.diverged),
                  "first_crossing": trace.first_crossing, "steps_run": int(trace.steps_run),
                  "intact_agents": [int(i) for i in trace.intact_agents]},
    }


def _pinned() -> dict:
    return json.loads(PIN.read_text())


def test_the_pin_covers_every_bundled_scenario():
    assert sorted(_pinned()) == sorted(list_scenarios())


@pytest.mark.parametrize("name", list_scenarios())
def test_bundled_results_match_the_pin(name):
    pin = _pinned()[name]
    got = _values(name)
    assert got["exact"] == pin["exact"]
    scale = pin["numbers"]["tail.max_state_norm"]
    for group in ("numbers", "peaks"):
        assert sorted(got[group]) == sorted(pin[group])
        for key, expected in pin[group].items():
            actual = got[group][key]
            if not math.isfinite(expected):
                assert actual == expected or math.isnan(actual) == math.isnan(expected), key
                continue
            bound = RTOL * max(1.0, abs(expected), scale)
            assert abs(actual - expected) <= bound, (group, key, actual, expected)


if __name__ == "__main__":
    values = {name: _values(name) for name in list_scenarios()}
    PIN.parent.mkdir(exist_ok=True)
    PIN.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} scenarios to {PIN}", file=sys.stderr)
