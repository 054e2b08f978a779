"""The benchmark tracer patches package attributes by dotted path; a refactor
that removes or renames one of them would crash every traced benchmark run."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import resilient_consensus
from resilient_consensus import design

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _path_lists():
    """SPANNED and COUNTED as literals, read from the source without importing it."""
    lists = {}
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                lists[name] = ast.literal_eval(node.value)
    return lists


def test_traced_paths_resolve_against_package():
    lists = _path_lists()
    assert set(lists) == {"SPANNED", "COUNTED"}
    paths = [path for entries in lists.values() for path, _label in entries]
    assert paths
    for path in paths:
        owner = resilient_consensus
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        # class attributes are patched through the class dict, as the tracer does
        found = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
        assert found is not None, path
        assert callable(found) or isinstance(found, classmethod), path


def test_design_counters_see_radius_calls(monkeypatch, cold_designs, integrator,
                                         example1_spectrum):
    """The tracer counts these calls through ``design``'s globals, as patched here.

    The memo starts empty, so the design below runs the synthesis that makes them."""
    counts = Counter()
    for name in ("baseline_radius", "joint_radius"):
        def counted(*args, _name=name, _fn=getattr(design, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(design, name, counted)
    resilient_consensus.design_controller(integrator, example1_spectrum)
    assert counts["baseline_radius"] > 0 and counts["joint_radius"] > 0
