"""Benchmark inputs: each workload is a list of passes, each pass a list of ops.

Every input comes from the workload seed. The package receives only the
generated scenario dicts.

- ``long_horizon``: two long runs at store_stride 1000. Example 1 under a
  constant attack on root agent 0 with divergence threshold 1e5: the
  0.5-per-step ramp crosses near step 2e5. The resilient AUV scenario
  (leader, compensator, 4-state/2-input agents) runs 80k steps. The
  per-step engine loop and the O(horizon) attack buffers do nearly all the
  work.
- ``scenario_matrix``: all 14 bundled scenarios at their bundled horizons,
  stride 1, which is the ``run-all --jobs 1`` traffic. Emission, design and
  the per-stored-step Gamma dominate, so a change that helps long runs but
  costs short ones shows here.
- ``large_network``: random sparse networks of single integrators at
  N = 10, 50 and 200, each with a 500-step resilient run under a constant
  attack on a root agent. Graph, design and defense do the work and the
  engine loop barely runs, so this is the bypass case for engine changes.

Each pass of ``long_horizon`` and ``scenario_matrix`` repeats the same
inputs; ``large_network`` draws fresh networks for every pass, so that one
run averages over many graphs and the figures move little from seed to seed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("long_horizon", "scenario_matrix", "large_network")

LONG_RAMP_THRESHOLD = 1e5
LONG_RAMP_HORIZON = 200_000
# about as long as the ramp run, so that the run latency percentiles of this
# workload do not jump between two run lengths
LONG_AUV_HORIZON = 80_000
LONG_STRIDE = 1000

NETWORK_SIZES = (10, 50, 200)
NETWORK_HORIZON = 500
NETWORK_STRIDE = 10
# share of agents in the strongly connected root core, and random in-edges
# per agent on top of the one that makes the graph connected
NETWORK_CORE_FRACTION = 0.2
NETWORK_EXTRA_IN_EDGES = 2
NETWORK_POOL_PASSES = 16
# the prediction for a constant attack on a root agent. The empirical growth
# flag is not pinned: a root with a small left-eigenvector weight p_a ramps by
# only p_a per step, which 500 steps need not show (for one graph in 80,
# p_a = 7.7e-4 gave a ramp of 0.385 that the growth test missed)
NETWORK_VERDICT = {"prediction": "DESTABILIZE", "steps_run": NETWORK_HORIZON,
                   "first_crossing": None}

# the matrix is repeated until at least this many runs completed, so its p90
# has ten samples beyond it
MATRIX_MIN_RUNS = 100

TINY_MATRIX = ("example1_consensus", "auv_healthy", "rotation2d_nonimp_root")


@dataclass
class Op:
    """One scenario run: parse, check the graph, design, simulate, bound, emit.

    ``kind`` is "scenario" for a run through ``scenarios.run`` or "network"
    for the explicit spectrum/design/simulate calls. ``key`` identifies the
    inputs, so that repeated inputs are checked for identical output.
    """

    name: str
    kind: str
    raw: dict
    key: str
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    passes: list
    min_runs: int = 1

    def pass_ops(self, index: int) -> list:
        return self.passes[index % len(self.passes)]


def core_periphery_graph(n: int, rng) -> tuple:
    """Edge list and root core of a random sparse digraph on ``n`` agents.

    The last ``NETWORK_CORE_FRACTION * n`` agents form the root core: a
    random directed cycle plus random in-edges from the core. Every other
    agent hears one core agent and a few random followers, and no follower
    feeds the core, so the root set is exactly the core. Putting the core at
    the highest indices makes ``has_spanning_tree`` search from every
    follower first.
    """
    r = max(2, int(round(NETWORK_CORE_FRACTION * n)))
    core = np.arange(n - r, n)
    followers = np.arange(n - r)
    a = np.zeros((n, n))
    cycle = rng.permutation(core)
    a[np.roll(cycle, -1), cycle] = 1.0
    for i in core:
        a[i, rng.choice(core, size=NETWORK_EXTRA_IN_EDGES)] = 1.0
    for i in followers:
        a[i, rng.choice(core)] = 1.0
        a[i, rng.choice(followers, size=NETWORK_EXTRA_IN_EDGES)] = 1.0
    np.fill_diagonal(a, 0.0)
    dst, src = np.nonzero(a)
    edges = [[int(s), int(d), 1.0] for s, d in zip(src, dst)]
    return edges, core


def _long_horizon(bundled, seed, tiny):
    ramp = copy.deepcopy(bundled["example1_root_attack"])
    ramp.update(name="long_example1_root_attack",
                horizon=3000 if tiny else LONG_RAMP_HORIZON,
                divergence_threshold=1e3 if tiny else LONG_RAMP_THRESHOLD,
                store_stride=100 if tiny else LONG_STRIDE)
    auv = copy.deepcopy(bundled["auv_sin_attack_agent3_resilient"])
    auv.update(name="long_auv_sin_attack_agent3_resilient", seed=seed,
               horizon=2000 if tiny else LONG_AUV_HORIZON,
               store_stride=100 if tiny else LONG_STRIDE)
    ops = [Op(raw["name"], "scenario", raw, raw["name"]) for raw in (ramp, auv)]
    ops[0].expect["ramp_threshold"] = ramp["divergence_threshold"]
    # the attack bound, hence the threshold, depends on the horizon
    ops[1].expect.update(pins_from=f"{auv['name']}@{auv['horizon']}",
                         verdict=["BOUNDED_DEVIATION", False, True, auv["horizon"], None])
    return Workload([ops])


def _scenario_matrix(bundled, seed, tiny):
    ops = []
    for name in (TINY_MATRIX if tiny else sorted(bundled)):
        raw = copy.deepcopy(bundled[name])
        raw["seed"] = seed  # as ``run-all --seed``: reseeds every random x0
        ops.append(Op(name, "scenario", raw, name, {"pins_from": name}))
    return Workload([ops], min_runs=0 if tiny else MATRIX_MIN_RUNS)


def _large_network(seed, tiny):
    rng = np.random.default_rng(seed)
    sizes = (5, 8) if tiny else NETWORK_SIZES
    passes = []
    for p in range(2 if tiny else NETWORK_POOL_PASSES):
        ops = []
        for n in sizes:
            edges, core = core_periphery_graph(n, rng)
            raw = {
                "name": f"network_n{n}",
                "model": "single_integrator",
                "graph": {"n_agents": n, "edges": edges},
                "horizon": NETWORK_HORIZON,
                "x0": rng.normal(size=n).tolist(),
                "controller": "resilient",
                "attacks": [{"agent": int(rng.choice(core)), "channel": "actuator",
                             "signal": {"type": "constant", "value": [1.0]}}],
                "store_stride": NETWORK_STRIDE,
            }
            ops.append(Op(raw["name"], "network", raw, f"pass{p}/{raw['name']}",
                          {"roots": set(core.tolist()), "pins_from": f"seed{seed}/pass{p}/n{n}",
                           "verdict": NETWORK_VERDICT}))
        passes.append(ops)
    return Workload(passes)


def build(name: str, seed: int, bundled: dict, tiny: bool = False) -> Workload:
    """The workload's inputs for ``seed``; ``tiny`` shrinks it for tests."""
    if name == "long_horizon":
        return _long_horizon(bundled, seed, tiny)
    if name == "scenario_matrix":
        return _scenario_matrix(bundled, seed, tiny)
    if name == "large_network":
        return _large_network(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
