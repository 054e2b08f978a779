"""Reference computations the benchmark checks the package against.

Nothing here calls into ``resilient_consensus`` except to read the model
preset data. Each function rebuilds its answer from the raw scenario dict by
a different route than the package: the simulation runs in stacked
Kronecker form with closed-form attack signals, the gain comes from SciPy's
Riccati solver, the root set from breadth-first search, and the scalar-agent
design and bounds from closed-form eigenvalues.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_discrete_are

# the documented design policy of ``design_controller``, restated so that a
# change to it shows as a check failure rather than passing silently
COUPLING_GRID = np.linspace(0.02, 4.0, 200)
THETA_FRACTIONS = (0.9, 0.7, 0.5, 0.35, 0.2)
JOINT_RADIUS_LIMIT = 0.98
ZERO_EIG_TOL = 1e-9
RADIUS_TIE_TOL = 1e-12


def _weight(value, dim):
    if value is None:
        return np.eye(dim)
    w = np.asarray(value, dtype=float)
    return float(w) * np.eye(dim) if w.ndim == 0 else w


def model_matrices(raw, presets):
    model = raw["model"]
    spec = presets[model] if isinstance(model, str) else model
    return np.atleast_2d(np.asarray(spec["A"], float)), np.atleast_2d(np.asarray(spec["B"], float))


def adjacency(raw):
    g = raw["graph"]
    if "adjacency" in g:
        a = np.array(g["adjacency"], dtype=float)
    else:
        a = np.zeros((g["n_agents"], g["n_agents"]))
        for e in g["edges"]:
            a[int(e[1]), int(e[0])] = float(e[2]) if len(e) > 2 else 1.0
    np.fill_diagonal(a, 0.0)
    return a


def normalized_laplacian(a):
    h = a.sum(axis=1)
    return (np.diag(h) - a) / (1.0 + h)[:, None]


def initial_state(raw, n_total):
    x0 = raw.get("x0")
    if x0 is None or isinstance(x0, dict):
        scale = 1.0 if x0 is None else float(x0.get("scale", 1.0))
        seed = raw.get("seed")
        return scale * np.random.default_rng(0 if seed is None else seed).normal(size=n_total)
    return np.asarray(x0, dtype=float).ravel()


def riccati_gain(A, B, q1=None, r1=None):
    """K = (R + B'PB)^-1 B'PA with P from SciPy's DARE solver."""
    Q, R = _weight(q1, A.shape[0]), _weight(r1, B.shape[1])
    P = solve_discrete_are(A, B, Q, R)
    return np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A), P


def signal_series(sig, steps):
    """Closed form of a bundled signal type for j = 0..steps-1 after its start."""
    j = np.arange(steps)[:, None]
    kind = sig["type"]
    if kind == "constant":
        value = np.atleast_1d(np.asarray(sig.get("value", 1.0), dtype=float))
        return np.broadcast_to(value, (steps, value.size))
    if kind == "sin":
        amp = np.atleast_1d(np.asarray(sig.get("amplitude", 1.0), dtype=float))
        return amp * np.sin(sig["omega"] * j + sig.get("phase", 0.0))
    raise NotImplementedError(f"oracle has no closed form for signal type {kind!r}")


def injection_series(raw, channel, steps, n_agents, width):
    """Summed attack injections on one channel, (steps, n_agents * width), or
    None when no attack uses the channel."""
    out = None
    for at in raw.get("attacks", []):
        start = at.get("start", 0)
        if at["channel"] == channel and start < steps:
            if out is None:
                out = np.zeros((steps, n_agents * width))
            cols = slice(at["agent"] * width, (at["agent"] + 1) * width)
            out[start:, cols] += signal_series(at["signal"], steps - start)
    return out


def simulate_final(raw, presets, c, theta, steps):
    """Final (x, x_hat) after ``steps`` ticks, in stacked Kronecker form.

    Follows the tick order of the package's engine: measure, control,
    inject, advance the plant, update the compensator, advance the predictor.
    """
    A, B = model_matrices(raw, presets)
    n, m = B.shape
    a = adjacency(raw)
    N = a.shape[0]
    K, _ = riccati_gain(A, B, raw.get("q1"), raw.get("r1"))
    # u = c (I (x) K) eps with eps = -(L (x) I) x
    gain = -c * np.kron(np.eye(N), K) @ np.kron(normalized_laplacian(a), np.eye(n))
    IA, IB = np.kron(np.eye(N), A), np.kron(np.eye(N), B)
    x = initial_state(raw, N * n)
    pinit = raw.get("predictor_init", "match")
    xh = x.copy() if isinstance(pinit, str) else np.asarray(pinit, float).ravel()
    d = np.zeros(N * m)
    resilient = raw.get("controller", "baseline") == "resilient"
    comp_start = raw.get("compensator_start", 0)
    sens = injection_series(raw, "sensor", steps, N, n)
    act = injection_series(raw, "actuator", steps, N, m)
    leader = raw.get("leader")
    if leader is not None:
        K0 = np.asarray(leader["K0"], dtype=float)
        ff = (a[1:, 0] / (1.0 + a[1:].sum(axis=1)))[:, None]
        ref = leader.get("amplitude", 1.0) * np.sin(leader.get("omega", 0.05) * np.arange(steps))

    for k in range(steps):
        u_meas = gain @ (x if sens is None else x + sens[k])
        u_hat = gain @ xh
        uh = u_hat.copy()
        compensating = resilient and k >= comp_start
        u = u_meas - d if compensating else u_meas.copy()
        if leader is not None:
            u0 = ref[k] - K0 @ x[:n]
            u0h = ref[k] - K0 @ xh[:n]
            u[:m], uh[:m] = u0, u0h
            u[m:] += (ff * u0).ravel()
            uh[m:] += (ff * u0h).ravel()
        x = IA @ x + IB @ (u if act is None else u + act[k])
        xh = IA @ xh + IB @ uh
        if compensating:
            # theta c K (eps_hat - eps_bar) + theta d
            d = theta * (u_hat - u_meas) + theta * d
    return x, xh


def root_set(a):
    """Agents from which every agent is reachable, by one BFS per agent."""
    N = a.shape[0]
    succ = [np.nonzero(a[:, u] > 0)[0].tolist() for u in range(N)]
    roots = set()
    for r in range(N):
        seen = {r}
        frontier = [r]
        while frontier:
            nxt = []
            for u in frontier:
                for v in succ[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) == N:
            roots.add(r)
    return roots


def ramp_crossing(raw, presets, c, threshold):
    """Analytic first step at which a baseline scalar network under a constant
    actuator attack exceeds ``threshold`` in inf-norm.

    With L the normalized Laplacian and p its zero left eigenvector (sum 1),
    p'x grows by p_a * v per step for an attack of value v on agent a, and
    the disagreement x - (p'x) 1 settles at the delta solving
    c K L delta = (e_a - p_a 1) v with p' delta = 0, so after the transient
    x(k) = p'x0 + k p_a v + delta. Returns (step, final state at that step).
    """
    A, B = model_matrices(raw, presets)
    if A.shape != (1, 1) or A[0, 0] != 1.0:
        raise ValueError("ramp_crossing needs single-integrator agents")
    (atk,) = raw["attacks"]
    if atk["channel"] != "actuator" or atk["signal"]["type"] != "constant" or atk.get("start", 0):
        raise ValueError("ramp_crossing needs one constant actuator attack from step 0")
    v = float(np.atleast_1d(atk["signal"]["value"])[0])
    a = adjacency(raw)
    N = a.shape[0]
    L = normalized_laplacian(a)
    K, _ = riccati_gain(A, B, raw.get("q1"), raw.get("r1"))
    ones = np.ones(N)
    p = np.linalg.lstsq(np.vstack([L.T, ones]), np.r_[np.zeros(N), 1.0], rcond=None)[0]
    e = np.zeros(N)
    e[atk["agent"]] = 1.0
    rhs = (e - p[atk["agent"]] * ones) * v
    delta = np.linalg.lstsq(np.vstack([c * K[0, 0] * L, p]), np.r_[rhs, 0.0], rcond=None)[0]
    x0 = initial_state(raw, N)
    rate = p[atk["agent"]] * v
    offset = p @ x0 + delta.max()
    step = int(np.floor((threshold - offset) / rate)) + 1
    return step, p @ x0 + step * rate + delta


def scalar_design(a):
    """(c, theta) that ``design_controller`` selects for single-integrator
    agents with unit weights, from closed-form 1x1 and 2x2 eigenvalues.

    Also returns the set of couplings whose baseline radius ties the chosen
    one, any of which the package may legitimately pick.
    """
    one = np.ones((1, 1))
    K, P = riccati_gain(one, one)
    k, p = float(K[0, 0]), float(P[0, 0])
    lam = np.linalg.eigvals(normalized_laplacian(a))
    nz = lam[np.abs(lam) > ZERO_EIG_TOL * max(1.0, np.abs(lam).max())]
    beta = p / (1.0 + p)

    def radius(c):
        return float(np.abs(1.0 - (c * nz) * k).max())

    def theta_bound(c):
        return 1.0 / np.sqrt(2.0 + float((c * lam * beta).real.min()))

    def joint(c, th):
        t = 1.0 - (c * nz) * k + th
        disc = np.sqrt(t * t - 4.0 * th + 0j)
        return float(np.maximum(np.abs(t + disc), np.abs(t - disc)).max() / 2.0)

    lam_m = float(nz.real.min())
    lo = 2.0 / lam_m
    hi = 1.0 / (lam_m * np.sqrt(2.0 * k * k * p))
    mid = 0.5 * (lo + hi)
    if lo < hi and np.isfinite(mid) and radius(mid) < 1.0:
        cands = [(radius(mid), mid)]
    else:
        cands = [cr for cr in sorted((radius(c), float(c)) for c in COUPLING_GRID) if cr[0] < 1.0]
    for frac in THETA_FRACTIONS:
        for r, c in cands:
            th = frac * theta_bound(c)
            if joint(c, th) <= JOINT_RADIUS_LIMIT:
                ties = {cv for rv, cv in cands if abs(rv - r) <= RADIUS_TIE_TOL}
                return c, th, ties
    raise ValueError("oracle found no (c, theta) meeting the joint Schur margin")


def scalar_dtilde(a, c, theta, attack_bound):
    """dtilde_bound for single-integrator agents, zeta = 1, actuator channel."""
    one = np.ones((1, 1))
    _, P = riccati_gain(one, one)
    beta = float(P[0, 0]) / (1.0 + float(P[0, 0]))
    lam_min = float((c * np.linalg.eigvals(normalized_laplacian(a)) * beta).real.min())
    return 4.0 * attack_bound * abs(1.0 - 1.0 / theta) / (theta ** -2 - 2.0 - 2.0 * lam_min)
