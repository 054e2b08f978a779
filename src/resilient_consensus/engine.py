"""One run simulated as two autonomous linear systems, propagated in blocks.

Every input of a run comes from a linear generator f(j+1) = W f(j): each
attack signal, and the leader reference r(k) = amplitude sin(omega k) on
every input channel. So a run is an autonomous LTI system, and it splits
into two systems that do not feed each other:

- the predictor p = [x_hat; sin(omega k); cos(omega k)] (the phase rows
  only with a leader). No attack, compensator or controller choice touches
  it, so x_hat is the same with and without attacks;
- the error system q = [e; d; g]: the plant's deviation e = x - x_hat from
  the predictor, the compensator state d and the stacked attack generator
  states g. The reference cancels in e, so q stays zero in an attack-free
  run whose predictor starts at x0. A run whose compensator never starts
  inside the horizon (every baseline run) has d = 0 throughout, and q
  leaves it out.

The law u = c K eps_bar - d with eps_bar = -Lhat (x + s) (s the sensor
corruption), the leader's u_0 = r(k) - K0 x_0, the followers' feed-forward
(1+h_i)^-1 a_i0 u_0 and the compensator update
d(k+1) = theta c K (eps_hat - eps_bar) + theta d(k) are written once, in
``_Law``. Each system's one-step map applies them to a stack of states, and
its operator F is that map applied to the unit vectors; the stored u is the
law applied to the stored rows. The order within step k is: measure, apply
the law, add the actuator injection, advance the plant and the predictor,
update the compensator. Every quantity stored for step k is the value used
during it.

The predictor's operator is fixed. The error system's switches at each
attack's ``start_step`` (before it, the generator is held at f0 and injects
nothing) and, for the resilient controller, at ``compensator_start``
(before it, d is held at zero): each stretch between switch times is a
regime with its own operator.

A system with operator F and block length B advances by one product of the
stacked powers [F; F^2; ...; F^B] with its state, which gives the B states
that follow; the last of them starts the next block. B is the number of
dim x dim powers that fit in BLOCK_FLOATS floats, cut before the first power
with an entry above POWER_LIMIT, so that no power overflows. The run is
processed in windows of whole predictor blocks whose states fill about
WINDOW_FLOATS floats. The predictor's blocks start at multiples of its B
whatever the attacks are, so x_hat comes out the same with and without
them; the error system's blocks restart at each window and at each switch
time. A window's states give ||x||_inf = ||x_hat + e||_inf after every
step, and the run stops at the first step inside the window where it is
non-finite or above the divergence threshold.

Time grows linearly with the horizon. Memory grows with it only by the
per-step inf-norm series (8 bytes a step) and the stored rows; the powers
and a window's states are bounded by BLOCK_FLOATS and WINDOW_FLOATS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``signal_series`` is not called here any more; the benchmark's tracer patches
# ``engine.signal_series`` by name, so the name stays importable from this module.
from .attacks import effective_injection, signal_series  # noqa: F401
from .design import ControllerConfig
from .dynamics import LtiModel
from .graph import DirectedGraph, GraphSpectrum
from .metrics import analyze_growth, destabilization_verdict, global_performance
from .trace import SimulationTrace

DIVERGENCE_THRESHOLD = 1e9
# floats of one system's stacked powers [F; ...; F^B]
BLOCK_FLOATS = 1 << 16
# floats of the predictor and error-system states of one window
WINDOW_FLOATS = 1 << 15
# largest entry any stacked power may reach
POWER_LIMIT = 1e150
# unit vectors pushed through a one-step map at once to build its matrix
BASIS_CHUNK = 32


@dataclass(frozen=True)
class LeaderSpec:
    """Trusted leader at index 0: u_0 = -K0 x_0 + r(k), broadcast to its neighbors.

    The reference r(k) = amplitude * sin(omega k) on every input channel.
    Followers receiving a pinning edge a_i0 add the feedforward term
    (1+h_i)^-1 a_i0 u_0 to their own consensus input.
    """

    K0: np.ndarray
    amplitude: float = 1.0
    omega: float = 0.05


class _Law:
    """The control law and the compensator update on stacks of agent states.

    ``x`` and ``s`` are (k, N, n), ``d`` is (k, N, m) and ``phase`` is (k, 2)
    holding (sin omega j, cos omega j). Each follower applies
    u = c K eps_bar - d with eps_bar = -Lhat (x + s). With a leader,
    u_0 = r(j) - K0 x_0 replaces agent 0's input, so agent 0's sensors and d
    do not enter it, and each follower adds (1+h_i)^-1 a_i0 u_0.
    """

    def __init__(self, graph: DirectedGraph, norm_lap: np.ndarray, ctrl: ControllerConfig,
                 leader: LeaderSpec | None):
        self.lap = norm_lap
        self.ctrl = ctrl
        self.leader = leader
        self.ff = (graph.adjacency[1:, 0] / (1.0 + graph.in_degrees[1:]))[:, None]

    def gain(self, x):
        """c K eps = c K (-Lhat x) for measured states x, as for a sensor attack."""
        return effective_injection(x, None, self.lap, self.ctrl.c, self.ctrl.K)

    def __call__(self, x, s, d, phase):
        U = self.gain(x + s) - d
        if self.leader is not None:
            u0 = self.leader.amplitude * phase[:, :1] - x[:, 0] @ self.leader.K0.T
            U[:, 0] = u0
            U[:, 1:] += self.ff * u0[:, None]
        return U

    def compensate(self, d, e_plus_s):
        """d(j+1) = theta c K (eps_hat - eps_bar) + theta d(j), where
        eps_hat - eps_bar = Lhat (x + s - x_hat) = Lhat (e + s)."""
        return self.ctrl.theta * (d - self.gain(e_plus_s))


def _stacked_powers(step, dim: int, limit: int) -> np.ndarray:
    """[F; F^2; ...; F^B] of the linear one-step map ``step`` as a (B*dim, dim)
    array.

    F's columns are ``step`` applied to the unit vectors, BASIS_CHUNK at a
    time; the powers follow by doubling. B is the number of powers that fit
    in BLOCK_FLOATS, at least 1 and at most ``limit``, and it stops short
    before the first power with an entry above POWER_LIMIT or a non-finite one.
    """
    count = max(1, min(BLOCK_FLOATS // (dim * dim), limit))
    out = np.empty((count, dim, dim))
    for lo in range(0, dim, BASIS_CHUNK):
        hi = min(lo + BASIS_CHUNK, dim)
        out[0, :, lo:hi] = step(np.eye(hi - lo, dim, lo)).T
    j = 1
    while j < count:
        k = min(j, count - j)
        new = np.matmul(out[:k], out[j - 1], out=out[j:j + k])  # F^i F^j = F^(i+j)
        fine = (new.max(axis=(1, 2)) <= POWER_LIMIT) & (new.min(axis=(1, 2)) >= -POWER_LIMIT)
        if not fine.all():
            j += int(fine.argmin())
            break
        j += k
    return out[:j].reshape(-1, dim)


def _check_attacks(attacks, N: int, n: int, m: int, leader) -> None:
    for spec in attacks:
        if spec.agent >= N:
            raise ValueError(f"{spec.channel} attack on agent {spec.agent} is out of "
                             f"range for {N} agents")
        width = n if spec.channel == "sensor" else m
        if spec.signal.dim != width:
            raise ValueError(f"{spec.channel} attack on agent {spec.agent} has dimension "
                             f"{spec.signal.dim}, expected {width}")
        if leader is not None and spec.agent == 0:
            raise ValueError("the leader agent is trusted and cannot be attacked")


def simulate(model: LtiModel, graph: DirectedGraph, spectrum: GraphSpectrum,
             ctrl: ControllerConfig, horizon: int, x0, attacks=(),
             controller: str = "baseline", compensator_start: int = 0,
             leader: LeaderSpec | None = None, predictor_init=None,
             divergence_threshold: float = DIVERGENCE_THRESHOLD,
             store_stride: int = 1, name: str = "", seed: int | None = None,
             ) -> SimulationTrace:
    """Run one scenario and return its trace.

    The run truncates early (with the divergence flag) if the state goes
    non-finite or crosses the magnitude threshold; the growth detector is
    applied to the inf-norm series afterwards either way. A non-finite ``x0``
    or ``predictor_init``, or an attack on an agent the graph does not have,
    raises ValueError.
    """
    if controller not in ("baseline", "resilient"):
        raise ValueError(f"unknown controller {controller!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if store_stride < 1:
        raise ValueError("store_stride must be at least 1")
    attacks = list(attacks)
    N = graph.n_agents
    n, m = model.state_dim, model.input_dim
    Nn, Nm = N * n, N * m
    norm_lap = spectrum.normalized_laplacian
    # d stays zero unless the compensator starts inside the horizon
    compensating = controller == "resilient" and compensator_start < horizon
    Nd = Nm if compensating else 0
    _check_attacks(attacks, N, n, m, leader)

    x = np.asarray(x0, dtype=float).reshape(N, n)
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if predictor_init is None:
        x_hat = x
    else:
        x_hat = np.asarray(predictor_init, dtype=float).reshape(N, n)
        if not np.isfinite(x_hat).all():
            raise ValueError("predictor_init must be finite")

    law = _Law(graph, norm_lap, ctrl, leader)
    A_T, B_T = model.A.T, model.B.T
    rotation_T = None
    if leader is not None:
        w = leader.omega
        rotation_T = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])

    def predictor_step(p):
        """p = [x_hat; phase] -> its value one step later."""
        x_h, phase = p[:, :Nn].reshape(-1, N, n), p[:, Nn:]
        out = np.empty_like(p)
        out[:, :Nn] = (x_h @ A_T + law(x_h, 0.0, 0.0, phase) @ B_T).reshape(-1, Nn)
        if rotation_T is not None:
            out[:, Nn:] = phase @ rotation_T
        return out

    # error system q = [e; d; g], one generator slice of g per attack
    gen, dq = [], Nn + Nd
    for spec in attacks:
        gen.append(slice(dq, dq + spec.signal.f0.size))
        dq += spec.signal.f0.size

    def signals(Q, ks, channel, width):
        """Summed attack signals of ``channel``, (len(Q), N, width), read from
        the generator states Q of the ascending steps ks; None when no attack
        uses it."""
        out = None
        for spec, sl in zip(attacks, gen):
            if spec.channel == channel:
                if out is None:
                    out = np.zeros((len(Q), N, width))
                live = np.searchsorted(ks, spec.start_step)  # the rows from the start on
                g = Q[live:, sl]
                if spec.signal.output is not None:
                    g = g @ spec.signal.output.T
                out[live:, spec.agent] += g
        return out

    def error_step(q, t):
        """q -> its value one step later, in the regime of step t: an attack
        injects from its start_step on, and before that its generator is held;
        the compensator updates d from compensator_start on."""
        e = q[:, :Nn].reshape(-1, N, n)
        d = q[:, Nn:Nn + Nd].reshape(-1, N, m) if compensating else 0.0
        ks = np.full(len(q), t)
        s = signals(q, ks, "sensor", n)
        a = signals(q, ks, "actuator", m)
        s = 0.0 if s is None else s
        U = law(e, s, d, np.zeros((len(q), 2)))  # U - U_hat: the reference cancels
        out = np.empty_like(q)
        out[:, :Nn] = (e @ A_T + (U if a is None else U + a) @ B_T).reshape(-1, Nn)
        if compensating:
            if compensator_start <= t:
                d = law.compensate(d, e + s)
            out[:, Nn:Nn + Nd] = d.reshape(-1, Nd)
        for spec, sl in zip(attacks, gen):
            out[:, sl] = q[:, sl] @ spec.signal.W.T if spec.start_step <= t else q[:, sl]
        return out

    p = np.concatenate([x_hat.ravel(), [0.0, 1.0] if leader is not None else []])
    dp = len(p)
    Pp = _stacked_powers(predictor_step, dp, horizon)
    Bp = len(Pp) // dp
    q = np.zeros(dq)
    q[:Nn] = (x - x_hat).ravel()
    for spec, sl in zip(attacks, gen):
        q[sl] = spec.signal.f0
    switches = {0, horizon}
    switches.update(s.start_step for s in attacks if s.start_step < horizon)
    if compensating:
        switches.add(compensator_start)
    switches = sorted(switches)
    # each regime: (its end step, its stacked powers, its block length)
    regimes = []
    for start, end in zip(switches, switches[1:]):
        powers = _stacked_powers(lambda z, t=start: error_step(z, t), dq, Bp)
        regimes.append((end, powers, len(powers) // dq))
    # a window is whole predictor blocks whose states fill about WINDOW_FLOATS
    window = Bp * max(1, WINDOW_FLOATS // (Bp * (dp + dq)))

    stored_ks = np.arange(0, horizon, store_stride)
    S = len(stored_ks)
    store_x = np.empty((S, N, n))
    store_xhat = np.empty((S, N, n))
    store_u = np.empty((S, N, m))
    store_d = np.empty((S, N, m))
    store_f = np.zeros((S, N, m))
    store_cerr = np.empty((S, N))
    inf_norms = np.empty(horizon + 1)
    inf_norms[0] = np.abs(x).max()
    per_agent_peak = np.zeros(N)
    attack_bound = 0.0

    first_crossing = None
    k0 = 0
    si = 0
    r = 0
    while k0 < horizon:
        w = min(window, horizon - k0)
        P = np.empty((w + 1, dp))
        P[0] = p
        for a in range(0, w, Bp):
            b = min(a + Bp, w)
            np.matmul(Pp[:(b - a) * dp], P[a], out=P[a + 1:b + 1].reshape(-1))
        Q = np.empty((w + 1, dq))
        Q[0] = q
        a = 0
        while a < w:
            while regimes[r][0] <= k0 + a:
                r += 1
            end, powers, block = regimes[r]
            b = min(a + block, w, end - k0)
            np.matmul(powers[:(b - a) * dq], Q[a], out=Q[a + 1:b + 1].reshape(-1))
            a = b

        # x = x_hat + e, laid out one row per state entry and one column per
        # step, since numpy reduces along short rows slowly
        Xt = np.empty((Nn, w + 1))
        np.add(P[:, :Nn].T, Q[:, :Nn].T, out=Xt)
        norms = np.abs(Xt[:, 1:]).max(axis=0)
        inf_norms[k0 + 1:k0 + w + 1] = norms
        within = np.isfinite(norms) & (norms <= divergence_threshold)
        if not within.all():
            w = int(within.argmin()) + 1
            first_crossing = k0 + w

        ks = np.arange(k0, k0 + w)
        sens = signals(Q[:w], ks, "sensor", n)
        f = effective_injection(sens, signals(Q[:w], ks, "actuator", m), norm_lap,
                                ctrl.c, ctrl.K)
        if f is not None:
            ft = f.reshape(w, Nm).T.copy()
            np.abs(ft, out=ft)
            per_agent_peak = np.maximum(per_agent_peak, ft.reshape(N, m * w).max(axis=1))
            np.square(ft, out=ft)
            attack_bound = max(attack_bound, float(np.sqrt(ft.sum(axis=0).max())))

        rows = stored_ks[si:np.searchsorted(stored_ks, k0 + w)] - k0
        if len(rows):
            sl = slice(si, si + len(rows))
            x_rows = Xt[:, rows].T.reshape(-1, N, n)
            d_rows = Q[rows, Nn:Nn + Nd].reshape(-1, N, m) if compensating else 0.0
            store_x[sl] = x_rows
            store_xhat[sl] = P[rows, :Nn].reshape(-1, N, n)
            store_u[sl] = law(x_rows, 0.0 if sens is None else sens[rows], d_rows,
                              P[rows, Nn:])
            store_d[sl] = d_rows
            store_cerr[sl] = np.abs(Q[rows, :Nn].reshape(-1, N, n)).max(axis=2)
            if f is not None:
                store_f[sl] = f[rows]
            si += len(rows)

        p, q, x = P[w], Q[w], Xt[:, w]
        k0 += w
        if first_crossing is not None:
            break

    steps_run = k0
    stored_ks = stored_ks[:si]
    inf_norms = inf_norms[:steps_run + 1]
    growth = analyze_growth(inf_norms, magnitude_threshold=divergence_threshold)
    crossing = first_crossing if first_crossing is not None else growth.first_crossing
    prediction = destabilization_verdict(attacks, model, spectrum)
    store_x = store_x[:si]
    intact = tuple(int(i) for i in range(N) if per_agent_peak[i] <= 1e-12)

    return SimulationTrace(
        name=name,
        controller=controller,
        horizon=horizon,
        steps_run=steps_run,
        n_agents=N,
        state_dim=n,
        input_dim=m,
        stride=store_stride,
        ks=stored_ks,
        x=store_x,
        x_hat=store_xhat[:si],
        u=store_u[:si],
        d=store_d[:si],
        f=store_f[:si],
        eps=-norm_lap @ store_x,
        gamma=global_performance(store_x, graph),
        consensus_err=store_cerr[:si],
        inf_norms=inf_norms,
        final_x=x.copy(),
        final_x_hat=p[:Nn].copy(),
        diverged=bool(crossing is not None or growth.growth_detected),
        first_crossing=crossing,
        growth_detected=growth.growth_detected,
        tail_slope=growth.tail_slope,
        prediction=prediction.value,
        intact_agents=intact,
        gains={"c": float(ctrl.c), "theta": float(ctrl.theta), "notes": list(ctrl.notes)},
        seed=seed,
        attack_bound=attack_bound,
    )
