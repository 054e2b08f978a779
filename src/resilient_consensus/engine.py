"""One run simulated as two autonomous linear systems, propagated in blocks.

Every input of a run comes from a linear generator f(j+1) = W f(j): each
attack signal, and the leader reference r(k) = amplitude sin(omega k) on
every input channel. So a run is an autonomous LTI system, and it splits
into two systems that do not feed each other:

- the predictor p = [x_hat; sin(omega k); cos(omega k)] (the phase rows
  only with a leader). No attack, compensator or controller choice touches
  it, so x_hat is the same with and without attacks;
- the error system q = [e; d; g]: the plant's deviation e = x - x_hat from
  the predictor, the compensator state d and the state g of the run's one
  ``attacks.AttackGenerator``, whose read-outs are the attack signals. The
  reference cancels in e, so q stays zero in an attack-free run whose
  predictor starts at x0. A run whose compensator never starts inside the
  horizon (every baseline run) has d = 0 throughout, and q leaves it out.

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
attack's ``start_step`` (before it, the attack's block of g holds at f0 and
reads out nothing) and, for the resilient controller, at ``compensator_start``
(before it, d is held at zero): each stretch between switch times is a
regime with its own operator.

A system with operator F and block length B advances in two levels. B is
the number of dim x dim powers that fit in BLOCK_FLOATS floats, cut before
the first power with an entry above POWER_LIMIT, so that no power overflows.
First the block starts follow one another by F^B, the last row block of the
stacked powers [F; F^2; ...; F^B]. Then one GEMM of those starts with the
stacked powers gives every state of the whole blocks, and the block ends are
set back to the chain's values, so that each block starts exactly where the
last one ended. A partial last block takes one product of the powers it
needs with its start; with B = 1 the chain alone holds every state.

The run is processed in windows of whole predictor blocks, no more of them
than the horizon needs. Each run allocates one workspace, and every window
writes into it in place: the states of both systems and their block starts,
|x| laid out one column per step, and the live generator rows with their
injections f = M' g, where M is the read-out of every live generator state
(so f's sensor product is still written once, in
``attacks.effective_injection``). WINDOW_FLOATS is the budget of that whole
workspace, which is released before the post-processing. The predictor's
blocks start at multiples of its B whatever the attacks are, so x_hat comes
out the same with and without them; the error system's blocks restart at
each window and at each switch time. A window's states give
||x||_inf = ||x_hat + e||_inf after every step, and the run stops at the
first step inside the window where it is non-finite or above the divergence
threshold. A diverging run may overflow in the propagation past that step,
so the propagation runs with NumPy's overflow warnings off.

Time grows linearly with the horizon. Memory grows with it only by the
per-step inf-norm series (8 bytes a step) and the stored rows; each system's
powers are bounded by BLOCK_FLOATS (or by its one operator, when that alone
is larger) and the workspace by WINDOW_FLOATS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``signal_series`` is not called here any more; the benchmark's tracer patches
# ``engine.signal_series`` by name, so the name stays importable from this module.
from .attacks import (AttackGenerator, effective_injection, signal_series,  # noqa: F401
                      sinusoid_signal)
from .design import ControllerConfig
from .dynamics import LtiModel
from .graph import DirectedGraph, GraphSpectrum
from .metrics import analyze_growth, destabilization_verdict, global_performance
from .trace import SimulationTrace

DIVERGENCE_THRESHOLD = 1e9
# floats of one system's stacked powers [F; ...; F^B]
BLOCK_FLOATS = 1 << 16
# floats of a run's window workspace: both systems' states and block starts,
# |x| and the injection rows
WINDOW_FLOATS = 1 << 18
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


def _propagate(states: np.ndarray, count: int, powers: np.ndarray, block: int,
               starts: np.ndarray) -> None:
    """Write the ``count`` states that follow ``states[0]`` into states[1:count+1].

    ``powers`` is [F; ...; F^B] with B = ``block``. The block starts follow one
    another by F^B into ``starts`` (or straight into ``states`` when B is 1),
    one GEMM of them with the powers gives every state of the whole blocks,
    and the block ends are set back to the chain's values, so that each block
    starts exactly where the last one ended. A partial last block takes one
    product of the powers it needs with its start.
    """
    dim = states.shape[1]
    whole = count // block
    chain = states if block == 1 else starts
    chain[0] = states[0]
    F_B = powers[-dim:]
    for j in range(whole):
        np.matmul(F_B, chain[j], out=chain[j + 1])
    end = whole * block
    if whole and block > 1:
        np.matmul(chain[:whole], powers.T, out=states[1:end + 1].reshape(whole, -1))
        states[block:end + 1:block] = chain[1:whole + 1]
    if end < count:
        np.matmul(powers[:(count - end) * dim], states[end],
                  out=states[end + 1:count + 1].reshape(-1))


def _injection_peaks(M: np.ndarray, live: np.ndarray, buf: np.ndarray, n_agents: int):
    """The per-agent peak |f_i(k)| and the largest ||f(k)||_2 over the injections
    f(k) = M' live(k) of the rows of ``live``, evaluated in ``buf``."""
    f = np.matmul(M.T, live.T, out=buf[:M.shape[1] * len(live)].reshape(M.shape[1], -1))
    np.abs(f, out=f)
    peak = f.max(axis=1).reshape(n_agents, -1).max(axis=1)
    np.square(f, out=f)
    return peak, float(np.sqrt(f.sum(axis=0).max()))


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
    gen = AttackGenerator(attacks, N, n, m)
    if leader is not None and any(spec.agent == 0 for spec in attacks):
        raise ValueError("the leader agent is trusted and cannot be attacked")

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
    # the phase rows (sin omega k, cos omega k) follow a unit sinusoid's generator
    phase_W = None if leader is None else sinusoid_signal(1.0, leader.omega).W

    def predictor_step(p):
        """p = [x_hat; phase] -> its value one step later."""
        x_h, phase = p[:, :Nn].reshape(-1, N, n), p[:, Nn:]
        out = np.empty_like(p)
        out[:, :Nn] = (x_h @ A_T + law(x_h, 0.0, 0.0, phase) @ B_T).reshape(-1, Nn)
        if phase_W is not None:
            out[:, Nn:] = phase @ phase_W.T
        return out

    def error_step(q, t):
        """q -> its value one step later, in the regime of step t: g advances by
        ``gen.held(t)``, and d updates from compensator_start on."""
        e = q[:, :Nn].reshape(-1, N, n)
        d = q[:, Nn:Nn + Nd].reshape(-1, N, m) if compensating else 0.0
        g = q[:, Nn + Nd:]
        s, a = gen.read(g, t)
        s = 0.0 if s is None else s
        U = law(e, s, d, np.zeros((len(q), 2)))  # U - U_hat: the reference cancels
        out = np.empty_like(q)
        out[:, :Nn] = (e @ A_T + (U if a is None else U + a) @ B_T).reshape(-1, Nn)
        if compensating:
            if compensator_start <= t:
                d = law.compensate(d, e + s)
            out[:, Nn:Nn + Nd] = d.reshape(-1, Nd)
        out[:, Nn + Nd:] = g @ gen.held(t).T
        return out

    p = np.concatenate([x_hat.ravel(), [0.0, 1.0] if leader is not None else []])
    dp = len(p)
    Pp = _stacked_powers(predictor_step, dp, horizon)
    Bp = len(Pp) // dp
    q = np.concatenate([(x - x_hat).ravel(), np.zeros(Nd), gen.g0])
    dq = len(q)
    switches = {0, horizon, *gen.starts[gen.starts < horizon].tolist()}
    if compensating:
        switches.add(compensator_start)
    switches = sorted(switches)
    # each regime: (its end step, its stacked powers, its block length)
    regimes = []
    for start, end in zip(switches, switches[1:]):
        powers = _stacked_powers(lambda z, t=start: error_step(z, t), dq, Bp)
        regimes.append((end, powers, len(powers) // dq))

    # the attack injection is f(k) = M' g(k) for the live generator state g(k)
    size = len(gen.g0)
    if size:
        M = effective_injection(*gen.read(np.eye(size), int(gen.starts.max())),
                                norm_lap, ctrl.c, ctrl.K).reshape(size, Nm)
    # floats a step of the live generator rows and the injection rows
    Nf = size + Nm if size else 0
    # the shortest error-system block above 1 sizes its chain of block starts;
    # with B = 1 the chain is the states themselves
    Bq = min((block for _, _, block in regimes if block > 1), default=None)
    # a window is whole predictor blocks whose workspace fills about
    # WINDOW_FLOATS floats, and no more blocks than the horizon needs
    per_step = (dp + dq + Nn + Nf + (dp / Bp if Bp > 1 else 0)
                + (dq / Bq if Bq else 0))
    window = Bp * max(1, min(int(WINDOW_FLOATS // (Bp * per_step)), -(-horizon // Bp)))
    P = np.empty((window + 1, dp))
    Q = np.empty((window + 1, dq))
    Xt = np.empty(Nn * window)
    P_starts = np.empty((window // Bp + 1 if Bp > 1 else 0, dp))
    Q_starts = np.empty((window // Bq + 1 if Bq else 0, dq))
    live = np.empty((window, size))
    ft = np.empty(Nm * window if size else 0)

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
    P[0], Q[0] = p, q
    k0 = 0
    si = 0
    r = 0
    while k0 < horizon:
        w = min(window, horizon - k0)
        # a diverging run overflows here; the crossing check below stops it
        with np.errstate(over="ignore", invalid="ignore"):
            _propagate(P, w, Pp, Bp, P_starts)
            a = 0
            while a < w:
                while regimes[r][0] <= k0 + a:
                    r += 1
                end, powers, block = regimes[r]
                b = min(w, end - k0)
                _propagate(Q[a:], b - a, powers, block, Q_starts)
                a = b
            # |x| = |x_hat + e|, laid out one row per state entry and one column
            # per step, since numpy reduces along short rows slowly
            X = Xt[:Nn * w].reshape(Nn, w)
            np.add(P[1:w + 1, :Nn].T, Q[1:w + 1, :Nn].T, out=X)
            np.abs(X, out=X)
            norms = X.max(axis=0, out=inf_norms[k0 + 1:k0 + w + 1])
            within = np.isfinite(norms) & (norms <= divergence_threshold)
            if not within.all():
                w = int(within.argmin()) + 1
                first_crossing = k0 + w
            x = P[w, :Nn] + Q[w, :Nn]  # the state after the window

        if size:
            np.copyto(live[:w], Q[:w, Nn + Nd:])
            for i in np.flatnonzero(gen.starts > k0):
                live[:gen.starts[i] - k0, i] = 0.0
            peak, bound = _injection_peaks(M, live[:w], ft, N)
            np.maximum(per_agent_peak, peak, out=per_agent_peak)
            attack_bound = max(attack_bound, bound)

        first = -k0 % store_stride
        rows = slice(first, w, store_stride)
        ks = np.arange(k0 + first, k0 + w, store_stride)
        if len(ks):
            sl = slice(si, si + len(ks))
            x_rows = store_x[sl]
            np.add(P[rows, :Nn], Q[rows, :Nn], out=x_rows.reshape(-1, Nn))
            d_rows = Q[rows, Nn:Nn + Nd].reshape(-1, N, m) if compensating else 0.0
            sens, act = gen.read(Q[rows, Nn + Nd:], ks)
            store_xhat[sl] = P[rows, :Nn].reshape(-1, N, n)
            store_u[sl] = law(x_rows, 0.0 if sens is None else sens, d_rows, P[rows, Nn:])
            store_d[sl] = d_rows
            store_cerr[sl] = np.abs(Q[rows, :Nn].reshape(-1, N, n)).max(axis=2)
            f = effective_injection(sens, act, norm_lap, ctrl.c, ctrl.K)
            if f is not None:
                store_f[sl] = f
            si += len(ks)

        k0 += w
        P[0], Q[0] = P[w], Q[w]
        if first_crossing is not None:
            break

    final_x_hat = P[0, :Nn].copy()
    del P, Q, Xt, X, P_starts, Q_starts, live, ft  # the workspace ends with the loop
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
        final_x=x,
        final_x_hat=final_x_hat,
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
