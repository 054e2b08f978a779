"""One run simulated as two autonomous linear systems, read out in blocks.

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
regime with its own operator F_Q. The injection is f(k) = M' g(k) of the
rows of g whose attacks have started (``AttackGenerator.live``); M, read
through ``attacks.effective_injection`` (so f's sensor product is still
written once) in the last regime, where every attack has started, is cut to
its columns that are not all zero.

The loop does not form the states of most steps, only what is read from
them: x = x_hat + e, which gives ||x||_inf and the crossing, and the live
columns of f, which give the injection peaks. Each regime is processed in
segments of at most a window of steps, on a grid of blocks of B steps that
both systems share. ``_grid`` gives each system's powers [F; ...; F^B] and
[F^B; ...; F^CB] for the regime's length up to a window, B about its square
root and C about that of its blocks, as BLOCK_FLOATS floats allow; every
stack is doubled by ``_powers`` and cut before the first power with an
entry above POWER_LIMIT, so that none overflows, and B is the shorter
system's after the cut. A segment starting at step k goes in three levels:

- the group starts, C blocks apart, follow one another by F^CB in a Python
  loop of about sqrt(J) turns for the segment's J blocks;
- one product of the group starts with [F^B; ...; F^CB] gives every block
  start, of each system;
- each block start [p; q] gives x = x_hat + e and f = M' g at its own step,
  and one GEMM of the stacked block starts with the projected powers
  [C_x F_P^t | C_x F_Q^t] and [0 | M' F_Q^t], t = 1..B-1 (C_x takes the
  first N n rows), gives both at step k + jB + t for every block j. The
  read-outs are laid out one row per read-out and one column per block,
  so that ||x||_inf and the peaks are reductions over contiguous rows.

A segment of s steps has s // B + 1 block starts, so its read-outs reach
the state that ends it, at step k + s. Full states are formed only at block
starts, at stored steps (the powers of their offsets gathered and
multiplied with their block starts; at stride 1, one GEMM of the block
starts with all the powers), at the end of each segment, and at the
crossing. The run stops at the first step where ||x||_inf is non-finite or
above the divergence threshold; each segment tests its steps k..k + s by
this one rule, so step 0 and the horizon are tested like any other. The
injection peaks count only the steps before the crossing. x = x_hat + e, d,
the consensus error and u of the stored steps follow from their rows of both
systems in one evaluation after the loop, when the workspace has been
released, and f as M' g of their live generator rows. A diverging run may
overflow past its crossing, and in that evaluation below a threshold near
the largest float, so both run with NumPy's overflow warnings off.

A window is sized so that its workspace, the read-outs of its steps (R, about
N n + live columns, floats a step), two copies of its block starts and one
regime's projected powers ((B - 1) R D floats for the D states of both
systems), fills about WINDOW_FLOATS floats; where that budget would hold less
than one block of the longest B, B is capped at the length that gives the
longest window. One-step blocks have no projected powers, so even runs of
several hundred states keep windows of many steps. Time grows linearly with the
horizon. Memory grows with it only by the per-step inf-norm series
(8 bytes a step) and the stored rows; the window, and so the workspace and
each system's powers, are sized by WINDOW_FLOATS and BLOCK_FLOATS, not by
the horizon.
"""

from __future__ import annotations

import math
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
# floats of each level of one system's stacked powers, [F; ...; F^B] and
# [F^B; ...; F^CB]
BLOCK_FLOATS = 1 << 16
# floats of a run's window workspace: the read-outs of its steps, its block
# starts and one regime's projected powers
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
    do not enter it, and each follower adds (1+h_i)^-1 a_i0 u_0. Only these
    feed-forward weights read ``graph``, so it may be None without a leader.
    """

    def __init__(self, graph: DirectedGraph | None, norm_lap: np.ndarray,
                 ctrl: ControllerConfig, leader: LeaderSpec | None):
        self.lap = norm_lap
        self.ctrl = ctrl
        self.leader = leader
        if leader is not None:
            self.ff = (graph.adjacency[1:, 0] / (1.0 + graph.in_degrees[1:]))[:, None]

    def gain(self, x):
        """c K eps = c K (-Lhat x) for measured states x, as for a sensor attack."""
        return effective_injection(x, 0.0, self.lap, self.ctrl.c, self.ctrl.K)

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


def _block_length(dim: int, window: int) -> int:
    """B for a window of ``window`` steps: about sqrt(window), no more dim x dim
    powers than BLOCK_FLOATS holds, and at least 1."""
    return max(1, min(math.isqrt(window - 1) + 1, BLOCK_FLOATS // (dim * dim)))


def _matrix(step, dim: int) -> np.ndarray:
    """The matrix of the linear one-step map ``step``, BASIS_CHUNK unit vectors at a time."""
    F = np.empty((dim, dim))
    for lo in range(0, dim, BASIS_CHUNK):
        F[:, lo:lo + BASIS_CHUNK] = step(np.eye(min(BASIS_CHUNK, dim - lo), dim, lo)).T
    return F


def _powers(F: np.ndarray, count: int) -> np.ndarray:
    """[F; F^2; ...; F^count] by doubling, cut before the first power with an entry
    above POWER_LIMIT or a non-finite one; a stack of one power is F itself, and
    asking for one allocates nothing."""
    if count == 1:
        return F
    out = np.empty((count, *F.shape))
    out[0] = F
    j = 1
    while j < count:  # F^i F^j = F^(i+j) for i = 1..j, up to count
        new = np.matmul(out[:min(j, count - j)], out[j - 1], out=out[j:2 * j])
        fine = (new.max(axis=(1, 2)) <= POWER_LIMIT) & (new.min(axis=(1, 2)) >= -POWER_LIMIT)
        if not fine.all():
            count = j + int(fine.argmin())
            break
        j *= 2
    return F if count == 1 else out[:count].reshape(-1, len(F))


def _grid(span: int, longest: int, *systems: np.ndarray) -> list:
    """[F; ...; F^B] and [F^B; ...; F^CB] of each system's matrix F for segments of ``span``
    steps: B the largest system's ``_block_length``, at most ``longest``, cut to the powers
    all keep, and C each system's for ceil(span / B) blocks."""
    firsts = [_powers(F, min(_block_length(max(map(len, systems)), span), longest))
              for F in systems]
    B = min(len(first) // len(F) for first, F in zip(firsts, systems))
    return [(first[:B * len(F)], _powers(first[(B - 1) * len(F):B * len(F)],
                                         _block_length(len(F), -(-span // B))))
            for first, F in zip(firsts, systems)]


def _fill(states: np.ndarray, count: int, powers: np.ndarray, chain: np.ndarray) -> None:
    """Write the ``count`` states that follow ``states[0]`` into
    states[1:count+1], given the block starts chain[j] = states[jB] and the
    powers [F; ...; F^B]: one GEMM of the block starts with the powers gives
    every state of the whole blocks, and the block ends are set back to the
    starts, so that each block starts exactly where the last one ended. A
    partial last block takes one product of the powers it needs with its
    start."""
    dim = states.shape[1]
    block = len(powers) // dim
    whole = count // block
    end = whole * block
    if whole:
        if block > 1:
            np.matmul(chain[:whole], powers.T, out=states[1:end + 1].reshape(whole, -1))
        states[block:end + 1:block] = chain[1:whole + 1]
    if end < count:
        np.matmul(powers[:(count - end) * dim], states[end],
                  out=states[end + 1:count + 1].reshape(-1))


def _propagate(states: np.ndarray, count: int, powers: np.ndarray) -> None:
    """Write the ``count`` states that follow ``states[0]`` into states[1:count+1]
    for the stacked powers [F; ...; F^B]: the block starts, B steps apart,
    follow one another by F^B (straight in ``states`` when B is 1), and
    ``_fill`` gives the rest."""
    dim = states.shape[1]
    block = len(powers) // dim
    chain = states if block == 1 else np.empty((count // block + 1, dim))
    chain[0] = states[0]
    F_B = powers[-dim:]
    for j in range(count // block):
        np.matmul(F_B, chain[j], out=chain[j + 1])
    _fill(states, count, powers, chain)


def _at(starts: np.ndarray, powers: np.ndarray, first: int, step: int, out: np.ndarray) -> None:
    """out[i] = the state first + i step steps after starts[0], from the block
    starts ``starts`` and the powers [F; ...; F^B]: F^t starts[j] for
    first + i step = jB + t with 0 <= t < B. The rows of every step from
    starts[0] on (first 0, step 1) take one GEMM (``_fill``); other rows'
    powers are gathered at most BLOCK_FLOATS floats at a time, and each
    gather takes one product."""
    if first == 0 and step == 1:
        out[0] = starts[0]
        _fill(out, len(out) - 1, powers, starts)
        return
    dim = starts.shape[1]
    cube = powers.reshape(-1, dim, dim)
    chunk = max(1, BLOCK_FLOATS // (dim * dim))
    j, t = np.divmod(np.arange(first, first + len(out) * step, step), len(cube))
    out[:] = starts[j]
    rows = np.flatnonzero(t)
    for lo in range(0, len(rows), chunk):
        i = rows[lo:lo + chunk]
        out[i] = np.matmul(cube[t[i] - 1], starts[j[i], :, None])[:, :, 0]


def _state(starts: np.ndarray, powers: np.ndarray, offset: int) -> np.ndarray:
    """The state ``offset`` steps after starts[0]: F^t starts[j] for
    offset = jB + t with 0 <= t < B, as ``_at`` gives it for one row, without
    its gathering, which takes several times as long for a single row."""
    dim = starts.shape[1]
    j, t = divmod(offset, len(powers) // dim)
    return starts[j].copy() if t == 0 else powers[(t - 1) * dim:t * dim] @ starts[j]


def _peaks(f: np.ndarray, count: int, peak: np.ndarray, agents: np.ndarray) -> float:
    """Raise the per-agent ``peak`` to the largest |f| of the segment's first
    ``count`` steps, from the read-outs f[i, :, j] = |f| at step jB + i of the
    live injection columns of ``agents``; return the largest ||f(k)||_2 among
    those steps. The other columns add exactly 0 to every peak and ||f||^2."""
    block = len(f)
    f[count % block:, :, count // block] = 0.0
    f[:, :, count // block + 1:] = 0.0
    np.maximum.at(peak, agents, f.max(axis=(0, 2)))
    return float(np.sqrt(np.einsum("icj,icj->ij", f, f).max()))


def _projection(predictor: np.ndarray, error: np.ndarray, Nn: int, M: np.ndarray) -> np.ndarray:
    """The read-out powers of a regime with block length B, from both systems'
    powers [F; ...; F^B]: row block t = 1..B-1 holds [C_x F_P^t | C_x F_Q^t],
    which gives x t steps after a block start [p; q], and [0 | M' F_Q^t], which
    gives f at the same step; one-step blocks have none. ``M`` maps the
    generator state, the last rows of q, to the live injection columns."""
    dp, dq = predictor.shape[1], error.shape[1]
    FP, FQ = predictor.reshape(-1, dp, dp)[:-1], error.reshape(-1, dq, dq)[:-1]
    out = np.zeros((len(FP), Nn + M.shape[1], dp + dq))
    out[:, :Nn, :dp] = FP[:, :Nn]
    out[:, :Nn, dp:] = FQ[:, :Nn]
    np.matmul(M.T, FQ[:, dq - M.shape[0]:], out=out[:, Nn:, dp:])
    return out.reshape(-1, dp + dq)


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
        U = law(e, s, d, np.zeros((len(q), 2)))  # U - U_hat: the reference cancels
        out = np.empty_like(q)
        out[:, :Nn] = (e @ A_T + (U + a) @ B_T).reshape(-1, Nn)
        if compensating:
            if compensator_start <= t:
                d = law.compensate(d, e + s)
            out[:, Nn:Nn + Nd] = d.reshape(-1, Nd)
        out[:, Nn + Nd:] = g @ gen.held(t).T
        return out

    p = np.concatenate([x_hat.ravel(), [0.0, 1.0] if leader is not None else []])
    dp = len(p)
    q = np.concatenate([(x - x_hat).ravel(), np.zeros(Nd), gen.g0])
    dq = len(q)

    switches = {0, horizon, *gen.starts[gen.starts < horizon].tolist()}
    if compensating:
        switches.add(compensator_start)
    switches = sorted(switches)
    # f(k) = M' g(k) of the live generator rows, with M read in the last regime,
    # where every attack of the run has started; only the columns of M that are
    # not all zero can move a peak
    M = effective_injection(*gen.read(np.eye(len(gen.g0)), switches[-2]), norm_lap, ctrl.c,
                            ctrl.K).reshape(-1, Nm)
    cols = np.flatnonzero(M.any(axis=0))
    agents = cols // m

    R = Nn + len(cols)  # read-out rows a step: x and the live injection columns

    def window_for(B):
        """The steps of a window whose workspace, for blocks of at most B steps,
        fills about WINDOW_FLOATS floats (module docstring)."""
        return (WINDOW_FLOATS - (B - 1) * R * (dp + dq)) // (R + 2 * -(-(dp + dq) // B))

    # B0 is the longest block of any regime. Where the window would be shorter
    # than one such block, B0 becomes the block that gives the longest window;
    # no window is longer than the horizon
    B0 = _block_length(max(dp, dq), max(1, WINDOW_FLOATS // R))
    if window_for(B0) < B0:
        B0 = max(range(1, B0 + 1), key=window_for)
    window = max(1, min(horizon, window_for(B0)))
    F_P = _matrix(predictor_step, dp)  # the predictor never changes
    readout = np.empty(R * (window + B0))

    # the stored steps keep their rows of both systems; every stored quantity
    # follows from those after the loop
    stored_ks = np.arange(0, horizon, store_stride)
    store_P = np.empty((len(stored_ks), dp))
    store_Q = np.empty((len(stored_ks), dq))
    inf_norms = np.empty(horizon + B0)  # the last block may reach B0 - 1 past the end
    per_agent_peak = np.zeros(N)
    attack_bound = 0.0

    first_crossing = None
    k = si = 0
    # a diverging run overflows in the propagation; the crossing check stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for start, end in zip(switches, switches[1:]):
            if first_crossing is not None:
                break
            span = min(window, end - start)  # the regime's length, up to a window
            (P_pow, P_up), (Q_pow, Q_up) = _grid(
                span, B0, F_P, _matrix(lambda z: error_step(z, start), dq))
            B = len(P_pow) // dp
            rows = span // B + 1
            Zp, Zq = np.empty((rows, dp)), np.empty((rows, dq))
            M_live = gen.live(M[:, cols].T, start).T
            proj = _projection(P_pow, Q_pow, Nn, M_live)
            Z = np.empty((rows, dp + dq))
            while k < end and first_crossing is None:
                # a segment of ``steps`` steps from step k: its J block starts reach
                # step k + steps, the state that ends it
                steps = min(span, end - k)
                J = steps // B + 1
                Zp[0], Zq[0] = p, q
                _propagate(Zp, steps // B, P_up)
                _propagate(Zq, steps // B, Q_up)
                Y = readout[:B * R * J].reshape(B * R, J)
                Z[:J, :dp], Z[:J, dp:] = Zp[:J], Zq[:J]
                # t = 0 reads the block starts themselves, t = 1..B-1 their projection
                np.add(Zp[:J, :Nn], Zq[:J, :Nn], out=Y[:Nn].T)
                if len(cols):  # with no live injection column f is zero and read nowhere
                    np.matmul(M_live.T, Zq[:J, dq - len(M_live):].T, out=Y[Nn:R])
                np.matmul(proj, Z[:J].T, out=Y[R:])
                np.abs(Y, out=Y)
                # Y[t, :, j]: |x| and |f| at step k + jB + t
                Y = Y.reshape(B, R, J)
                # the last block reaches past the segment, where the next segment
                # overwrites it or the end of the run cuts it off
                inf_norms[k:k + B * J].reshape(J, B)[...] = Y[:, :Nn].max(axis=1).T
                norms = inf_norms[k:k + steps + 1]
                lim = steps  # the steps this segment runs: up to its end or the crossing
                if not norms.max() <= divergence_threshold:  # also when one is NaN
                    within = np.isfinite(norms) & (norms <= divergence_threshold)
                    lim = int(within.argmin())
                    first_crossing = k + lim

                # only the steps before the crossing count
                if len(cols):
                    peak = _peaks(Y[:, Nn:], lim, per_agent_peak, agents)
                    attack_bound = max(attack_bound, peak)
                first = -k % store_stride  # the first stored step, after step k
                count = len(range(first, lim, store_stride))
                if count:
                    _at(Zp, P_pow, first, store_stride, store_P[si:si + count])
                    _at(Zq, Q_pow, first, store_stride, store_Q[si:si + count])
                    si += count
                # the state at step k + lim starts the next segment, or is the final one
                p, q = _state(Zp, P_pow, lim), _state(Zq, Q_pow, lim)
                k += lim
            del P_pow, Q_pow, P_up, Q_up, Zp, Zq, Y, proj, Z

    del F_P, readout  # the workspace ends with the loop
    final_x_hat = p[:Nn].copy()
    final_x = final_x_hat + q[:Nn]
    steps_run = k
    stored_ks = stored_ks[:si]
    store_xhat = store_P[:si, :Nn].reshape(-1, N, n)
    e = store_Q[:si, :Nn].reshape(-1, N, n)
    store_x = store_xhat + e
    # |e| laid out one slice per state entry, since numpy reduces along short rows slowly
    store_cerr = np.abs(e.transpose(2, 0, 1), order="C").max(axis=0)
    store_d = (store_Q[:si, Nn:Nn + Nd].reshape(-1, N, m).copy() if compensating
               else np.zeros((si, N, m)))
    g = gen.live(store_Q[:si, Nn + Nd:], stored_ks)
    sens = gen.read(g, stored_ks)[0]
    del store_Q, e  # nothing derived keeps the error system's rows, so d is a copy
    inf_norms = inf_norms[:steps_run + 1]
    # as the propagation, u, f, eps, Gamma and the tail slope may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        store_u = law(store_x, sens, store_d, store_P[:si, Nn:])
        store_f = (g @ M).reshape(-1, N, m)
        store_eps = -norm_lap @ store_x
        gamma = global_performance(store_x, graph)
        growth = analyze_growth(inf_norms)
    # the verdict reads the attacks the run switches on
    prediction = destabilization_verdict([a for a in attacks if a.start_step < horizon], model,
                                         spectrum, ctrl, compensating)
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
        x_hat=store_xhat,
        u=store_u,
        d=store_d,
        f=store_f,
        eps=store_eps,
        gamma=gamma,
        consensus_err=store_cerr,
        inf_norms=inf_norms,
        final_x=final_x,
        final_x_hat=final_x_hat,
        diverged=bool(first_crossing is not None or growth.growth_detected),
        first_crossing=first_crossing,
        growth_detected=growth.growth_detected,
        tail_slope=growth.tail_slope,
        prediction=prediction.value,
        intact_agents=intact,
        gains={"c": float(ctrl.c), "theta": float(ctrl.theta), "notes": list(ctrl.notes)},
        seed=seed,
        attack_bound=attack_bound,
    )
