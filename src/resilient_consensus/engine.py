"""The per-step simulation loop composing plant, attacks, predictor, compensator.

The loop is the only copy of the plant step, the law u = c K eps_bar - d, the
predictor and the compensator d(k+1) = theta c K (eps_hat - eps_bar) + theta d(k).

Tick ordering at step k: read sensors (x_c), form the tracking errors, compute
the control law, add the actuator injection, advance the plant, update the
compensator from the same-tick errors, advance the predictor. All quantities
recorded for step k are the values used during that tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attacks import effective_injection, signal_series
from .design import ControllerConfig
from .dynamics import LtiModel
from .graph import DirectedGraph, GraphSpectrum
from .metrics import analyze_growth, destabilization_verdict, global_performance
from .trace import SimulationTrace

DIVERGENCE_THRESHOLD = 1e9


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

    def reference(self, k: int, input_dim: int) -> np.ndarray:
        return self.amplitude * np.sin(self.omega * k) * np.ones(input_dim)


def _collect_series(attacks, channel, steps, n_agents, dim):
    """Sum of attack series on one channel, or None when the channel is unused."""
    live = [s for s in attacks if s.channel == channel]
    if not live:
        return None
    out = np.zeros((steps, n_agents, dim))
    for spec in live:
        series = signal_series(spec, steps)
        if series.shape[1] != dim:
            raise ValueError(f"{channel} attack on agent {spec.agent} has dimension "
                             f"{series.shape[1]}, expected {dim}")
        out[:, spec.agent, :] += series
    return out


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
    or ``predictor_init`` raises ValueError.
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
    adjacency = graph.adjacency
    norm_lap = spectrum.normalized_laplacian
    in_deg = graph.in_degrees
    K_T = ctrl.K.T
    A_T = model.A.T
    B_T = model.B.T
    c = ctrl.c
    theta = ctrl.theta
    resilient = controller == "resilient"

    x = np.asarray(x0, dtype=float).reshape(N, n).copy()
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if predictor_init is None:
        x_hat = x.copy()
    else:
        x_hat = np.asarray(predictor_init, dtype=float).reshape(N, n).copy()
        if not np.isfinite(x_hat).all():
            raise ValueError("predictor_init must be finite")
    d = np.zeros((N, m))

    # sensor corruption also applies to the final state, hence horizon + 1
    sens_series = _collect_series(attacks, "sensor", horizon + 1, N, n)
    act_series = _collect_series(attacks, "actuator", horizon, N, m)

    ff_weights = None
    if leader is not None:
        targeted = {spec.agent for spec in attacks}
        if 0 in targeted:
            raise ValueError("the leader agent is trusted and cannot be attacked")
        ff_weights = (adjacency[:, 0] / (1.0 + in_deg))[:, None]  # (1+h_i)^-1 a_i0

    stored_ks = list(range(0, horizon, store_stride))
    S = len(stored_ks)
    store_x = np.empty((S, N, n))
    store_xc = np.empty((S, N, n))
    store_xhat = np.empty((S, N, n))
    store_u = np.empty((S, N, m))
    store_d = np.empty((S, N, m))
    store_eps = np.empty((S, N, n))
    store_eps_bar = np.empty((S, N, n))
    store_gamma = np.empty(S)
    store_cerr = np.empty((S, N))
    inf_norms = np.empty(horizon + 1)
    inf_norms[0] = np.abs(x).max()

    first_crossing = None
    steps_run = horizon
    si = 0
    for k in range(horizon):
        xc = x + sens_series[k] if sens_series is not None else x
        eps_bar = -norm_lap @ xc
        eps_hat = -norm_lap @ x_hat
        U = c * eps_bar @ K_T
        U_hat = c * eps_hat @ K_T
        if resilient and k >= compensator_start:
            U = U - d
        if leader is not None:
            ref = leader.reference(k, m)
            u0 = ref - leader.K0 @ x[0]
            u0_hat = ref - leader.K0 @ x_hat[0]
            U[0] = u0
            U_hat[0] = u0_hat
            U[1:] += ff_weights[1:] * u0[None, :]
            U_hat[1:] += ff_weights[1:] * u0_hat[None, :]

        if k % store_stride == 0:
            store_x[si] = x
            store_xc[si] = xc
            store_xhat[si] = x_hat
            store_u[si] = U
            store_d[si] = d
            store_eps[si] = -norm_lap @ x
            store_eps_bar[si] = eps_bar
            store_gamma[si] = global_performance(x, graph)
            store_cerr[si] = np.abs(x - x_hat).max(axis=1)
            si += 1

        U_applied = U + act_series[k] if act_series is not None else U
        x = x @ A_T + U_applied @ B_T
        x_hat = x_hat @ A_T + U_hat @ B_T
        if resilient and k >= compensator_start:
            d = theta * c * (eps_hat - eps_bar) @ K_T + theta * d

        norm_now = np.abs(x).max()
        inf_norms[k + 1] = norm_now
        if not np.isfinite(norm_now) or norm_now > divergence_threshold:
            if first_crossing is None:
                first_crossing = k + 1
            steps_run = k + 1
            break

    stored_ks = stored_ks[:si]
    inf_norms = inf_norms[:steps_run + 1]
    growth = analyze_growth(inf_norms, magnitude_threshold=divergence_threshold)
    crossing = first_crossing if first_crossing is not None else growth.first_crossing
    prediction = destabilization_verdict(attacks, model, spectrum)

    # effective injection over the full (unstrided) run, computed once
    f = effective_injection(None if sens_series is None else sens_series[:steps_run],
                            None if act_series is None else act_series[:steps_run],
                            norm_lap, c, ctrl.K)
    if f is None:
        store_f = np.zeros((si, N, m))
        intact = tuple(range(N))
        attack_bound = 0.0
    else:
        store_f = f[stored_ks]
        per_agent_peak = np.abs(f).max(axis=(0, 2), initial=0.0)
        intact = tuple(int(i) for i in range(N) if per_agent_peak[i] <= 1e-12)
        attack_bound = float(np.sqrt((f.reshape(steps_run, -1) ** 2).sum(axis=1).max()))

    return SimulationTrace(
        name=name,
        controller=controller,
        horizon=horizon,
        steps_run=steps_run,
        n_agents=N,
        state_dim=n,
        input_dim=m,
        stride=store_stride,
        ks=np.asarray(stored_ks, dtype=int),
        x=store_x[:si],
        x_c=store_xc[:si],
        x_hat=store_xhat[:si],
        u=store_u[:si],
        d=store_d[:si],
        f=store_f,
        eps=store_eps[:si],
        eps_bar=store_eps_bar[:si],
        gamma=store_gamma[:si],
        consensus_err=store_cerr[:si],
        inf_norms=inf_norms,
        final_x=x.ravel().copy(),
        final_x_hat=x_hat.ravel().copy(),
        diverged=bool(crossing is not None or growth.growth_detected),
        first_crossing=crossing,
        growth_detected=growth.growth_detected,
        tail_slope=growth.tail_slope,
        prediction=prediction.value,
        intact_agents=intact,
        gains={"c": float(c), "theta": float(theta), "notes": list(ctrl.notes)},
        seed=seed,
        attack_bound=attack_bound,
    )
