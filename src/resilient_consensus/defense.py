"""Analytic bounds for the resilient controller.

The predictor, the compensator and the resilient law themselves run inside
``engine.simulate``. This module holds the bounds that go with them: the
ultimate bound on the attack-rejection error d - f, and the consensus-error
threshold that bound implies, summed on ``engine._Law``'s attack-free step
without the leader's law.
"""

from __future__ import annotations

import numpy as np

from .design import THETA_BOUND, ControllerConfig
from .dynamics import LtiModel
from .engine import _Law, _matrix
from .graph import GraphSpectrum

# most impulse-response terms consensus_error_threshold sums before it gives up
MAX_TERMS = 20_000


def dtilde_bound(ctrl: ControllerConfig, spectrum: GraphSpectrum, attack_bound: float,
                 zeta: float = 1.0, channel: str = "actuator") -> float:
    """Ultimate-bound radius for the attack-rejection error d - f.

    ``attack_bound`` bounds ||f(k)||. For actuator attacks the forcing term is
    ||f - zeta f / theta|| = |1 - zeta/theta| ||f||; a pure sensor attack
    doubles the direct term, giving |2 - zeta/theta|; any other ``channel``
    is a ValueError. The denominator theta^-2 - 2 - 2 lam_min is theta^-2 - 2,
    as lam_min = 0 (see ``design``), so ``spectrum`` is not read; it is
    positive exactly when theta is below THETA_BOUND.

    The forcing term assumes the attack evolves as f(k+1) = zeta f(k), so
    zeta = 1 fits a constant attack and no single zeta fits a sinusoid.
    ``PAPER.md`` (the abstract only) does not define zeta. With zeta = 1 the
    tail limsup of ||d - f|| has been measured above this bound:

    - ``auv_sin_attack_agent3_resilient``: 212.9 against 17.24;
    - a unit sinusoid with omega = 1 on non-root agent 2 of the 4-agent
      integrator example at theta = 0.354: 1.37 against 1.22;
    - a constant attack on the root of the 5-agent chain, and on the hub of
      a unit out-star with four leaves, at theta = 0.354: 1.2247 against
      1.2190, although a constant attack meets the assumption.
    """
    if attack_bound < 0:
        raise ValueError("attack_bound must be nonnegative")
    if channel not in ("actuator", "sensor"):
        raise ValueError(f"unknown attack channel {channel!r}")
    denom = ctrl.theta ** -2 - 2.0
    if denom <= 0:
        raise ValueError(
            f"bound denominator {denom:.3g} is not positive; choose theta below "
            f"{THETA_BOUND:.6g}"
        )
    direct = 1.0 if channel == "actuator" else 2.0
    return 4.0 * attack_bound * abs(direct - zeta / ctrl.theta) / denom


def consensus_error_threshold(model: LtiModel, spectrum: GraphSpectrum,
                              ctrl: ControllerConfig, d_bound: float) -> float:
    """Peak consensus-error bound implied by ||d - f|| <= d_bound.

    The error x - x_hat obeys e(k+1) = A_c e(k) - (I (x) B)(d - f), where A_c
    is the matrix of ``engine._Law``'s attack-free step e -> A e + B u(e) run
    without a leader: A_c = I (x) A - c Lhat (x) BK. On the complement of the
    marginal consensus modes (the lam = 0 block carrying A's non-Schur
    eigenvalues) the response to a bounded rejection error is bounded by the
    l1 impulse-response gain, summed here until the geometric tail is
    negligible. Along the marginal modes themselves no bound exists;
    root-directed attacks drive those modes regardless of the compensator.
    A series that has not converged after MAX_TERMS terms would
    underestimate the bound, so it raises ValueError instead.

    With a leader, A_c is not the run's error operator: row 0 of Lhat is zero,
    so A_c leaves agent 0 in open loop, while the run applies u_0 = r - K0 x_0
    (``engine._Law`` with the leader). On ``auv_const_attack_agent2_resilient``
    and ``auv_sin_attack_agent3_resilient`` the two differ by up to 1.37 in one
    entry, with spectral radii 1.579 (A_c) and 0.715 (the run's).
    """
    if spectrum.left_eigvec_zero is None:
        raise ValueError("threshold needs a spanning-tree graph")
    n = model.state_dim
    N = spectrum.normalized_laplacian.shape[0]
    law = _Law(None, spectrum.normalized_laplacian, ctrl, None)

    def step(e):  # e -> A e + B u(e) for stacked flat errors, attack-free, d = 0
        e = e.reshape(-1, N, n)
        return (e @ model.A.T + law(e, 0.0, 0.0, None) @ model.B.T).reshape(-1, N * n)

    a_c = _matrix(step, N * n)

    # spectral projector removing the lam = 0 block's marginal modes; built from
    # the right modes 1 (x) w and left modes r (x) wl of A_c (bilinear pairing)
    proj = np.eye(N * n, dtype=complex)
    ones = np.ones(N)
    r = spectrum.left_eigvec_zero
    eigvals, right = np.linalg.eig(model.A)
    eigvals_l, left = np.linalg.eig(model.A.T)
    for lam in model.marginal_eigenvalues:
        w = right[:, np.argmin(np.abs(eigvals - lam))]
        wl = left[:, np.argmin(np.abs(eigvals_l - lam))]
        rv = np.kron(ones, w)
        lv = np.kron(r, wl)
        proj = proj - np.outer(rv, lv) / (lv @ rv)

    gain = 0.0
    term = (proj.reshape(N * n, N, n) @ model.B).reshape(N * n, -1)  # proj (I (x) B)
    for _ in range(MAX_TERMS):
        rows = np.sqrt((np.abs(term) ** 2).sum(axis=1)).max()
        gain += rows
        if rows <= 1e-12 * max(gain, 1.0):
            break
        # re-project every step: float leakage into the removed non-Schur
        # modes would otherwise grow and corrupt the tail of the series
        term = proj @ (a_c @ term)
    else:
        raise ValueError(f"impulse-response series did not converge in {MAX_TERMS} terms; "
                         "the closed loop is too close to marginal stability")
    return float(gain * d_bound)
