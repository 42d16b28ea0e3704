"""One-path-at-a-time Euler-Maruyama loop: the oracle for the batch kernel.

`optforce.dynamics.run_batch` must reproduce these paths from the same
per-path noise streams; the stored states also give the discrete action, so
the kernel's accumulated log likelihood ratio can be checked against the
action difference it expands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from optforce.dynamics import (NOISE_BLOCK, SQRT2, NumericalFailureError, SimConfig,
                               _reflect)
from optforce.model import (Observable, OutOfDomainError, Potential, SimulationDomain,
                            StoppingSet)


@dataclass
class Trajectory:
    """One discrete controlled path up to its hitting step.

    states/noises are kept only when the path was simulated with
    store_path=True; all scalar statistics are accumulated in the loop.
    """

    n_tau: int
    work: float
    control_cost: float
    log_lr_p_over_q: float
    hit: bool
    states: np.ndarray | None = None
    noises: np.ndarray | None = None


def em_step(x, control_value, noise, cfg: SimConfig, p: Potential,
            domain: SimulationDomain | None = None):
    """One Euler-Maruyama update; reflects at the domain edges afterwards."""
    h, eps = cfg.h, cfg.epsilon
    x_new = x + h * (SQRT2 * control_value - p.gradient(x)) + np.sqrt(2.0 * h * eps) * noise
    if not np.all(np.isfinite(x_new)):
        raise NumericalFailureError("non-finite Euler-Maruyama update", x=x, step=None)
    if domain is not None:
        if domain.boundary == "reflect":
            x_new = _reflect(x_new, domain)
        elif not np.all(domain.contains(x_new)):
            raise OutOfDomainError(f"update left the domain with abort boundary: {x_new}")
    return x_new


def simulate_until_hit(x0: float, control, s: StoppingSet, f: Observable,
                       cfg: SimConfig, p: Potential, stream: np.random.Generator,
                       domain: SimulationDomain | None = None,
                       store_path: bool = True) -> Trajectory:
    """Run one controlled path from x0 until it enters S or max_steps is hit.

    control is a map x -> control value, or None for the plain dynamics.
    Noises are drawn from `stream` in blocks of NOISE_BLOCK.
    """
    if bool(s.contains(x0)):
        raise ValueError(f"x0={x0} already inside the stopping set")
    h, eps = cfg.h, cfg.epsilon
    lr_eta = np.sqrt(h / eps)
    lr_quad = h / (2.0 * eps)

    x = float(x0)
    work = 0.0
    cost = 0.0
    log_lr = 0.0
    states = [x] if store_path else None
    noises = [] if store_path else None
    block = stream.standard_normal(NOISE_BLOCK)
    pos = 0
    hit = False
    n = 0
    while n < cfg.max_steps:
        if pos == NOISE_BLOCK:
            block = stream.standard_normal(NOISE_BLOCK)
            pos = 0
        eta = block[pos]
        pos += 1
        c = 0.0 if control is None else float(control(x))
        work += h * float(f.evaluate(x))
        cost += h * 0.5 * c * c
        log_lr += -lr_eta * c * eta - lr_quad * c * c
        x = float(em_step(x, c, eta, cfg, p, domain))
        n += 1
        if store_path:
            states.append(x)
            noises.append(eta)
        if bool(s.contains(x)):
            hit = True
            break
    return Trajectory(
        n_tau=n, work=work, control_cost=cost, log_lr_p_over_q=log_lr, hit=hit,
        states=np.array(states) if store_path else None,
        noises=np.array(noises) if store_path else None,
    )


def discrete_action(traj: Trajectory, control, cfg: SimConfig, p: Potential) -> float:
    """Discrete action of the stored path under the supplied control field.

        S_h = (h / 4 eps) sum_k | (x_{k+1}-x_k)/h + V'(x_k) - sqrt(2) c(x_k) |^2

    The control need not be the one that generated the path.
    """
    if traj.states is None:
        raise ValueError("trajectory was simulated without stored states")
    x = traj.states
    if x.size != traj.n_tau + 1:
        raise ValueError(f"state count {x.size} does not match n_tau={traj.n_tau}")
    h, eps = cfg.h, cfg.epsilon
    xk = x[:-1]
    c = np.zeros_like(xk) if control is None else np.asarray(control(xk), dtype=np.float64)
    resid = (x[1:] - xk) / h + np.asarray(p.gradient(xk), dtype=np.float64) - SQRT2 * c
    return float(h / (4.0 * eps) * np.sum(resid * resid))


def log_likelihood_ratio(traj: Trajectory, control, cfg: SimConfig, p: Potential) -> float:
    """log dP/dQ of the stored path: action under `control` minus action under zero."""
    return discrete_action(traj, control, cfg, p) - discrete_action(traj, None, cfg, p)
