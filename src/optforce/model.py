"""Energy landscapes, running-cost observables, stopping sets and domains.

Everything here is immutable after construction and vectorized over numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar


class OutOfDomainError(ValueError):
    """A point lies outside the configured simulation domain."""


@dataclass(frozen=True)
class Potential:
    """Energy landscape V with an analytic gradient.

    ``evaluate`` and ``gradient`` accept scalars or arrays and operate
    elementwise (1D state space).
    """

    dimension: int
    evaluate: Callable
    gradient: Callable
    label: str


@dataclass(frozen=True)
class Observable:
    """Running cost f accumulated along a path until the stopping time.

    kind is "constant" (f = sigma everywhere, sigma recorded) or "general".
    """

    evaluate: Callable
    kind: str
    sigma: float | None = None


def constant_observable(sigma: float) -> Observable:
    """Observable f(x) = sigma for all x."""
    sigma = float(sigma)
    return Observable(evaluate=lambda x: np.broadcast_to(np.float64(sigma), np.shape(x)) if np.ndim(x) else sigma,
                      kind="constant", sigma=sigma)


@dataclass(frozen=True)
class StoppingSet:
    """Closed interval [lo, hi]; hitting means entering the closed set."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"stopping set needs lo < hi, got [{self.lo}, {self.hi}]")

    def contains(self, x):
        return (x >= self.lo) & (x <= self.hi)


@dataclass(frozen=True)
class SimulationDomain:
    """Truncation box for simulation; the landscape is unbounded, the solver is not.

    boundary is "reflect" (fold excursions back inside) or "abort" (raise).
    """

    lo: float
    hi: float
    boundary: str = "reflect"

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"domain needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.boundary not in ("reflect", "abort"):
            raise ValueError(f"unknown boundary behavior {self.boundary!r}")

    def contains(self, x):
        return (x >= self.lo) & (x <= self.hi)


@dataclass(frozen=True)
class ModelBundle:
    """Potential + observable + stopping set + domain, validated together."""

    potential: Potential
    observable: Observable
    stopping_set: StoppingSet
    domain: SimulationDomain

    def __post_init__(self):
        s, d = self.stopping_set, self.domain
        # the left edge may touch the domain edge (milestoning shell sets are
        # half-lines); the right edge must leave room for paths to start
        if not (d.lo <= s.lo and s.hi < d.hi):
            raise ValueError("stopping set must lie inside the domain with "
                             "room to its right")


# ---------------------------------------------------------------------------
# builtin potentials
# ---------------------------------------------------------------------------

def make_flat() -> Potential:
    """Zero potential (free Brownian motion)."""
    return Potential(
        dimension=1,
        evaluate=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        label="flat",
    )


def make_harmonic(k: float = 1.0) -> Potential:
    """Harmonic well V(x) = k x^2 / 2."""
    k = float(k)
    return Potential(
        dimension=1,
        evaluate=lambda x: 0.5 * k * np.asarray(x, dtype=np.float64) ** 2,
        gradient=lambda x: k * np.asarray(x, dtype=np.float64),
        label="harmonic",
    )


def make_scaled_double_well(barrier_scale: float = 1.0, skew: float = -0.25) -> Potential:
    """Double well barrier_scale*(x^2-1)^2 + skew*x, for easy/hard test cases."""
    b, s = float(barrier_scale), float(skew)
    return Potential(
        dimension=1,
        evaluate=lambda x: b * (np.asarray(x, dtype=np.float64) ** 2 - 1.0) ** 2 + s * np.asarray(x, dtype=np.float64),
        gradient=lambda x: 4.0 * b * np.asarray(x, dtype=np.float64) * (np.asarray(x, dtype=np.float64) ** 2 - 1.0) + s,
        label=f"double_well(b={b},skew={s})",
    )


POTENTIALS: dict[str, Callable[..., Potential]] = {
    # the headline landscape V(x) = 2(x^2-1)^2 - 0.5x: two minima near +-1,
    # the left one (holding the default target interval) higher, with a
    # barrier near x ~ -0.06.  At temperature 0.5 the optimally tilted
    # dynamics hit the target roughly a hundred times faster than the plain
    # dynamics.
    "skew_double_well": partial(make_scaled_double_well, barrier_scale=2.0, skew=-0.5),
    "flat": make_flat,
    "harmonic": make_harmonic,
    "double_well": make_scaled_double_well,
}


def make_potential(name: str, **params) -> Potential:
    """Look up a builtin potential by name (CLI config entry point)."""
    try:
        factory = POTENTIALS[name]
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; known: {sorted(POTENTIALS)}") from None
    return factory(**params)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def find_local_minimum(p: Potential, lo: float, hi: float) -> float:
    """Locate a local minimum of V on [lo, hi] (bounded scalar minimization)."""
    res = minimize_scalar(lambda x: float(p.evaluate(x)), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return float(res.x)


def default_start_point(p: Potential, domain: SimulationDomain, s: StoppingSet) -> float:
    """Start point for trajectory-based estimates: the minimum right of S."""
    return find_local_minimum(p, s.hi, domain.hi)
