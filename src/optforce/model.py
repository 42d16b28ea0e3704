"""Energy landscapes, stopping sets and domains, bundled with a running cost.

Everything here is immutable after construction and vectorized over numpy
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Potential:
    """Energy landscape V with an analytic gradient.

    ``evaluate`` and ``gradient`` accept scalars or arrays and operate
    elementwise (1D state space).
    """

    evaluate: Callable
    gradient: Callable


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


# what a path does on leaving the simulation domain
BOUNDARIES = ("reflect", "abort")


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
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary behavior {self.boundary!r}")

    def contains(self, x):
        return (x >= self.lo) & (x <= self.hi)


@dataclass(frozen=True)
class ModelBundle:
    """Potential, constant running cost sigma, stopping set and domain."""

    potential: Potential
    sigma: float
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
        evaluate=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        gradient=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


def make_harmonic(k: float = 1.0) -> Potential:
    """Harmonic well V(x) = k x^2 / 2."""
    k = float(k)
    return Potential(
        evaluate=lambda x: 0.5 * k * np.asarray(x, dtype=np.float64) ** 2,
        gradient=lambda x: k * np.asarray(x, dtype=np.float64),
    )


def make_scaled_double_well(barrier_scale: float = 1.0, skew: float = -0.25) -> Potential:
    """Double well barrier_scale*(x^2-1)^2 + skew*x, for easy/hard test cases."""
    b, s = float(barrier_scale), float(skew)
    # the gradient's constants as 0-d arrays, which a ufunc takes faster than floats
    four_b, one, skew_ = np.array(4.0 * b), np.array(1.0), np.array(s)

    def gradient(x):
        # x * x is what numpy computes for x ** 2
        x = np.asarray(x, dtype=np.float64)
        return four_b * x * (x * x - one) + skew_

    return Potential(
        evaluate=lambda x: b * (np.asarray(x, dtype=np.float64) ** 2 - 1.0) ** 2 + s * np.asarray(x, dtype=np.float64),
        gradient=gradient,
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
    """Locate a local minimum of V on [lo, hi] by bounded Brent search.

    A line-for-line port of scipy's `minimize_scalar(method="bounded")`
    (BSD-licensed: golden-section steps plus parabolic interpolation, after
    Brent's fmin) at xatol=1e-12 and scipy's 500-evaluation cap, so it returns
    scipy's x bit for bit.  It lives here because importing scipy.optimize for
    this one call costs each CLI stage ~0.45 s.
    """
    xatol, maxfun = 1e-12, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    # xf: best point so far; nfc, fulc: the two before it (parabola nodes)
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = ffulc = fnfc = float(p.evaluate(xf))
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a) and num < maxfun:
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            pp = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                pp = -pp
            q = abs(q)
            r, e = e, rat
            if abs(pp) < abs(0.5 * q * r) and q * (a - xf) < pp < q * (b - xf):
                golden = False
                rat = pp / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = float(p.evaluate(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf


def default_start_point(p: Potential, domain: SimulationDomain, s: StoppingSet) -> float:
    """Start point for trajectory-based estimates: the minimum right of S."""
    return find_local_minimum(p, s.hi, domain.hi)
