"""Gaussian parameterization of the value function and the induced control.

The value function is F(x) = sum_j a_j v_j(x) with scalar Gaussian bumps
v_j(x) = exp(-|x - mu_j|^2 / (2 s_j^2)), and the control field is
c(x) = sum_j a_j b_j(x) with b_j = -sqrt(2) grad v_j, so that
c = -sqrt(2) grad F identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .model import Potential, StoppingSet, SimulationDomain
from .reference import Grid1D

# 0-d, which a ufunc takes faster than a numpy scalar
SQRT2 = np.array(np.sqrt(2.0))


@dataclass(frozen=True)
class GaussianAnsatz:
    """Gaussian basis with centers, widths (standard deviations) and coefficients."""

    centers: np.ndarray
    widths: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=np.float64)
        w = np.asarray(self.widths, dtype=np.float64)
        a = np.asarray(self.coefficients, dtype=np.float64)
        if not (c.shape == w.shape == a.shape) or c.ndim != 1:
            raise ValueError("centers, widths, coefficients must be 1D with equal length")
        if np.any(w <= 0):
            raise ValueError("widths must be positive")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", w)
        object.__setattr__(self, "coefficients", a)
        # per-step constants of the basis evaluation; with equal widths 0-d
        # divisors give the same quotients without a stride-0 loop over m
        w2, minus_two_w2 = w ** 2, -(2.0 * w ** 2)
        if w.size and np.all(w == w[0]):
            w2, minus_two_w2 = np.array(w2[0]), np.array(minus_two_w2[0])
        object.__setattr__(self, "_w2", w2)
        object.__setattr__(self, "_minus_two_w2", minus_two_w2)

    @property
    def m(self) -> int:
        return self.centers.size

    def with_coefficients(self, a) -> "GaussianAnsatz":
        return GaussianAnsatz(self.centers, self.widths, np.asarray(a, dtype=np.float64))

    # -- basis evaluation ---------------------------------------------------

    def _bump(self, x, centers, d, v) -> np.ndarray:
        """d = x - mu_j and v = v_j(x) for the 1-D array x, written into the
        C-contiguous (x.size, m) buffers d and v; returns v.

        centers is self.centers or its rows tiled to that shape: x - mu_j is
        the same subtraction whether they are tiled or broadcast.
        """
        np.copyto(d, x[:, None])
        d -= centers
        # d^2 / -(2 s^2) is -d^2 / (2 s^2) bit for bit: IEEE rounding is
        # symmetric in sign
        np.square(d, out=v)
        v /= self._minus_two_w2
        return np.exp(v, out=v)

    def values_matrix(self, x) -> np.ndarray:
        """(n, m) matrix of v_j(x_i)."""
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        d = np.empty((x.size, self.m))
        return self._bump(x, self.centers, d, np.empty_like(d))

    def basis_controls(self, x) -> np.ndarray:
        """(n, m) matrix of b_j(x_i) = sqrt(2) (x - mu_j)/s_j^2 * v_j(x_i).

        A fresh matrix from basis_controls_into, the one basis evaluation.
        """
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        b = np.empty((x.size, self.m))
        return self.basis_controls_into(x, b, np.empty_like(b), self.centers)

    def basis_controls_into(self, x, out, scratch, centers) -> np.ndarray:
        """basis_controls(x) for the 1-D array x, written into out; returns out.

        out and scratch are C-contiguous (x.size, m) buffers, and centers is
        self.centers or its rows tiled to that shape.  The simulator kernel
        calls this once per step, into buffers it allocates once per batch
        with tiled centers, so that every operation but the broadcast copy
        of x is one flat loop over the n m elements (with equal widths, whose
        divisors are 0-d).
        """
        v = self._bump(x, centers, out, scratch)
        out *= SQRT2
        out /= self._w2
        out *= v
        return out

    def value(self, x):
        out = self.values_matrix(x) @ self.coefficients
        return float(out[0]) if np.ndim(x) == 0 else out

    def control(self, x):
        out = self.basis_controls(x) @ self.coefficients
        return float(out[0]) if np.ndim(x) == 0 else out

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"centers": self.centers.tolist(),
                           "widths": self.widths.tolist(),
                           "coefficients": self.coefficients.tolist()},
                          sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "GaussianAnsatz":
        doc = json.loads(text)
        return GaussianAnsatz(np.array(doc["centers"], dtype=np.float64),
                              np.array(doc["widths"], dtype=np.float64),
                              np.array(doc["coefficients"], dtype=np.float64))


def make_uniform_ansatz(m: int, domain: SimulationDomain, exclude: StoppingSet,
                        width: float) -> GaussianAnsatz:
    """m Gaussians of equal width, centers uniformly spaced right of the stopping set.

    The complement of the stopping set is disconnected in 1D; centers go in
    the component right of S, which contains the default start point.  Basis
    mass left of S never influences paths stopped at S.
    """
    if m < 1:
        raise ValueError("need at least one basis function")
    if width <= 0:
        raise ValueError("width must be positive")
    lo, hi = exclude.hi, domain.hi
    if not lo < hi:
        raise ValueError("complement of the stopping set is empty on the right")
    if m == 1:
        centers = np.array([(lo + hi) / 2.0])
    else:
        centers = np.linspace(lo, hi, m)
    return GaussianAnsatz(centers=centers, widths=np.full(m, float(width)),
                          coefficients=np.zeros(m))


def tilted_potential_from(ansatz: GaussianAnsatz, p: Potential) -> Potential:
    """The tilted landscape G = V + 2F as a Potential; grad G = grad V - sqrt(2) c."""
    return Potential(
        evaluate=lambda x: p.evaluate(x) + 2.0 * ansatz.value(x),
        gradient=lambda x: p.gradient(x) - SQRT2 * ansatz.control(x),
    )


def init_fill_wells(ansatz: GaussianAnsatz, p: Potential, grid: Grid1D) -> np.ndarray:
    """Initial coefficients that fill the wells of V up to its interior barrier.

    Least-squares fit of the basis to max(0, (V_barrier - V)/2) on the grid,
    where V_barrier is the highest interior local maximum of V on the grid.
    The resulting tilted landscape V + 2F is approximately flat inside the
    wells.  Returns the coefficient vector (all zeros if V has no interior
    barrier on the grid).
    """
    x = grid.nodes
    v = np.asarray(p.evaluate(x), dtype=np.float64)
    vp = np.asarray(p.gradient(x), dtype=np.float64)
    # interior local maxima: gradient sign change + to -
    sign = np.sign(vp)
    idx = np.where((sign[:-1] > 0) & (sign[1:] < 0))[0]
    if idx.size == 0:
        return np.zeros(ansatz.m)
    v_barrier = float(np.max(v[idx]))
    target = np.maximum(0.0, (v_barrier - v) / 2.0)
    A = ansatz.values_matrix(x)
    coef, _, rank, _ = np.linalg.lstsq(A, target, rcond=None)
    if rank < ansatz.m:
        coef = np.linalg.solve(A.T @ A + 1e-8 * np.eye(ansatz.m), A.T @ target)
    return coef
