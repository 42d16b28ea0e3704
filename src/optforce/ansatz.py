"""Gaussian parameterization of the value function and the induced control.

The value function is F(x) = sum_j a_j v_j(x) with scalar Gaussian bumps
v_j(x) = exp(-|x - mu_j|^2 / (2 s_j^2)), and the control field is
c(x) = sum_j a_j b_j(x) with b_j = -sqrt(2) grad v_j, so that
c = -sqrt(2) grad F identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import Potential, StoppingSet, SimulationDomain
from .reference import Grid1D

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class GaussianAnsatz:
    """Gaussian basis with centers, widths (standard deviations) and coefficients.

    active_mask, when set, zeroes out the contribution of the masked-off basis
    functions to values, controls and basis matrices (used by the milestoning
    shells).
    """

    centers: np.ndarray
    widths: np.ndarray
    coefficients: np.ndarray
    active_mask: np.ndarray | None = None

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
        if self.active_mask is not None:
            m = np.asarray(self.active_mask, dtype=bool)
            if m.shape != c.shape:
                raise ValueError("active_mask must match the basis size")
            object.__setattr__(self, "active_mask", m)

    @property
    def m(self) -> int:
        return self.centers.size

    def with_coefficients(self, a) -> "GaussianAnsatz":
        return GaussianAnsatz(self.centers, self.widths, np.asarray(a, dtype=np.float64),
                              self.active_mask)

    def with_mask(self, mask) -> "GaussianAnsatz":
        return GaussianAnsatz(self.centers, self.widths, self.coefficients,
                              None if mask is None else np.asarray(mask, dtype=bool))

    # -- basis evaluation ---------------------------------------------------

    def values_matrix(self, x) -> np.ndarray:
        """(n, m) matrix of v_j(x_i); masked columns are zero."""
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        d = xa[:, None] - self.centers[None, :]
        v = np.exp(-d * d / (2.0 * self.widths ** 2))
        if self.active_mask is not None:
            v = v * self.active_mask
        return v

    def basis_controls(self, x) -> np.ndarray:
        """(n, m) matrix of b_j(x_i) = sqrt(2) (x - mu_j)/s_j^2 * v_j(x_i)."""
        xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
        d = xa[:, None] - self.centers[None, :]
        v = np.exp(-d * d / (2.0 * self.widths ** 2))
        b = SQRT2 * d / self.widths ** 2 * v
        if self.active_mask is not None:
            b = b * self.active_mask
        return b

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
        dimension=1,
        evaluate=lambda x: p.evaluate(x) + 2.0 * ansatz.value(x),
        gradient=lambda x: p.gradient(x) - SQRT2 * ansatz.control(x),
        label=f"tilted({p.label})",
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
