"""Gradient descent with a Wolfe line search over the stochastic objective.

Within one iteration every probe of the line search reuses one fixed batch
of noise streams (common random numbers), so the Wolfe conditions are
checked on a deterministic restriction of the objective.  Across iterations
fresh streams are drawn by default, which avoids overfitting a single noise
realization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .dynamics import CensoredPathError, NumericalFailureError
from .objective import GradientEstimate


# the first line-search trial never moves farther than this in coefficient
# space; steep early gradients would otherwise probe pathological controls
MAX_FIRST_STEP = 1.0


class OptimizerError(RuntimeError):
    """Descent aborted; carries the trace collected so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 200
    grad_tol: float = 0.05
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    alpha_init: float = 1.0
    alpha_max: float = 10.0
    batch_size: int = 512
    reseed_policy: str = "fresh"   # "fresh" per iteration, or "fixed"
    # coarser step for the descent only; estimates keep the global h
    h: float | None = 2e-3

    def __post_init__(self):
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ValueError(f"need 0 < wolfe_c1 < wolfe_c2 < 1, got wolfe_c1="
                             f"{self.wolfe_c1}, wolfe_c2={self.wolfe_c2}")
        if self.alpha_init <= 0 or self.alpha_max <= 0:
            raise ValueError("alpha bounds must be positive")
        if self.reseed_policy not in ("fresh", "fixed"):
            raise ValueError(f"unknown reseed policy {self.reseed_policy!r}")


@dataclass
class DescentRecord:
    iteration: int
    coefficients: np.ndarray
    cost: float
    cost_stderr: float
    grad_norm: float
    grad_stderr_norm: float
    alpha: float
    mean_steps: float
    n_censored: int
    line_search_fallback: bool = False


@dataclass
class DescentTrace:
    records: list[DescentRecord] = field(default_factory=list)
    converged: bool = False

    def append(self, rec: DescentRecord):
        self.records.append(rec)

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    @property
    def mean_steps(self) -> float:
        return float(np.mean([r.mean_steps for r in self.records]))

    @property
    def non_converging(self) -> bool:
        """Smoothed (5-iteration moving average) cost increased beyond noise."""
        c = self.costs
        if c.size < 6:
            return False
        kernel = np.ones(5) / 5.0
        sm = np.convolve(c, kernel, mode="valid")
        slack = 2.0 * float(np.median([r.cost_stderr for r in self.records]))
        return bool(np.any(np.diff(sm) > slack))

    def write_csv(self, path, config_hash: str | None = None):
        with open(path, "w", newline="") as fh:
            if config_hash is not None:
                fh.write(f"# config_hash: {config_hash}\n")
            writer = csv.writer(fh)
            writer.writerow(["iteration", "cost", "grad_norm", "alpha", "stderr",
                             "mean_steps"])
            for r in self.records:
                writer.writerow([r.iteration, repr(float(r.cost)),
                                 repr(float(r.grad_norm)), repr(float(r.alpha)),
                                 repr(float(r.cost_stderr)),
                                 repr(float(r.mean_steps))])


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    value: float
    gradient: np.ndarray | None
    n_evals: int
    fallback: bool


def wolfe_line_search(a: np.ndarray, direction: np.ndarray, evaluate, *,
                      value0: float, grad0: np.ndarray,
                      c1: float = 1e-4, c2: float = 0.9,
                      alpha_init: float = 1.0, alpha_max: float = 10.0,
                      max_zoom: int = 20,
                      max_first_step: float | None = None) -> LineSearchResult:
    """Strong-Wolfe step on the fixed-random-number restriction phi(t) = f(a + t d).

    evaluate(b) must return an object with .value and .gradient computed with
    the same noise realization for every probe.  Falls back to plain Armijo
    backtracking after max_zoom zoom steps, and to alpha_init/10 (flagged)
    when even that fails.
    """
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    phi0 = value0
    dphi0 = float(np.dot(grad0, d))
    if dphi0 >= 0.0:
        raise ValueError(f"direction is not a descent direction (d.g = {dphi0:.3e})")
    if max_first_step is not None:
        alpha_init = min(alpha_init, max_first_step / max(np.linalg.norm(d), 1e-12))

    evals = 0

    def probe(t):
        nonlocal evals
        est = evaluate(a + t * d)
        evals += 1
        return est.value, float(np.dot(est.gradient, d)), est

    def armijo(t, val):
        return val <= phi0 + c1 * t * dphi0

    def zoom(t_lo, phi_lo, t_hi):
        for _ in range(max_zoom):
            t = 0.5 * (t_lo + t_hi)
            val, slope, est = probe(t)
            if not armijo(t, val) or val >= phi_lo:
                t_hi = t
            else:
                if abs(slope) <= -c2 * dphi0:
                    return LineSearchResult(t, val, est.gradient, evals, False)
                if slope * (t_hi - t_lo) >= 0.0:
                    t_hi = t_lo
                t_lo, phi_lo = t, val
        return None

    t_prev, phi_prev = 0.0, phi0
    t = min(alpha_init, alpha_max)
    for it in range(12):
        val, slope, est = probe(t)
        if not armijo(t, val) or (it > 0 and val >= phi_prev):
            res = zoom(t_prev, phi_prev, t)
            if res is not None:
                return res
            break
        if abs(slope) <= -c2 * dphi0:
            return LineSearchResult(t, val, est.gradient, evals, False)
        if slope >= 0.0:
            res = zoom(t, val, t_prev)
            if res is not None:
                return res
            break
        if t >= alpha_max:
            # curvature never turned on [0, alpha_max]; the cap is the best step
            return LineSearchResult(t, val, est.gradient, evals, False)
        t_prev, phi_prev = t, val
        t = min(2.0 * t, alpha_max)

    # Armijo-only backtracking
    t = min(alpha_init, alpha_max)
    for _ in range(20):
        val, _, est = probe(t)
        if armijo(t, val):
            return LineSearchResult(t, val, est.gradient, evals, False)
        t *= 0.5
    return LineSearchResult(alpha_init / 10.0, phi0, None, evals, True)


def descend(a0: np.ndarray, cfg: DescentConfig, objective, *, seed: int = 0):
    """Iterate a_{i+1} = a_i - alpha_i grad I(a_i) until the gradient is noise-level.

    objective(a, seed) -> GradientEstimate; one seed is used for all probes
    within an iteration.  Terminates when the gradient norm drops below
    max(grad_tol, 2 * gradient stderr norm) or after max_iters; returns the
    best-seen coefficients by cost value together with the trace.
    """
    a = np.asarray(a0, dtype=np.float64).copy()
    if not np.all(np.isfinite(a)):
        raise OptimizerError("initial coefficients are not finite")
    trace = DescentTrace()
    best_a, best_cost = a.copy(), np.inf

    failed = GradientEstimate(value=np.inf, gradient=np.zeros_like(a),
                              value_stderr=np.inf,
                              gradient_stderr=np.full_like(a, np.inf),
                              n_paths=0, n_censored=0, mean_steps=0.0)

    for it in range(cfg.max_iters):
        it_seed = seed if cfg.reseed_policy == "fixed" else seed + 1_000_003 * (it + 1)
        est = objective(a, it_seed)

        def probe(b):
            # a pathological probe (runaway control) must never be accepted
            try:
                cand = objective(b, it_seed)
            except (CensoredPathError, NumericalFailureError):
                return failed
            return failed if cand.n_censored else cand

        alpha = 0.0
        fallback = False
        done = est.grad_norm < max(cfg.grad_tol, 2.0 * est.grad_stderr_norm)
        if not done:
            ls = wolfe_line_search(
                a, -est.gradient, probe,
                value0=est.value, grad0=est.gradient,
                c1=cfg.wolfe_c1, c2=cfg.wolfe_c2,
                alpha_init=cfg.alpha_init, alpha_max=cfg.alpha_max,
                max_first_step=MAX_FIRST_STEP)
            alpha = ls.alpha
            fallback = ls.fallback

        trace.append(DescentRecord(
            iteration=it, coefficients=a.copy(), cost=est.value,
            cost_stderr=est.value_stderr, grad_norm=est.grad_norm,
            grad_stderr_norm=est.grad_stderr_norm, alpha=alpha,
            mean_steps=est.mean_steps, n_censored=est.n_censored,
            line_search_fallback=fallback))
        if est.value < best_cost:
            best_cost, best_a = est.value, a.copy()
        if done:
            trace.converged = True
            break

        a = a - alpha * est.gradient
        if not np.all(np.isfinite(a)):
            raise OptimizerError(f"coefficients became non-finite at iteration {it}",
                                 trace=trace)
    return best_a, trace
