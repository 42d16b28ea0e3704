"""Monte-Carlo estimates of the control cost functional and its gradient.

The semi-discrete cost is

    I_h(a) = E_Q[ sum_{k < N_tau} h ( f(x_k) + |c(x_k)|^2 / 2 ) ]

with c = sum_j a_j b_j and Q the path measure of the controlled chain.  Its
derivative splits into an explicit term and a score (measure) term,

    dI_h/da_j = E[ h sum_k c(x_k) b_j(x_k) ]
              + sqrt(h/eps) Cov( G, sum_k eta_{k+1} b_j(x_k) ),

where G is the accumulated per-path cost.  For a deterministic horizon this
is exact; with a random hitting time the derivative of N_tau with respect to
the coefficients is dropped, which gives the slightly biased descent
gradient used by the optimizer.  The covariance uses the mean-subtracted
second factor with the unbiased (n-1) normalization; both factors'
product-mean form has the same expectation but more variance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ansatz import GaussianAnsatz
from .dynamics import BatchResult, CensoredPathError, SimConfig, run_batch
from .model import ModelBundle


@dataclass(frozen=True)
class GradientEstimate:
    """Batch estimate of the cost value and its coefficient gradient."""

    value: float
    gradient: np.ndarray
    value_stderr: float
    gradient_stderr: np.ndarray
    n_paths: int
    n_censored: int
    mean_steps: float

    @property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.gradient))

    @property
    def grad_stderr_norm(self) -> float:
        return float(np.linalg.norm(self.gradient_stderr))


def estimate_cost(ansatz: GaussianAnsatz, x0: float, model: ModelBundle,
                  cfg: SimConfig, *, seed: int | None = None, tag: int = 0,
                  fixed_horizon: float | None = None, terminal_value=None,
                  n_paths: int):
    """Batch mean and standard error of the per-path cost under the ansatz tilt.

    Any censored (non-hitting) path is an error: a mean over censored batches
    is biased and estimator-grade results must not silently absorb that.
    """
    fixed_steps = _steps_for_horizon(fixed_horizon, cfg)
    batch = run_batch(x0, None, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                      basis=ansatz, fixed_steps=fixed_steps,
                      terminal_value=terminal_value)
    if batch.n_censored:
        raise CensoredPathError(
            f"{batch.n_censored}/{batch.n_paths} paths did not hit within "
            f"max_steps={cfg.max_steps}; cost estimate would be biased")
    cost = batch.cost_per_path()
    return float(np.mean(cost)), float(np.std(cost, ddof=1) / np.sqrt(cost.size))


def _steps_for_horizon(fixed_horizon, cfg: SimConfig):
    if fixed_horizon is None:
        return None
    n = fixed_horizon / cfg.h
    if abs(n - round(n)) > 1e-9:
        raise ValueError(f"horizon {fixed_horizon} is not a multiple of h={cfg.h}")
    return int(round(n))


def _assemble(batch: BatchResult, cfg: SimConfig, keep: np.ndarray) -> GradientEstimate:
    h, eps = cfg.h, cfg.epsilon
    cost = batch.cost_per_path()[keep]
    u = batch.sum_cb[keep] * h                      # explicit term, per path
    v = batch.sum_eta_b[keep] * np.sqrt(h / eps)    # minus the action derivative
    n = cost.size
    if n < 2:
        raise ValueError("need at least two uncensored paths for an estimate")
    dc = cost - cost.mean()
    dv = v - v.mean(axis=0)
    grad = u.mean(axis=0) + (dc @ dv) / (n - 1)
    # per-path influence values for the standard error
    infl = u + dc[:, None] * dv
    grad_se = np.std(infl, axis=0, ddof=1) / np.sqrt(n)
    return GradientEstimate(
        value=float(cost.mean()),
        gradient=grad,
        value_stderr=float(np.std(cost, ddof=1) / np.sqrt(n)),
        gradient_stderr=grad_se,
        n_paths=batch.n_paths,
        n_censored=batch.n_censored,
        mean_steps=batch.mean_steps,
    )


def estimate_inexact_gradient(ansatz: GaussianAnsatz, x0: float, model: ModelBundle,
                              cfg: SimConfig, *, seed: int | None = None, tag: int = 0,
                              terminal_value=None, n_paths: int) -> GradientEstimate:
    """Random-stopping-time gradient estimate (boundary terms dropped).

    Censored paths are excluded with a warning and counted in n_censored;
    the optimizer degrades gracefully, estimator-grade users must check.
    """
    batch = run_batch(x0, None, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                      basis=ansatz, terminal_value=terminal_value)
    keep = batch.hit
    if batch.n_censored:
        warnings.warn(f"excluding {batch.n_censored} censored paths from the "
                      "gradient estimate", RuntimeWarning)
    return _assemble(batch, cfg, keep)


def estimate_exact_gradient_fixed_horizon(ansatz: GaussianAnsatz, x0: float,
                                          model: ModelBundle, cfg: SimConfig,
                                          horizon: float, *,
                                          seed: int | None = None, tag: int = 0,
                                          n_paths: int) -> GradientEstimate:
    """Exact gradient for a deterministic horizon (no stopping set).

    With tau = T fixed the dropped boundary terms vanish and the
    explicit-plus-covariance formula is the exact derivative; this path
    exists to validate the shared estimator code against finite differences.
    """
    fixed_steps = _steps_for_horizon(horizon, cfg)
    if fixed_steps is None:
        raise ValueError("horizon is required")
    batch = run_batch(x0, None, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                      basis=ansatz, fixed_steps=fixed_steps)
    return _assemble(batch, cfg, np.ones(batch.n_paths, dtype=bool))


def make_objective(ansatz_template: GaussianAnsatz, x0: float, model: ModelBundle,
                   cfg: SimConfig, *, indices: np.ndarray | None = None,
                   terminal_value=None, n_paths: int):
    """Bind problem data into an `evaluate(coefficients, seed) -> GradientEstimate`.

    With `indices` the returned objective works in the subspace of those
    coefficients: it accepts the reduced vector, holds all other
    coefficients at the template's values, and reports the reduced gradient
    (milestoning shells).
    """
    base = ansatz_template.coefficients.copy()

    def evaluate(a, seed) -> GradientEstimate:
        a = np.asarray(a, dtype=np.float64)
        if indices is None:
            full = a
        else:
            full = base.copy()
            full[indices] = a
        est = estimate_inexact_gradient(
            ansatz_template.with_coefficients(full), x0, model, cfg,
            seed=seed, terminal_value=terminal_value, n_paths=n_paths)
        if indices is None:
            return est
        return GradientEstimate(
            value=est.value, gradient=est.gradient[indices],
            value_stderr=est.value_stderr,
            gradient_stderr=est.gradient_stderr[indices],
            n_paths=est.n_paths, n_censored=est.n_censored,
            mean_steps=est.mean_steps)

    return evaluate
