"""Monte-Carlo estimates of the control cost functional and its gradient.

The semi-discrete cost is

    I_h(a) = E_Q[ sum_{k < N_tau} h ( sigma + |c(x_k)|^2 / 2 ) ]

with the model's running cost sigma, c = sum_j a_j b_j and Q the path
measure of the controlled chain.  Its derivative splits into an explicit
term and a score (measure) term,

    dI_h/da_j = E[ h sum_k c(x_k) b_j(x_k) ]
              + sqrt(h/eps) Cov( G, sum_k eta_{k+1} b_j(x_k) ),

where G is the accumulated per-path cost.  For a deterministic horizon this
is exact.  With a random hitting time the optimizer uses the same formula,
which drops the boundary term: the derivative of N_tau with respect to the
coefficients, the change in cost from paths whose hitting step moves.  At
the learned headline ansatz (h = 2e-3, 32,768 paths) this estimate matched
the Euler chain's exact gradient, from a transfer-operator solve, within 1.1
stderr on all 10 components (ROADMAP.md item 10), so the dropped term does
not show at that resolution.  The covariance uses the mean-subtracted
second factor with the unbiased (n-1) normalization; both factors'
product-mean form has the same expectation but more variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import GaussianAnsatz
from .dynamics import BatchResult, SimConfig, run_batch, run_batch_ahead
from .estimators import mean_stderr
from .model import ModelBundle


@dataclass(frozen=True)
class GradientEstimate:
    """Batch estimate of the cost value and its coefficient gradient."""

    value: float
    gradient: np.ndarray
    value_stderr: float
    gradient_stderr: np.ndarray
    n_paths: int
    mean_steps: float

    @property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.gradient))

    @property
    def grad_stderr_norm(self) -> float:
        return float(np.linalg.norm(self.gradient_stderr))


def estimate_cost(forcings: list[GaussianAnsatz], x0: float, model: ModelBundle,
                  cfg: SimConfig, *, seed: int, tag: int = 0,
                  fixed_steps: int | None = None, n_paths: int) -> list[tuple[float, float]]:
    """Batch mean and standard error of the per-path cost under each forcing's tilt.

    The forcings, with equal centers and widths, run as one batch on common
    random numbers, each forcing's paths on the streams (seed, tag,
    0..n_paths-1) and with the bits each would get alone
    (dynamics.run_batch); the result is one (mean, stderr) per forcing.

    fixed_steps runs every path exactly that many steps (run_batch); without
    it, a path that does not hit within cfg.max_steps makes run_batch raise
    CensoredPathError: a mean over the paths that did hit would be biased.
    """
    batch = run_batch(x0, forcings, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                      fixed_steps=fixed_steps)
    return [mean_stderr(part)
            for part in batch.cost_per_path().reshape(len(forcings), n_paths)]


def _assemble(batch: BatchResult, cfg: SimConfig) -> GradientEstimate:
    h, eps = cfg.h, cfg.epsilon
    cost = batch.cost_per_path()
    u = batch.sum_cb * h                      # explicit term, per path
    v = batch.sum_eta_b * np.sqrt(h / eps)    # minus the action derivative
    n = cost.size
    if n < 2:
        raise ValueError("need at least two paths for an estimate")
    dc = cost - cost.mean()
    dv = v - v.mean(axis=0)
    grad = u.mean(axis=0) + (dc @ dv) / (n - 1)
    # per-path influence values for the standard error
    infl = u + dc[:, None] * dv
    grad_se = np.std(infl, axis=0, ddof=1) / np.sqrt(n)
    value, value_stderr = mean_stderr(cost)
    return GradientEstimate(
        value=value,
        gradient=grad,
        value_stderr=value_stderr,
        gradient_stderr=grad_se,
        n_paths=batch.n_paths,
        mean_steps=batch.mean_steps,
    )


def estimate_inexact_gradient(ansatz: GaussianAnsatz, x0: float, model: ModelBundle,
                              cfg: SimConfig, *, seed: int, tag: int = 0,
                              terminal_value=None, n_paths: int) -> GradientEstimate:
    """Random-stopping-time gradient estimate (boundary terms dropped).

    A path that does not hit within cfg.max_steps makes run_batch raise
    CensoredPathError, as for estimate_cost.
    """
    batch = run_batch(x0, ansatz, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                      terminal_value=terminal_value, scores=True)
    return _assemble(batch, cfg)


def estimate_exact_gradient_fixed_horizon(ansatz: GaussianAnsatz, x0: float,
                                          model: ModelBundle, cfg: SimConfig,
                                          fixed_steps: int, *, seed: int, tag: int = 0,
                                          n_paths: int) -> GradientEstimate:
    """Exact gradient for a deterministic horizon of fixed_steps steps (no stopping set).

    With tau = T fixed the dropped boundary terms vanish and the
    explicit-plus-covariance formula is the exact derivative; this path
    exists to validate the shared estimator code against finite differences.
    """
    batch = run_batch(x0, ansatz, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                      fixed_steps=fixed_steps, scores=True)
    return _assemble(batch, cfg)


def make_objective(ansatz_template: GaussianAnsatz, x0: float, model: ModelBundle,
                   cfg: SimConfig, *, indices: np.ndarray, terminal_value=None,
                   n_paths: int):
    """Bind problem data into an `evaluate(coefficients, seed) -> GradientEstimate`.

    The objective works in the subspace of the coefficients at `indices`: it
    accepts the reduced vector, holds all other coefficients at the
    template's values, and reports the reduced gradient.  A plain descent
    passes every index.  `evaluate.ahead(coefficients, seed)` starts the
    batch evaluate(coefficients, seed) runs in a forked child
    (dynamics.run_batch_ahead), so that call joins it instead of simulating.
    """
    base = ansatz_template.coefficients.copy()

    def ansatz_at(a) -> GaussianAnsatz:
        full = base.copy()
        full[indices] = a
        return ansatz_template.with_coefficients(full)

    def evaluate(a, seed) -> GradientEstimate:
        est = estimate_inexact_gradient(
            ansatz_at(a), x0, model, cfg,
            seed=seed, terminal_value=terminal_value, n_paths=n_paths)
        return replace(est, gradient=est.gradient[indices],
                       gradient_stderr=est.gradient_stderr[indices])

    def ahead(a, seed) -> bool:
        # the batch estimate_inexact_gradient runs for evaluate(a, seed)
        return run_batch_ahead(x0, ansatz_at(a), model, cfg, n_paths=n_paths, seed=seed,
                               terminal_value=terminal_value, scores=True)

    evaluate.ahead = ahead
    return evaluate
