"""Unbiased reweighted estimators of equilibrium quantities from tilted paths.

Every per-path sample is multiplied by its Girsanov likelihood ratio
w = exp(log dP/dQ), so batch means estimate plain-dynamics expectations from
controlled paths.  Confidence intervals use the normal approximation, and
the effective sample size (sum w)^2 / sum w^2 diagnoses weight degeneracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ansatz import GaussianAnsatz
from .dynamics import CensoredPathError, SimConfig, run_batch
from .model import ModelBundle, constant_observable

ESS_DEGENERACY_FRACTION = 0.01


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    ci95: tuple[float, float]
    n_paths: int
    ess: float
    min_weight: float
    max_weight: float

    @property
    def degenerate(self) -> bool:
        return self.ess < ESS_DEGENERACY_FRACTION * self.n_paths


@dataclass(frozen=True)
class PsiEstimate:
    """Reweighted estimate of psi_sigma with the derived free energy."""

    psi: EstimatorResult
    free_energy: EstimatorResult


def summarize(samples, weights) -> EstimatorResult:
    """Mean of sample*weight with unbiased stderr, 95% CI and ESS."""
    s = np.asarray(samples, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.ndim != 1:
        raise ValueError("samples and weights must be 1D arrays of equal length")
    n = s.size
    if n < 2:
        raise ValueError("need at least two samples")
    prod = s * w
    mean = float(np.mean(prod))
    stderr = float(np.std(prod, ddof=1) / np.sqrt(n))
    ess = float(np.sum(w) ** 2 / np.sum(w * w))
    return EstimatorResult(
        estimate=mean, stderr=stderr,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        n_paths=n, ess=ess,
        min_weight=float(np.min(w)), max_weight=float(np.max(w)))


def _tilted_batch(control, x0, model: ModelBundle, cfg: SimConfig, seed, tag,
                  n_paths):
    if isinstance(control, GaussianAnsatz):
        field = None if np.all(control.coefficients == 0.0) else control.control
    else:
        field = control
    batch = run_batch(x0, field, model, cfg, n_paths=n_paths, seed=seed, tag=tag)
    if batch.n_censored:
        raise CensoredPathError(
            f"{batch.n_censored}/{batch.n_paths} paths did not hit; reweighted "
            "estimates over censored batches are biased")
    return batch


def _check_degeneracy(result: EstimatorResult):
    if result.degenerate:
        warnings.warn(
            f"effective sample size {result.ess:.1f} below "
            f"{ESS_DEGENERACY_FRACTION:.0%} of n={result.n_paths}; the likelihood "
            "ratio is degenerate and the estimate is unreliable", RuntimeWarning)


def estimate_psi_reweighted(control, x0: float, sigma: float, model: ModelBundle,
                            cfg: SimConfig, *, seed: int | None = None, tag: int = 0,
                            n_paths: int) -> PsiEstimate:
    """Estimate psi_sigma(x0) = E[exp(-sigma tau / eps)] from tilted paths.

    control is a GaussianAnsatz or a plain control field x -> c(x); with the
    optimal tilt the per-path product exp(-work/eps) * w is nearly constant.
    Also returns F = -eps log psi with the delta-method standard error.
    """
    bundle = ModelBundle(model.potential, constant_observable(sigma),
                         model.stopping_set, model.domain)
    batch = _tilted_batch(control, x0, bundle, cfg, seed, tag, n_paths)
    w = np.exp(batch.log_lr_p_over_q)
    samples = np.exp(-batch.work / cfg.epsilon)
    psi = summarize(samples, w)
    _check_degeneracy(psi)

    f_mean = -cfg.epsilon * np.log(psi.estimate)
    f_stderr = cfg.epsilon * psi.stderr / psi.estimate
    free_energy = EstimatorResult(
        estimate=float(f_mean), stderr=float(f_stderr),
        ci95=(float(f_mean - 1.96 * f_stderr), float(f_mean + 1.96 * f_stderr)),
        n_paths=psi.n_paths, ess=psi.ess,
        min_weight=psi.min_weight, max_weight=psi.max_weight)
    return PsiEstimate(psi=psi, free_energy=free_energy)


def estimate_mfpt_reweighted(control, x0: float, model: ModelBundle, cfg: SimConfig,
                             *, seed: int | None = None, tag: int = 0,
                             n_paths: int) -> EstimatorResult:
    """Estimate E[tau] under the plain dynamics from tilted paths.

    tau-hat is the batch mean of (h * N_tau) * w.  Degenerate case: x0 on the
    stopping boundary returns 0 exactly.
    """
    if bool(model.stopping_set.contains(x0)):
        return EstimatorResult(estimate=0.0, stderr=0.0, ci95=(0.0, 0.0), n_paths=n_paths,
                               ess=float(n_paths), min_weight=1.0, max_weight=1.0)
    batch = _tilted_batch(control, x0, model, cfg, seed, tag, n_paths)
    w = np.exp(batch.log_lr_p_over_q)
    result = summarize(cfg.h * batch.n_steps, w)
    _check_degeneracy(result)
    return result
