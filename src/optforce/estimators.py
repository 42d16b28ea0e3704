"""Unbiased reweighted estimators of equilibrium quantities from tilted paths.

Every per-path sample is multiplied by its Girsanov likelihood ratio
w = exp(log dP/dQ), so batch means estimate plain-dynamics expectations from
controlled paths.  `mean_stderr` alone computes a sample mean and its
standard error, here and in `objective`, and `EstimatorResult.ci95` alone
the normal-approximation 95% interval.  The effective sample size
(sum w)^2 / sum w^2 diagnoses weight degeneracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import SimConfig, run_batch
from .model import ModelBundle

ESS_DEGENERACY_FRACTION = 0.01


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    stderr: float
    n_paths: int
    ess: float

    @property
    def ci95(self) -> tuple[float, float]:
        """The normal-approximation 95% interval of the estimate."""
        half = 1.96 * self.stderr
        return (self.estimate - half, self.estimate + half)

    @property
    def degenerate(self) -> bool:
        return self.ess < ESS_DEGENERACY_FRACTION * self.n_paths


@dataclass(frozen=True)
class PsiEstimate:
    """Reweighted estimate of psi_sigma with the derived free energy."""

    psi: EstimatorResult
    free_energy: EstimatorResult


def mean_stderr(x: np.ndarray) -> tuple[float, float]:
    """Mean of the 1D sample x and its standard error (unbiased n - 1 variance)."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(x.size))


def summarize(samples, weights) -> EstimatorResult:
    """Mean of sample*weight with unbiased stderr, 95% CI and ESS."""
    s = np.asarray(samples, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if s.shape != w.shape or s.ndim != 1:
        raise ValueError("samples and weights must be 1D arrays of equal length")
    n = s.size
    if n < 2:
        raise ValueError("need at least two samples")
    mean, stderr = mean_stderr(s * w)
    ess = float(np.sum(w) ** 2 / np.sum(w * w))
    return EstimatorResult(estimate=mean, stderr=stderr, n_paths=n, ess=ess)


def _check_degeneracy(result: EstimatorResult):
    if result.degenerate:
        warnings.warn(
            f"effective sample size {result.ess:.1f} below "
            f"{ESS_DEGENERACY_FRACTION:.0%} of n={result.n_paths}; the likelihood "
            "ratio is degenerate and the estimate is unreliable", RuntimeWarning)


def estimate_psi_reweighted(control, x0: float, model: ModelBundle, cfg: SimConfig,
                            *, seed: int, tag: int = 0, n_paths: int) -> PsiEstimate:
    """Estimate psi_sigma(x0) = E[exp(-sigma tau / eps)] at the model's sigma.

    control is the GaussianAnsatz that tilts the paths, or None; with the
    optimal tilt the per-path product exp(-work/eps) * w is nearly constant.
    Also returns F = -eps log psi with the delta-method standard error.
    """
    batch = run_batch(x0, control, model, cfg, n_paths=n_paths, seed=seed, tag=tag)
    w = np.exp(batch.log_lr_p_over_q)
    samples = np.exp(-batch.work / cfg.epsilon)
    psi = summarize(samples, w)
    _check_degeneracy(psi)

    free_energy = EstimatorResult(
        estimate=float(-cfg.epsilon * np.log(psi.estimate)),
        stderr=float(cfg.epsilon * psi.stderr / psi.estimate),
        n_paths=psi.n_paths, ess=psi.ess)
    return PsiEstimate(psi=psi, free_energy=free_energy)


def estimate_mfpt_reweighted(control, x0: float, model: ModelBundle, cfg: SimConfig,
                             *, seed: int, tag: int = 0,
                             n_paths: int) -> EstimatorResult:
    """The batch mean of (h * N_tau) * w, which estimates E[tau] under the
    plain dynamics; control is a GaussianAnsatz or None.

    No stage calls it.  Under a forcing learned for psi_sigma it does not
    recover the plain MFPT: at the headline run with the learned forcing it
    returned 0.02 +/- 0.00 against the PDE's 94.0, with weight-ESS 92 of 2000
    and no degeneracy warning, because those forced paths never sample the
    long excursions that make up E[tau].  The plain MFPT comes from
    estimate_mfpt_forced(None, ...).
    """
    batch = run_batch(x0, control, model, cfg, n_paths=n_paths, seed=seed, tag=tag)
    w = np.exp(batch.log_lr_p_over_q)
    result = summarize(cfg.h * batch.n_steps, w)
    _check_degeneracy(result)
    return result


def estimate_mfpt_forced(control, x0: float, model: ModelBundle, cfg: SimConfig, *,
                         seed: int, tag: int = 0, n_paths: int) -> EstimatorResult:
    """Estimate E[tau] under the forced dynamics themselves (unit weights).

    With an ansatz F as control these are the plain dynamics on the tilted
    landscape V + 2F: x + h (sqrt(2) c - V') rounds as x - h (V' - sqrt(2) c).
    """
    batch = run_batch(x0, control, model, cfg, n_paths=n_paths, seed=seed, tag=tag)
    return summarize(cfg.h * batch.n_steps, np.ones(batch.n_paths))
