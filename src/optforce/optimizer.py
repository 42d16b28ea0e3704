"""Gradient descent with a Wolfe line search over the stochastic objective.

Within one iteration every probe of the line search reuses one fixed batch
of noise streams (common random numbers), so the Wolfe conditions are
checked on a deterministic restriction of the objective.  Across iterations
fresh streams are drawn by default, which avoids overfitting a single noise
realization.

The next iterate's batch runs ahead on an idle CPU.  A step the line search
accepts is its last probe b = a + t d, and the next iterate a - alpha g is b
bit for bit, so its batch is objective(b, next seed).  Where the objective
offers `ahead` (make_objective's), every probe first starts that batch in a
forked child, which replaces the previous probe's; the next iterate's batch
then joins the child of the accepted probe.  Once a probe's batch fails,
the iteration starts nothing more ahead: a line search whose probes all fail
would fork one child per probe, each killed by the next.  The join happens
inside dynamics.run_batch, so every batch is still one run_batch call with
the same paths and loop count, and traced counts do not change.  Under
reseed_policy "fixed" the next iterate's batch is the accepted probe's own,
so its estimate is reused and nothing runs ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import PathFailure, drop_ahead
from .objective import GradientEstimate


# the first line-search trial never moves farther than this in coefficient
# space; steep early gradients would otherwise probe pathological controls
MAX_FIRST_STEP = 1.0

RESEED_STRIDE = 1_000_003


class OptimizerError(RuntimeError):
    """Descent aborted."""


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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (0.0 < self.wolfe_c1 < self.wolfe_c2 < 1.0):
            raise ValueError(f"need 0 < wolfe_c1 < wolfe_c2 < 1, got wolfe_c1="
                             f"{self.wolfe_c1}, wolfe_c2={self.wolfe_c2}")
        for name, alpha in (("alpha_init", self.alpha_init), ("alpha_max", self.alpha_max)):
            if alpha <= 0:
                raise ValueError(f"{name} must be positive, got {alpha}")
        if self.reseed_policy not in ("fresh", "fixed"):
            raise ValueError(f"unknown reseed policy {self.reseed_policy!r}")

    def stop_level(self, grad_stderr_norm: float) -> float:
        """Gradient norm max(grad_tol, 2 * its stderr norm) below which descent stops."""
        return max(self.grad_tol, 2.0 * grad_stderr_norm)

    def iteration_seed(self, seed: int, it: int) -> int:
        """Seed of every batch in iteration it: fresh per iteration unless "fixed"."""
        return seed if self.reseed_policy == "fixed" else seed + RESEED_STRIDE * (it + 1)


@dataclass
class DescentRecord:
    iteration: int
    cost: float
    cost_stderr: float
    grad_norm: float
    grad_stderr_norm: float
    alpha: float
    mean_steps: float
    line_search_fallback: bool = False
    probes: int = 0                     # line-search objective evaluations


@dataclass
class DescentTrace:
    records: list[DescentRecord] = field(default_factory=list)
    converged: bool = False
    returned: int = 0       # the record (its iteration) whose iterate descend returned

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


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    value: float
    n_evals: int
    fallback: bool


def wolfe_line_search(a: np.ndarray, direction: np.ndarray, evaluate, *,
                      value0: float, grad0: np.ndarray,
                      c1: float = 1e-4, c2: float = 0.9,
                      alpha_init: float = 1.0, alpha_max: float = 10.0,
                      max_first_step: float | None = None) -> LineSearchResult:
    """Strong-Wolfe step on the fixed-random-number restriction phi(t) = f(a + t d).

    evaluate(b) must return an object with .value and .gradient computed with
    the same noise realization for every probe.  Falls back to plain Armijo
    backtracking after 20 zoom steps, and to alpha_init/10 (flagged)
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
        return est.value, float(np.dot(est.gradient, d))

    def armijo(t, val):
        return val <= phi0 + c1 * t * dphi0

    def zoom(t_lo, phi_lo, t_hi):
        for _ in range(20):
            t = 0.5 * (t_lo + t_hi)
            val, slope = probe(t)
            if not armijo(t, val) or val >= phi_lo:
                t_hi = t
            else:
                if abs(slope) <= -c2 * dphi0:
                    return LineSearchResult(t, val, evals, False)
                if slope * (t_hi - t_lo) >= 0.0:
                    t_hi = t_lo
                t_lo, phi_lo = t, val
        return None

    t_prev, phi_prev = 0.0, phi0
    t = min(alpha_init, alpha_max)
    for it in range(12):
        val, slope = probe(t)
        if not armijo(t, val) or (it > 0 and val >= phi_prev):
            res = zoom(t_prev, phi_prev, t)
            if res is not None:
                return res
            break
        if abs(slope) <= -c2 * dphi0:
            return LineSearchResult(t, val, evals, False)
        if slope >= 0.0:
            res = zoom(t, val, t_prev)
            if res is not None:
                return res
            break
        if t >= alpha_max:
            # curvature never turned on [0, alpha_max]; the cap is the best step
            return LineSearchResult(t, val, evals, False)
        t_prev, phi_prev = t, val
        t = min(2.0 * t, alpha_max)

    # Armijo-only backtracking
    t = min(alpha_init, alpha_max)
    for _ in range(20):
        val, _ = probe(t)
        if armijo(t, val):
            return LineSearchResult(t, val, evals, False)
        t *= 0.5
    return LineSearchResult(alpha_init / 10.0, phi0, evals, True)


def descend(a0: np.ndarray, cfg: DescentConfig, objective, *, seed: int):
    """Iterate a_{i+1} = a_i - alpha_i grad I(a_i) until the gradient is noise-level.

    objective(a, seed) -> GradientEstimate; one seed is used for all probes
    within an iteration.  Terminates when the gradient norm drops below
    cfg.stop_level or after max_iters; returns the best-seen coefficients by
    cost value together with the trace, whose `returned` names their record.
    A line-search probe whose batch raises a PathFailure (a censored path, a
    non-finite update or a path leaving an abort domain) is rejected; an
    iterate's batch that does raises, and an iterate's non-finite gradient
    estimate raises OptimizerError.

    An objective with an `ahead(b, seed)` method gets it called at each
    probe b before objective(b, seed), with the next iteration's seed, except
    in the last iteration, when both seeds are equal and after a probe of
    the iteration was rejected.  The child it starts is killed and reaped
    once its probe is rejected, and before descend returns or raises.
    """
    a = np.asarray(a0, dtype=np.float64).copy()
    if not np.all(np.isfinite(a)):
        raise OptimizerError("initial coefficients are not finite")
    trace = DescentTrace()
    best_a, best_cost = a.copy(), np.inf

    failed = GradientEstimate(value=np.inf, gradient=np.zeros_like(a),
                              value_stderr=np.inf,
                              gradient_stderr=np.full_like(a, np.inf),
                              n_paths=0, mean_steps=0.0)
    ahead = getattr(objective, "ahead", None)
    est = None
    try:
        for it in range(cfg.max_iters):
            it_seed = cfg.iteration_seed(seed, it)
            next_seed = cfg.iteration_seed(seed, it + 1)
            run_ahead = ahead is not None and it + 1 < cfg.max_iters and next_seed != it_seed
            if est is None:
                est = objective(a, it_seed)
            if not np.all(np.isfinite(est.gradient)):
                raise OptimizerError(f"gradient estimate is non-finite at iteration {it}")
            last_b, last_est = None, failed

            def probe(b):
                nonlocal last_b, last_est, run_ahead
                if run_ahead:
                    ahead(b, next_seed)
                last_b, last_est = b, failed
                # a pathological probe (runaway control) must never be accepted,
                # and after one no probe starts the next iterate ahead
                try:
                    last_est = objective(b, it_seed)
                except PathFailure:
                    run_ahead = False
                    drop_ahead()
                return last_est

            alpha = 0.0
            fallback = False
            probes = 0
            done = est.grad_norm < cfg.stop_level(est.grad_stderr_norm)
            if not done:
                ls = wolfe_line_search(
                    a, -est.gradient, probe,
                    value0=est.value, grad0=est.gradient,
                    c1=cfg.wolfe_c1, c2=cfg.wolfe_c2,
                    alpha_init=cfg.alpha_init, alpha_max=cfg.alpha_max,
                    max_first_step=MAX_FIRST_STEP)
                alpha = ls.alpha
                fallback = ls.fallback
                probes = ls.n_evals

            trace.append(DescentRecord(
                iteration=it, cost=est.value,
                cost_stderr=est.value_stderr, grad_norm=est.grad_norm,
                grad_stderr_norm=est.grad_stderr_norm, alpha=alpha,
                mean_steps=est.mean_steps, line_search_fallback=fallback, probes=probes))
            if est.value < best_cost:
                best_cost, best_a, trace.returned = est.value, a.copy(), it
            if done:
                trace.converged = True
                break

            a = a - alpha * est.gradient
            if not np.all(np.isfinite(a)):
                raise OptimizerError(f"coefficients became non-finite at iteration {it}")
            est = None
            if last_b is not None and last_b.tobytes() == a.tobytes():
                # the step is the last probe's, bit for bit: under equal seeds
                # the next iterate's batch is that probe's own, else the one
                # the probe started ahead
                if next_seed == it_seed and last_est is not failed:
                    est = last_est
            else:
                drop_ahead()
    finally:
        drop_ahead()
    return best_a, trace
