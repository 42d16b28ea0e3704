"""Euler-Maruyama simulation of the controlled overdamped dynamics.

The controlled update is

    x_{k+1} = x_k + h (sqrt(2) c(x_k) - V'(x_k)) + sqrt(2 h eps) eta_{k+1}

with i.i.d. standard normal eta.  Along each path we accumulate the work
h * sum f(x_k), the quadratic control cost h * sum |c(x_k)|^2 / 2, and the
log likelihood ratio of the uncontrolled versus the controlled path measure

    log dP/dQ = sum_k [ -sqrt(h/eps) c(x_k) eta_{k+1} - (h/(2 eps)) |c(x_k)|^2 ],

which is the algebraic expansion of the discrete action difference
S_h(path; c) - S_h(path; 0) in terms of the driving noises.  The increment
satisfies E[exp(increment)] = 1 exactly, step by step, so reweighting by
exp(log dP/dQ) is unbiased for the discrete chain (including reflective
folding at the domain edges).

Per-path noise streams are derived from (seed, tag, path index) through a
counter-based generator and consumed in fixed-size blocks, so a path sees
the same noise however paths are grouped.  Its controlled statistics can
still differ in the last bits with the grouping (see KERNEL_CHUNK), so
batches are reproducible for a given n_paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelBundle, SimulationDomain, OutOfDomainError

SQRT2 = np.sqrt(2.0)

# per-path noise streams are consumed in blocks of this many normals
NOISE_BLOCK = 512

# paths per kernel chunk.  The controlled update evaluates c = bmat @ coeffs
# (BLAS gemv) over the live lanes, and gemv rounds a row differently
# depending on how many rows are live, so changing the width changes the
# last bits of controlled batches and with them every recorded output.
KERNEL_CHUNK = 1024


class NumericalFailureError(RuntimeError):
    """The update produced a non-finite state; carries the offending data."""

    def __init__(self, message, x=None, step=None):
        super().__init__(message)
        self.x = x
        self.step = step


class CensoredPathError(RuntimeError):
    """A path reached max_steps without hitting the stopping set."""


@dataclass(frozen=True)
class SimConfig:
    """Temperature, step size, step cap and seed for the simulator."""

    epsilon: float
    h: float
    max_steps: int = 10_000_000
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0 or self.h <= 0:
            raise ValueError("epsilon and h must be strictly positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative 64-bit integer")


def path_stream(seed: int, path_index: int, tag: int = 0) -> np.random.Generator:
    """Counter-based per-path RNG stream for (seed, tag, path_index)."""
    bits = np.random.Philox(key=np.array([seed, tag], dtype=np.uint64))
    return np.random.Generator(bits.jumped(path_index))


def _reflect(x, domain: SimulationDomain):
    """Fold positions back into [lo, hi] (exact for arbitrary excursions)."""
    lo, hi = domain.lo, domain.hi
    width = hi - lo
    y = np.mod(x - lo, 2.0 * width)
    return lo + np.minimum(y, 2.0 * width - y)


# ---------------------------------------------------------------------------
# vectorized batches
# ---------------------------------------------------------------------------

@dataclass
class BatchResult:
    """Per-path statistics of a batch, in path-index order."""

    n_steps: np.ndarray
    hit: np.ndarray
    work: np.ndarray
    control_cost: np.ndarray
    log_lr_p_over_q: np.ndarray
    final_x: np.ndarray
    terminal: np.ndarray | None = None
    sum_cb: np.ndarray | None = None        # sum_k c(x_k) b_j(x_k), per basis j
    sum_eta_b: np.ndarray | None = None     # sum_k eta_{k+1} b_j(x_k), per basis j

    @property
    def n_paths(self) -> int:
        return self.n_steps.size

    @property
    def n_censored(self) -> int:
        return int(np.sum(~self.hit))

    @property
    def mean_steps(self) -> float:
        return float(np.mean(self.n_steps))

    def cost_per_path(self) -> np.ndarray:
        """work + control cost (+ terminal value) per path."""
        total = self.work + self.control_cost
        if self.terminal is not None:
            total = total + self.terminal
        return total


def _run_chunk(x0, control, basis, model: ModelBundle, cfg: SimConfig,
               n_paths, seed, tag, path_offset, fixed_steps, terminal_value):
    h, eps = cfg.h, cfg.epsilon
    lr_eta = np.sqrt(h / eps)
    lr_quad = h / (2.0 * eps)
    noise_amp = np.sqrt(2.0 * h * eps)
    p = model.potential
    f = model.observable
    s = model.stopping_set
    domain = model.domain
    reflect = domain.boundary == "reflect"
    m = basis.m if basis is not None else 0
    limit = fixed_steps if fixed_steps is not None else cfg.max_steps
    f_const = f.sigma if f.kind == "constant" else None
    coeffs = basis.coefficients if basis is not None else None

    # outputs, in path-index order
    out_steps = np.zeros(n_paths, dtype=np.int64)
    out_hit = np.zeros(n_paths, dtype=bool)
    out_work = np.zeros(n_paths)
    out_cc = np.zeros(n_paths)
    out_llr = np.zeros(n_paths)
    out_x = np.full(n_paths, float(x0))
    out_term = np.zeros(n_paths) if terminal_value is not None else None
    out_cb = np.zeros((n_paths, m)) if basis is not None else None
    out_eb = np.zeros((n_paths, m)) if basis is not None else None

    # dense working arrays over still-active paths; idx maps rows to outputs
    idx = np.arange(n_paths)
    x = np.full(n_paths, float(x0))
    work = np.zeros(n_paths)
    ccost = np.zeros(n_paths)
    log_lr = np.zeros(n_paths)
    sum_cb = np.zeros((n_paths, m)) if basis is not None else None
    sum_eta_b = np.zeros((n_paths, m)) if basis is not None else None
    gens = [path_stream(seed, path_offset + i, tag) for i in range(n_paths)]
    blocks = np.empty((n_paths, NOISE_BLOCK))
    for i, g in enumerate(gens):
        blocks[i] = g.standard_normal(NOISE_BLOCK)

    def retire(rows, did_hit):
        slots = idx[rows]
        out_steps[slots] = step
        out_hit[slots] = did_hit
        out_work[slots] = work[rows]
        out_cc[slots] = ccost[rows]
        out_llr[slots] = log_lr[rows]
        out_x[slots] = x[rows]
        if did_hit and terminal_value is not None:
            out_term[slots] = terminal_value(x[rows])
        if basis is not None:
            out_cb[slots] = sum_cb[rows]
            out_eb[slots] = sum_eta_b[rows]

    pos = 0
    step = 0
    while idx.size and step < limit:
        if pos == NOISE_BLOCK:
            for i, g in enumerate(gens):
                blocks[i] = g.standard_normal(NOISE_BLOCK)
            pos = 0
        eta = blocks[:, pos]
        pos += 1

        if basis is not None:
            bmat = basis.basis_controls(x)
            c = bmat @ coeffs
            sum_cb += c[:, None] * bmat
            sum_eta_b += eta[:, None] * bmat
        elif control is not None:
            c = np.asarray(control(x), dtype=np.float64)
        else:
            c = None

        work += h * f_const if f_const is not None \
            else h * np.asarray(f.evaluate(x), dtype=np.float64)
        if c is not None:
            c2 = c * c
            ccost += (0.5 * h) * c2
            log_lr -= lr_eta * c * eta + lr_quad * c2
            x = x + h * (SQRT2 * c - np.asarray(p.gradient(x), dtype=np.float64)) + noise_amp * eta
        else:
            x = x - h * np.asarray(p.gradient(x), dtype=np.float64) + noise_amp * eta
        if not np.all(np.isfinite(x)):
            bad = idx[~np.isfinite(x)]
            raise NumericalFailureError(
                f"non-finite update for paths {bad.tolist()} at step {step}",
                x=x[~np.isfinite(x)], step=step)
        if reflect:
            x = _reflect(x, domain)
        elif not np.all(domain.contains(x)):
            raise OutOfDomainError("a path left the domain with abort boundary")
        step += 1

        if fixed_steps is None:
            inside = s.contains(x)
            if np.any(inside):
                retire(inside, True)
                keep = ~inside
                idx = idx[keep]
                x = x[keep]
                work = work[keep]
                ccost = ccost[keep]
                log_lr = log_lr[keep]
                blocks = blocks[keep]
                gens = [g for g, k in zip(gens, keep) if k]
                if basis is not None:
                    sum_cb = sum_cb[keep]
                    sum_eta_b = sum_eta_b[keep]

    if idx.size:
        retire(np.ones(idx.size, dtype=bool), fixed_steps is not None)
    return BatchResult(n_steps=out_steps, hit=out_hit, work=out_work,
                       control_cost=out_cc, log_lr_p_over_q=out_llr, final_x=out_x,
                       terminal=out_term, sum_cb=out_cb, sum_eta_b=out_eb)


def run_batch(x0: float, control, model: ModelBundle, cfg: SimConfig, *,
              n_paths: int, seed: int | None = None, tag: int = 0,
              basis=None, fixed_steps: int | None = None,
              terminal_value=None) -> BatchResult:
    """Simulate n_paths controlled paths and reduce their statistics.

    Parameters
    ----------
    control : callable x -> c(x), or None for plain dynamics.  Ignored when
        `basis` is given.
    basis : GaussianAnsatz whose control field drives the paths; per-basis
        gradient accumulators (sum_cb, sum_eta_b) are collected.
    fixed_steps : run exactly this many steps with no stopping test
        (deterministic horizon); otherwise run to the first entry into the
        stopping set, capped at cfg.max_steps.
    terminal_value : callable evaluated at the hitting point and added to the
        per-path cost (milestoning inner-boundary values).

    Path i always consumes the stream (seed, tag, i).  Paths run in chunks of
    KERNEL_CHUNK, one after another; a chunk's results do not depend on the
    paths after it, but a controlled path's last bits depend on which other
    paths share its chunk.
    """
    if fixed_steps is None and bool(model.stopping_set.contains(x0)):
        raise ValueError(f"x0={x0} already inside the stopping set")
    seed = cfg.seed if seed is None else seed

    parts = [_run_chunk(x0, control, basis, model, cfg, min(KERNEL_CHUNK, n_paths - lo),
                        seed, tag, lo, fixed_steps, terminal_value)
             for lo in range(0, n_paths, KERNEL_CHUNK)]
    if len(parts) == 1:
        return parts[0]

    def cat(name):
        vals = [getattr(part, name) for part in parts]
        return None if vals[0] is None else np.concatenate(vals)

    return BatchResult(n_steps=cat("n_steps"), hit=cat("hit"), work=cat("work"),
                       control_cost=cat("control_cost"),
                       log_lr_p_over_q=cat("log_lr_p_over_q"), final_x=cat("final_x"),
                       terminal=cat("terminal"), sum_cb=cat("sum_cb"),
                       sum_eta_b=cat("sum_eta_b"))
