"""Euler-Maruyama simulation of the controlled overdamped dynamics.

The controlled update is

    x_{k+1} = x_k + h (sqrt(2) c(x_k) - V'(x_k)) + sqrt(2 h eps) eta_{k+1}

with i.i.d. standard normal eta.  The forcing c = -sqrt(2) grad F comes from
a GaussianAnsatz F, or is zero (control None) for the plain dynamics.  Along
each path we accumulate the work h * sigma per step (sigma is the model's
constant running cost), the quadratic control cost h * sum |c(x_k)|^2 / 2,
and the log likelihood ratio of the uncontrolled versus the controlled path
measure

    log dP/dQ = sum_k [ -sqrt(h/eps) c(x_k) eta_{k+1} - (h/(2 eps)) |c(x_k)|^2 ],

which is the algebraic expansion of the discrete action difference
S_h(path; c) - S_h(path; 0) in terms of the driving noises.  The increment
satisfies E[exp(increment)] = 1 exactly, step by step, so reweighting by
exp(log dP/dQ) is unbiased for the discrete chain (including reflective
folding at the domain edges).

Per-path noise streams are derived from (seed, tag, path index) through a
counter-based generator and consumed in fixed-size blocks, so a path sees
the same noise however paths are grouped and whatever the block size.
Every batch takes its seed from its caller, and run_batch checks that the
seed fits the generator's 64-bit key word.  A batch runs all its paths in
one loop.  The control c = bmat @ coefficients (BLAS gemv) and the terminal
values are evaluated per segment of KERNEL_CHUNK path indices, because gemv
rounds the last n % 4 rows of an n-row product in another kernel than the
first n - n % 4, which round the same whatever n; batches are reproducible
for a given n_paths.

A path that enters the stopping set retires on that step.  Retirement
compacts the per-row arrays (positions, costs, log likelihood ratios, score
accumulators, path indices), because gemv must see exactly the live rows of
each segment for its tail rows to round as before.  It compacts neither the
noise blocks, which the live rows read through a row map until the next
refill, nor the list of streams, which is indexed by path index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelBundle, SimulationDomain, OutOfDomainError

SQRT2 = np.sqrt(2.0)

# per-path noise streams are consumed in blocks of this many normals; the
# draws do not depend on it, the working set (n_paths x NOISE_BLOCK) does
NOISE_BLOCK = 128

# path indices per segment.  The controlled update evaluates c = bmat @ coeffs
# (BLAS gemv) once per segment of live rows, and so does terminal_value.  On
# OpenBLAS an (n, m) @ (m,) gemv rounds its first n - n % 4 rows the same
# whatever n and the row order, but its last n % 4 rows in another kernel,
# which changes the last bits of about a third of them (random data).  Evaluating each
# segment on its own keeps every row in the company it had when paths ran in
# chunks of this width; changing it changes the last bits of controlled
# batches and with them every recorded output.
KERNEL_CHUNK = 1024


class NumericalFailureError(RuntimeError):
    """The update produced a non-finite state."""


class CensoredPathError(RuntimeError):
    """A path reached max_steps without hitting the stopping set.

    Every estimate is an expectation up to the hitting time, which a censored
    path does not have, so run_batch raises this rather than return the batch.
    """


# a seed is one uint64 word of a path stream's Philox key
MAX_SEED = 2 ** 64 - 1


@dataclass(frozen=True)
class SimConfig:
    """Temperature, step size and step cap for the simulator."""

    epsilon: float
    h: float
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.epsilon <= 0 or self.h <= 0:
            raise ValueError("epsilon and h must be strictly positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


def path_stream(seed: int, path_index: int, tag: int = 0) -> np.random.Generator:
    """Counter-based per-path RNG stream for (seed, tag, path_index).

    This is the definition of a stream.  run_batch does not build one per
    path: it resets pooled bit generators to the state this one starts in
    (same counter and key, empty buffer), which draws the same numbers.
    """
    # the counter Philox(key).jumped(path_index) starts from, set directly
    return np.random.Generator(np.random.Philox(
        counter=[0, 0, path_index, 0], key=np.array([seed, tag], dtype=np.uint64)))


# Generators that finished batches handed back.  Setting a Philox's full
# state costs a fraction of building one, which also draws OS entropy for a
# seed sequence it never uses.  A batch takes generators out of the pool and
# puts them back when its loop ends, so a batch started inside another (from
# a terminal_value) never shares one; a batch that raises just drops its own.
_idle_streams: list[np.random.Generator] = []


def _take_streams(seed: int, tag: int, n: int) -> list[np.random.Generator]:
    """Generators on the streams (seed, tag, 0), ..., (seed, tag, n - 1)."""
    reuse = _idle_streams[max(len(_idle_streams) - n, 0):]
    del _idle_streams[len(_idle_streams) - len(reuse):]
    counter = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": np.array([seed, tag], dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, g in enumerate(reuse):
        counter[2] = i      # path_stream's counter [0, 0, i, 0]
        g.bit_generator.state = state
    return reuse + [path_stream(seed, i, tag) for i in range(len(reuse), n)]


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
    hit: np.ndarray       # all True: every path hit, or ran its fixed horizon
    work: np.ndarray
    control_cost: np.ndarray
    log_lr_p_over_q: np.ndarray
    final_x: np.ndarray
    terminal: np.ndarray | None = None
    sum_cb: np.ndarray | None = None        # sum_k c(x_k) b_j(x_k), per basis j
    sum_eta_b: np.ndarray | None = None     # sum_k eta_{k+1} b_j(x_k), per basis j
    loop_iters: int = 0                     # iterations of the kernel's step loop

    @property
    def n_paths(self) -> int:
        return self.n_steps.size

    @property
    def mean_steps(self) -> float:
        return float(np.mean(self.n_steps))

    def cost_per_path(self) -> np.ndarray:
        """work + control cost (+ terminal value) per path."""
        total = self.work + self.control_cost
        if self.terminal is not None:
            total = total + self.terminal
        return total


def run_batch(x0: float, control, model: ModelBundle, cfg: SimConfig, *,
              n_paths: int, seed: int, tag: int = 0,
              fixed_steps: int | None = None, terminal_value=None,
              scores: bool = False) -> BatchResult:
    """Simulate n_paths controlled paths and reduce their statistics.

    Parameters
    ----------
    control : GaussianAnsatz whose control field c = bmat @ coefficients
        drives the paths, or None for the plain dynamics (c = 0).
    fixed_steps : run exactly this many steps with no stopping test
        (deterministic horizon); otherwise run to the first entry into the
        stopping set, capped at cfg.max_steps.  A path still outside the
        stopping set at the cap is censored, and the batch raises
        CensoredPathError; a fixed_steps batch never censors.
    terminal_value : callable evaluated at the hitting point and added to the
        per-path cost (milestoning inner-boundary values).
    scores : also collect the per-basis gradient accumulators sum_cb and
        sum_eta_b (needs an ansatz control); left None otherwise.

    Path i always consumes the stream (seed, tag, i); seed must fit in
    [0, MAX_SEED], one word of the stream's Philox key.  All paths advance in
    one loop, one step per iteration.  The row-wise calls
    c = bmat @ coefficients and terminal_value run once per segment: the
    live paths among path indices [k KERNEL_CHUNK, (k+1) KERNEL_CHUNK).  A
    path's results therefore do not depend on the paths in later segments,
    but a controlled path's last bits depend on which other paths share its
    segment: gemv rounds the last n % 4 of a segment's n live rows in its
    tail kernel.  That is why retired paths leave every per-row working
    array on the step they hit.  The noise block rows stay where they were
    filled, read through a row map, and the streams stay in path-index
    order; the next refill writes the r-th live path's block into row r.
    """
    if fixed_steps is None and bool(model.stopping_set.contains(x0)):
        raise ValueError(f"x0={x0} already inside the stopping set")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed {seed} is not a nonnegative 64-bit integer")
    h, eps = cfg.h, cfg.epsilon
    lr_eta = np.sqrt(h / eps)
    lr_quad = h / (2.0 * eps)
    noise_amp = np.sqrt(2.0 * h * eps)
    run_cost = h * model.sigma
    p = model.potential
    s = model.stopping_set
    domain = model.domain
    reflect = domain.boundary == "reflect"
    limit = fixed_steps if fixed_steps is not None else cfg.max_steps

    # outputs, in path-index order
    out_steps = np.zeros(n_paths, dtype=np.int64)
    out_work = np.zeros(n_paths)
    out_cc = np.zeros(n_paths)
    out_llr = np.zeros(n_paths)
    out_x = np.full(n_paths, float(x0))
    out_term = np.zeros(n_paths) if terminal_value is not None else None
    out_cb = np.zeros((n_paths, control.m)) if scores else None
    out_eb = np.zeros((n_paths, control.m)) if scores else None

    # dense working arrays over still-active paths; idx maps rows to outputs.
    # Every live path has taken the same number of steps, so they share the
    # accumulated work and the position in their noise blocks.  The noise
    # rows and the streams stay where they are when paths retire: brow maps
    # the live rows to their rows of blocks, gens is indexed by path index.
    idx = np.arange(n_paths)
    x = np.full(n_paths, float(x0))
    work = 0.0
    ccost = np.zeros(n_paths)
    log_lr = np.zeros(n_paths)
    c = np.zeros(n_paths) if control is not None else 0.0
    sum_cb = np.zeros((n_paths, control.m)) if scores else None
    sum_eta_b = np.zeros((n_paths, control.m)) if scores else None
    gens = _take_streams(seed, tag, n_paths)
    blocks = np.empty((n_paths, NOISE_BLOCK))
    seg_starts = np.arange(0, n_paths, KERNEL_CHUNK)

    def segments():
        """(lo, hi) row bounds of the nonempty segments of live paths."""
        if n_paths <= KERNEL_CHUNK:
            return [(0, idx.size)]
        bounds = np.append(np.searchsorted(idx, seg_starts), idx.size).tolist()
        return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def retire(rows):
        slots = idx[rows]
        out_steps[slots] = step
        out_work[slots] = work
        out_cc[slots] = ccost[rows]
        out_llr[slots] = log_lr[rows]
        out_x[slots] = x[rows]
        if terminal_value is not None:
            for lo, hi in segs:
                sel = rows[lo:hi]
                if np.count_nonzero(sel):
                    out_term[idx[lo:hi][sel]] = terminal_value(x[lo:hi][sel])
        if scores:
            out_cb[slots] = sum_cb[rows]
            out_eb[slots] = sum_eta_b[rows]

    segs = segments()
    pos = NOISE_BLOCK
    step = 0
    while idx.size and step < limit:
        if pos == NOISE_BLOCK:
            # the r-th live path's next block goes to row r
            for r, i in enumerate(idx.tolist()):
                gens[i].standard_normal(out=blocks[r])
            brow = np.arange(idx.size)
            pos = 0
        eta = blocks[:, pos][brow]
        pos += 1

        if control is not None:
            bmat = control.basis_controls(x)
            for lo, hi in segs:
                np.matmul(bmat[lo:hi], control.coefficients, out=c[lo:hi])
            if scores:
                sum_cb += c[:, None] * bmat
                sum_eta_b += eta[:, None] * bmat

        work += run_cost
        c2 = c * c
        ccost += (0.5 * h) * c2
        log_lr -= lr_eta * c * eta + lr_quad * c2
        x = x + h * (SQRT2 * c - np.asarray(p.gradient(x), dtype=np.float64)) + noise_amp * eta
        finite = np.isfinite(x)
        if np.count_nonzero(finite) < x.size:
            raise NumericalFailureError(
                f"non-finite update for paths {idx[~finite].tolist()} at step {step}")
        if reflect:
            x = _reflect(x, domain)
        else:
            in_domain = domain.contains(x)
            if np.count_nonzero(in_domain) < x.size:
                raise OutOfDomainError(
                    f"paths {idx[~in_domain].tolist()} left the domain "
                    f"[{domain.lo}, {domain.hi}] at step {step} with abort boundary")
        step += 1

        if fixed_steps is None:
            inside = s.contains(x)
            if np.count_nonzero(inside):
                retire(inside)
                keep = ~inside
                idx = idx[keep]
                x = x[keep]
                ccost = ccost[keep]
                log_lr = log_lr[keep]
                brow = brow[keep]
                if control is not None:
                    c = c[:idx.size]
                if scores:
                    sum_cb = sum_cb[keep]
                    sum_eta_b = sum_eta_b[keep]
                segs = segments()

    _idle_streams.extend(gens)
    if idx.size:
        if fixed_steps is None:
            raise CensoredPathError(f"{idx.size}/{n_paths} paths did not hit within "
                                    f"max_steps={cfg.max_steps}")
        retire(np.ones(idx.size, dtype=bool))
    return BatchResult(n_steps=out_steps, hit=np.ones(n_paths, dtype=bool),
                       work=out_work, control_cost=out_cc, log_lr_p_over_q=out_llr,
                       final_x=out_x, terminal=out_term, sum_cb=out_cb,
                       sum_eta_b=out_eb, loop_iters=step)
