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
folding at the domain edges).  A batch with scores accumulates instead, per
basis function b_j, sum_k c(x_k) b_j(x_k) and sum_k eta_{k+1} b_j(x_k); with
c = sum_j a_j b_j these imply its log dP/dQ, which it does not accumulate.

Per-path noise streams are derived from (seed, tag, path index) through a
counter-based generator and consumed in fixed-size blocks, so a path sees
the same noise however paths are grouped and whatever the block size.
Every batch takes its seed from its caller, and run_batch checks that the
seed and the tag fit the generator's 64-bit key words.  A batch runs its paths in one
loop.  The control c = bmat @ coefficients (BLAS gemv) and the terminal
values are evaluated per segment of KERNEL_CHUNK path indices, because gemv
rounds the last n % 4 rows of an n-row product in another kernel than the
first n - n % 4, which round the same whatever n; batches are reproducible
for a given n_paths.

A segment is also the unit of parallel work.  A path's bits depend only on
its own stream and on the live paths of its segment, so a batch of several
segments is split into contiguous groups of whole segments, one per CPU the
process may use; each group runs the same loop in a forked child, and the
groups' results joined in path order are the bits the one loop gives.

A batch of one segment leaves the other CPUs idle, so the process may run
one such batch ahead: run_batch_ahead forks a child that runs the batch's
one group, and a later run_batch with the same arguments joins the child
instead of simulating.  The descent starts the next iterate's batch this way
while a line-search probe runs (see optimizer.descend).  A joined call is
one run_batch call with the paths and loop count of a batch run here; only
its time is the wait for the child.

Every forked child hands back only a result: its paths' BatchResult and how
many of them it censored.  Anything else (a failing update, an error from
terminal_value, a child that dies or whose result does not pickle, a fork
that fails) leaves the batch to the one loop here, which returns or raises
exactly what it does where nothing forks.

A path that enters the stopping set retires on that step.  Retirement
compacts the per-row arrays (positions, costs, log likelihood ratios or
score accumulators, path indices), because gemv must see exactly the live
rows of each segment for its tail rows to round as before.  It compacts
neither the noise blocks, which the live rows read through a row map until
the next refill, nor the list of streams, which is indexed by path index.

What one step costs.  Long-tailed batches spend most loop iterations on a
few live paths, where a step's time is the dispatch of its numpy calls
(0.4-0.6 us each on a 2-core x86-64 VM), not arithmetic: a scored step at 2
live rows takes about 20-30 us there, of which the basis evaluation is
about 7 us.  So a step issues as few and as cheap calls as keep every bit:
  - one matmul for c when the batch is one segment, a loop over segments
    otherwise;
  - the log-likelihood-ratio update (five calls) only without scores;
  - the test that every path lies in [lo, hi] on a Python list of x - lo
    where FEW_ROWS or fewer rows are live, two numpy reductions otherwise;
  - the stopping test only when lo + min(x - lo), which is min(x) because
    rounding is monotone, lies at or below S.hi, or when the step folded
    or runs under an abort boundary;
  - the per-step scalars as 0-d arrays, which a ufunc takes faster than
    Python floats, and the ufuncs, the basis method and the potential's
    gradient bound to local names once per batch;
  - the c^2, cost, log-likelihood-ratio, position and score updates in
    place, in buffers allocated once per batch (rows, and rows x m for the
    score products).
Every kept operation has its old operands and rounding; only the
IEEE-commutative + and * swap operands.  Stacking the two score products
into one (2, rows, m) product and one add saved about 2 us per step at a
few rows but cost 3-4 us at 256-512 and 6-13% on a three-shell optimize, so
each score keeps its own product and add.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .model import ModelBundle, SimulationDomain

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
# batches and with them every recorded output.  For the same reason a segment
# is the unit of parallel work: a group of whole segments run on its own
# meets every row in the same company as the whole batch.
KERNEL_CHUNK = 1024

# live rows up to which a step tests its positions against [lo, hi] on a
# Python list (min, max and sum) rather than with two numpy reductions.  On a
# 2-core x86-64 VM the list saved 0.6-2.5 us per scored step at 1-24 rows,
# tied at 32 and lost 0.5-0.8 us at 40-48.
FEW_ROWS = 32
INF = float("inf")


class PathFailure(RuntimeError):
    """Paths of a batch failed, so run_batch returns no result for it.

    `paths` holds the sorted indices of the failing paths and `step` the
    step they failed on; a CensoredPathError, which fails the batch as a
    whole, names no path and no step.
    """

    def __init__(self, message: str, paths=(), step: int | None = None):
        super().__init__(message)
        self.paths, self.step = list(paths), step


class NumericalFailureError(PathFailure):
    """The update produced a non-finite state."""


class OutOfDomainError(PathFailure):
    """An update took paths out of a domain with an abort boundary."""


class CensoredPathError(PathFailure):
    """Paths reached max_steps without hitting the stopping set.

    Every estimate is an expectation up to the hitting time, which a censored
    path does not have, so run_batch raises this rather than return the batch.
    """


# a seed is one uint64 word of a path stream's Philox key
MAX_SEED = 2 ** 64 - 1

# how many failing path indices an error message lists
NAMED_PATHS = 5


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


def _take_streams(seed: int, tag: int, first: int, n: int) -> list[np.random.Generator]:
    """Generators on the streams (seed, tag, first), ..., (seed, tag, first + n - 1)."""
    reuse = _idle_streams[max(len(_idle_streams) - n, 0):]
    del _idle_streams[len(_idle_streams) - len(reuse):]
    counter = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": np.array([seed, tag], dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for i, g in enumerate(reuse):
        counter[2] = first + i      # path_stream's counter [0, 0, first + i, 0]
        g.bit_generator.state = state
    return reuse + [path_stream(seed, first + i, tag) for i in range(len(reuse), n)]


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
    work: np.ndarray
    control_cost: np.ndarray
    # None for a batch with scores, whose log dP/dQ is implied by them:
    # -sqrt(h/eps) sum_eta_b @ a - h/(2 eps) sum_cb @ a, a the coefficients
    log_lr_p_over_q: np.ndarray | None
    final_x: np.ndarray
    terminal: np.ndarray | None = None
    sum_cb: np.ndarray | None = None        # sum_k c(x_k) b_j(x_k), per basis j
    sum_eta_b: np.ndarray | None = None     # sum_k eta_{k+1} b_j(x_k), per basis j
    loop_iters: int = 0                     # iterations of the kernel's step loop

    @property
    def n_paths(self) -> int:
        return self.n_steps.size

    @property
    def hit(self) -> np.ndarray:
        """All True: every path of a returned batch hit, or ran its fixed horizon."""
        return np.ones(self.n_paths, dtype=bool)

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
        drives the paths, or None for the plain dynamics (c = 0).  Without
        scores, an ansatz whose coefficients are all zero runs as None: the
        same bits, without evaluating the basis.
    fixed_steps : run exactly this many steps with no stopping test
        (deterministic horizon); otherwise run to the first entry into the
        stopping set, capped at cfg.max_steps.  A path still outside the
        stopping set at the cap is censored, and the batch raises
        CensoredPathError; a fixed_steps batch never censors.
    terminal_value : callable evaluated at the hitting point and added to the
        per-path cost (milestoning inner-boundary values).
    scores : also collect the per-basis gradient accumulators sum_cb and
        sum_eta_b (needs an ansatz control); left None otherwise.  A batch
        with scores leaves log_lr_p_over_q None, because they imply it.

    Path i always consumes the stream (seed, tag, i); seed and tag must each
    fit in [0, MAX_SEED], one word of the stream's Philox key.  n_paths and
    fixed_steps must be at least 1.  The paths advance
    one step per loop iteration.  The row-wise calls c = bmat @ coefficients
    and terminal_value run once per segment: the live paths among path
    indices [k KERNEL_CHUNK, (k+1) KERNEL_CHUNK).  A path's results
    therefore do not depend on the paths in other segments, but a controlled
    path's last bits depend on which other paths share its segment: gemv
    rounds the last n % 4 of a segment's n live rows in its tail kernel.
    That is why retired paths leave every per-row working array on the step
    they hit.  The noise block rows stay where they were filled, read
    through a row map, and the streams stay in path-index order; the next
    refill writes the r-th live path's block into row r.

    Because no bit of a path depends on another segment, a batch of more
    than one segment runs as contiguous groups of whole segments, one per
    CPU the process may use: this process runs the first group and forked
    children the others, each the same loop over its own paths.  The
    results are joined in path order and loop_iters is the longest group's
    count.  A batch of one segment, a process running other threads, where
    forking is unsafe, or a platform without fork runs all its paths here.

    A batch that run_batch_ahead started with the same arguments is joined
    instead: x0, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value
    and scores equal, and the control's centers, widths and coefficients the
    same bytes.  A call with other arguments leaves the pending child
    running.

    Every forked child, a split batch's group or an ahead batch, hands back
    only its paths' BatchResult and censored count; a censored count raises
    CensoredPathError here as the one loop's would.  Where a child hands
    back nothing (its paths failed, terminal_value raised or it died), a
    fork fails or the group here raises, the batch runs again as the one
    loop here, which returns or raises what it does on one CPU.

    A step costs a fixed few dozen numpy calls plus work linear in the live
    rows; the module docstring lists what keeps that count low.

    Each returned batch adds to kernel_counts().
    """
    args = (x0, control, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value, scores)
    outcome = None
    if _ahead.child is not None and _batch_key(*args) == _ahead.key:
        child, _ahead.child, _ahead.key = _ahead.child, None, None
        outcome = _reap(child)
        if outcome is not None:
            _tally.batches_ahead_used += 1
    result, censored = outcome or _batch(*args)
    if censored:
        raise CensoredPathError(f"{censored}/{n_paths} paths did not hit within "
                                f"max_steps={cfg.max_steps}")
    _tally.batches += 1
    _tally.path_steps += int(result.n_steps.sum())
    _tally.loop_iters += result.loop_iters
    return result


def _batch(x0, control, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value,
           scores) -> tuple[BatchResult, int]:
    """The BatchResult of these arguments and how many paths it censored."""
    if fixed_steps is None and bool(model.stopping_set.contains(x0)):
        raise ValueError(f"x0={x0} already inside the stopping set")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed {seed} is not a nonnegative 64-bit integer")
    if not 0 <= tag <= MAX_SEED:
        raise ValueError(f"tag {tag} is not a nonnegative 64-bit integer")
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if fixed_steps is not None and fixed_steps < 1:
        raise ValueError(f"fixed_steps must be at least 1, got {fixed_steps}")
    if scores and control is None:
        raise ValueError("scores needs an ansatz control, got control=None")
    if not scores and control is not None and not np.any(control.coefficients):
        control = None

    def run(first, stop):
        return _run_paths(first, stop, x0, control, model, cfg, seed, tag, fixed_steps,
                          terminal_value, scores)

    groups = _groups(n_paths)
    joined = _run_forked(run, groups) if len(groups) > 1 else None
    return joined or run(0, n_paths)


def _cpus() -> int:
    """CPUs this process may fork batch work onto.

    One where os.fork or os.sched_getaffinity is missing, or when other
    threads run: a forked child would hold their locks as they were.
    """
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return len(os.sched_getaffinity(0))


def _groups(n_paths: int) -> list[tuple[int, int]]:
    """[first, stop) bounds of the path groups a batch runs in parallel.

    Contiguous groups of whole segments, one per CPU the process may fork
    onto (_cpus) and near equal in paths; one group when there is one
    segment or one such CPU.
    """
    n_segments = -(-n_paths // KERNEL_CHUNK)
    if n_segments < 2:
        return [(0, n_paths)]
    workers = min(_cpus(), n_segments)
    cuts = {min(round(i * n_paths / (workers * KERNEL_CHUNK)) * KERNEL_CHUNK, n_paths)
            for i in range(workers)}
    bounds = sorted(cuts | {n_paths})
    return list(zip(bounds[:-1], bounds[1:]))


def _fork(run, *args) -> tuple[int, int] | None:
    """Start run(*args) in a forked child; returns its pid and its pipe's read end.

    The child pickles run's result into the pipe and leaves with os._exit,
    so it runs no exit handler of this process; where run raises or its
    result does not pickle, it writes nothing and exits with status 1.
    Returns None where os.fork fails.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            data = pickle.dumps(run(*args), pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    if pid is None:
        os.close(read_end)
        return None
    return pid, read_end


def _reap(child: tuple[int, int], kill: bool = False):
    """Wait for a child of _fork and return its result, or None if it handed back none.

    The pipe is read to its end (a result larger than the pipe's buffer
    holds the child until it is read), then closed, and the child reaped.
    kill, or a read that is interrupted, ends the child with SIGKILL instead.
    """
    pid, read_end = child
    data = None
    try:
        if not kill:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
    finally:
        os.close(read_end)
        if data is None:
            # imported here, off the start-up path of every stage
            import signal
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    # bytes a child of this process wrote in full, so safe to unpickle
    return pickle.loads(data) if data and status == 0 else None


def _run_forked(run, groups: list[tuple[int, int]]) -> tuple[BatchResult, int] | None:
    """run(first, stop) for every group: the first here, the others in forked children.

    Returns the groups' results joined in path order and their censored
    counts summed, or None where a fork failed, a child handed back no
    result or the group here raised.  Once the group here has failed or
    been interrupted, the children are killed, not waited for.
    """
    children, here = [], None
    try:
        for first, stop in groups[1:]:
            children.append(_fork(run, first, stop))
        if None not in children:
            here = run(*groups[0])
    except Exception:
        pass        # the one loop raises it again
    finally:
        outcomes = [here, *(_reap(child, kill=here is None) for child in children if child)]
    if None in outcomes:
        return None
    return _joined([part for part, _ in outcomes]), sum(k for _, k in outcomes)


@dataclass
class _AheadSlot:
    """The one batch a forked child runs ahead."""

    key: tuple | None = None
    child: tuple[int, int] | None = None    # pid and pipe read end


_ahead = _AheadSlot()


def _batch_key(x0, control, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value,
               scores) -> tuple:
    """The arguments run_batch compares to join an ahead batch, the control as bytes."""
    arrays = None if control is None else tuple(
        np.ascontiguousarray(v).tobytes()
        for v in (control.centers, control.widths, control.coefficients))
    return x0, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value, scores, arrays


def run_batch_ahead(x0: float, control, model: ModelBundle, cfg: SimConfig, *,
                    n_paths: int, seed: int, tag: int = 0,
                    fixed_steps: int | None = None, terminal_value=None,
                    scores: bool = False) -> bool:
    """Start the batch run_batch(same arguments) runs in a forked child.

    The next run_batch call with these arguments joins the child instead of
    simulating (see run_batch).  Any pending ahead batch is killed first,
    so at most one child runs ahead.  Forks only where a CPU would idle
    otherwise: where the process may fork onto 2 or more CPUs (_cpus) and
    the batch is one group, which the child runs as run_batch would.
    Returns whether it forked; False also where os.fork fails.
    """
    drop_ahead()
    if _cpus() < 2 or len(_groups(n_paths)) > 1:
        return False
    args = (x0, control, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value, scores)
    child = _fork(_batch, *args)
    if child is None:
        return False
    _ahead.child, _ahead.key = child, _batch_key(*args)
    _tally.batches_ahead += 1
    return True


def drop_ahead():
    """Kill and reap the pending ahead batch's child, if there is one."""
    child, _ahead.child, _ahead.key = _ahead.child, None, None
    if child is not None:
        _reap(child, kill=True)


@dataclass
class _Tally:
    """What the kernel did in this process.

    A batch that raised is not counted in the first three; a joined ahead
    batch is, as a batch run here.
    """

    batches: int = 0            # batches run_batch returned
    path_steps: int = 0         # sum of their n_steps
    loop_iters: int = 0         # sum of their loop_iters (a split batch's longest group's)
    batches_ahead: int = 0      # batches run_batch_ahead started in a child
    batches_ahead_used: int = 0  # those a run_batch joined

    def __sub__(self, before: _Tally) -> _Tally:
        """The counts added since `before`."""
        return _Tally(*(n - n0 for n, n0 in zip(astuple(self), astuple(before))))


_tally = _Tally()


def kernel_counts() -> _Tally:
    """A copy of this process's kernel counts."""
    return replace(_tally)


def _joined(parts: list[BatchResult]) -> BatchResult:
    """The BatchResult of consecutive path groups, fields joined in path order."""
    joined = {}
    for field in fields(BatchResult):
        values = [getattr(part, field.name) for part in parts]
        if field.name == "loop_iters":
            joined[field.name] = max(values)
        else:
            joined[field.name] = None if values[0] is None else np.concatenate(values)
    return BatchResult(**joined)


def _run_paths(first: int, stop: int, x0: float, control, model: ModelBundle,
               cfg: SimConfig, seed: int, tag: int, fixed_steps: int | None,
               terminal_value, scores: bool) -> tuple[BatchResult, int]:
    """The kernel loop over paths [first, stop) of a batch; first is a segment start.

    Returns their BatchResult and, for a stopping batch, how many of them
    were still live at cfg.max_steps (their statistics are left unset).
    """
    n_paths = stop - first
    h, eps = cfg.h, cfg.epsilon
    # the per-step scalars as 0-d arrays, which a ufunc takes faster than
    # Python floats; every product keeps its operands
    h_, half_h, lr_eta, lr_quad, noise_amp, sqrt2 = map(np.array, (
        h, 0.5 * h, np.sqrt(h / eps), h / (2.0 * eps), np.sqrt(2.0 * h * eps), SQRT2))
    multiply, subtract, add, matmul = np.multiply, np.subtract, np.add, np.matmul
    row_min, row_max = np.minimum.reduce, np.maximum.reduce
    run_cost = h * model.sigma
    grad = model.potential.gradient
    s = model.stopping_set
    domain = model.domain
    left, width = np.array(domain.lo), domain.hi - domain.lo
    reflect = domain.boundary == "reflect"
    limit = fixed_steps if fixed_steps is not None else cfg.max_steps
    one_segment = n_paths <= KERNEL_CHUNK

    # outputs, in path-index order; a scored batch's log-likelihood ratio is
    # implied by its scores (BatchResult.log_lr_p_over_q) and not kept
    out_steps = np.zeros(n_paths, dtype=np.int64)
    out_work = np.zeros(n_paths)
    out_cc = np.zeros(n_paths)
    out_llr = None if scores else np.zeros(n_paths)
    out_x = np.full(n_paths, float(x0))
    out_term = np.zeros(n_paths) if terminal_value is not None else None
    out_cb = np.zeros((n_paths, control.m)) if scores else None
    out_eb = np.zeros((n_paths, control.m)) if scores else None

    # dense working arrays over still-active paths; idx maps rows to outputs,
    # path index - first.  Every live path has taken the same number of
    # steps, so they share the accumulated work and the position in their
    # noise blocks.  The noise rows and the streams stay where they are when
    # paths retire: brow maps the live rows to their rows of blocks, gens is
    # indexed by idx.  x is this loop's own array, updated in place.
    idx = np.arange(n_paths)
    x = np.full(n_paths, float(x0))
    work = 0.0
    ccost = np.zeros(n_paths)
    log_lr = None if scores else np.zeros(n_paths)
    sum_cb = np.zeros((n_paths, control.m)) if scores else None
    sum_eta_b = np.zeros((n_paths, control.m)) if scores else None
    gens = _take_streams(seed, tag, first, n_paths)
    blocks = np.empty((n_paths, NOISE_BLOCK))
    seg_starts = np.arange(0, n_paths, KERNEL_CHUNK)
    # per-step buffers whose first live-row-count rows the step writes: c,
    # c^2, one scratch row and the (rows, m) products of the scores
    c_buf = np.zeros(n_paths)
    c2_buf = np.empty(n_paths)
    t_buf = np.empty(n_paths)
    prod_buf = np.empty((n_paths, control.m)) if scores else None

    def views(k):
        """The buffers' views over k live rows: c, c as a column, c^2, scratch, products."""
        return (c_buf[:k], c_buf[:k, None], c2_buf[:k], t_buf[:k],
                prod_buf[:k] if scores else None)

    def segments():
        """(lo, hi) row bounds of the nonempty segments of live paths."""
        if one_segment:
            return [(0, idx.size)]
        bounds = np.append(np.searchsorted(idx, seg_starts), idx.size).tolist()
        return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def retire(rows):
        slots = idx[rows]
        out_steps[slots] = step
        out_work[slots] = work
        out_cc[slots] = ccost[rows]
        out_x[slots] = x[rows]
        if terminal_value is not None:
            for lo, hi in segs:
                sel = rows[lo:hi]
                if np.count_nonzero(sel):
                    out_term[idx[lo:hi][sel]] = terminal_value(x[lo:hi][sel])
        if scores:
            out_cb[slots] = sum_cb[rows]
            out_eb[slots] = sum_eta_b[rows]
        else:
            out_llr[slots] = log_lr[rows]

    def fail(kind, rows):
        """The NumericalFailureError or OutOfDomainError of the live rows that failed."""
        paths = (idx[rows] + first).tolist()
        shown = ", ".join(map(str, paths[:NAMED_PATHS]))
        if len(paths) > NAMED_PATHS:
            shown += ", ..."
        named = f"{len(paths)} path{'' if len(paths) == 1 else 's'} [{shown}]"
        if kind is NumericalFailureError:
            message = f"non-finite update for {named} at step {step}"
        else:
            message = (f"{named} left the domain [{domain.lo}, {domain.hi}] at step {step} "
                       f"with abort boundary")
        return kind(message, paths, step)

    segs = segments()
    c, c_col, c2, t, prod = views(n_paths)
    if control is not None:
        basis, coefficients = control.basis_controls, control.coefficients
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

        # t = sqrt2 c - V'(x), then x + h t + noise_amp eta; without a
        # control c is 0, its cost and log-likelihood-ratio terms +0.0
        if control is not None:
            bmat = basis(x)
            if one_segment:
                matmul(bmat, coefficients, c)
            else:
                for lo, hi in segs:
                    matmul(bmat[lo:hi], coefficients, out=c[lo:hi])
            multiply(c, c, c2)
            multiply(half_h, c2, t)
            ccost += t
            if scores:
                multiply(c_col, bmat, prod)
                sum_cb += prod
                multiply(eta[:, None], bmat, prod)
                sum_eta_b += prod
            else:
                multiply(lr_eta, c, t)
                t *= eta
                c2 *= lr_quad
                t += c2
                log_lr -= t
            multiply(sqrt2, c, t)
            subtract(t, grad(x), t)
        else:
            subtract(0.0, grad(x), t)
        work += run_cost
        t *= h_
        x += t
        multiply(noise_amp, eta, t)
        x += t
        # a step that leaves every path in [lo, hi] needs no folding: there
        # _reflect gives lo + (x - lo) exactly.  Rounding is monotone, so
        # lo + min(x - lo) is min(x): when it lies right of S, no path can
        # have entered S on this step.  A NaN or an inf fails the test and
        # reaches the isfinite check: it fails a reduction's comparison, and
        # on FEW_ROWS rows or fewer, where Python's min and max may pass over
        # a NaN, it makes the sum non-finite.
        clear_of_s = in_range = False
        if reflect:
            subtract(x, left, t)
            if idx.size <= FEW_ROWS:
                ys = t.tolist()
                y_min = min(ys)
                in_range = y_min >= 0.0 and max(ys) <= width and sum(ys) < INF
            else:
                y_min = row_min(t)
                in_range = y_min >= 0.0 and row_max(t) <= width
        if in_range:
            add(left, t, x)
            clear_of_s = domain.lo + y_min > s.hi
        else:
            finite = np.isfinite(x)
            if np.count_nonzero(finite) < x.size:
                raise fail(NumericalFailureError, ~finite)
            if reflect:
                x = _reflect(x, domain)
            else:
                in_domain = domain.contains(x)
                if np.count_nonzero(in_domain) < x.size:
                    raise fail(OutOfDomainError, ~in_domain)
        step += 1

        if fixed_steps is None and not clear_of_s:
            inside = s.contains(x)
            if np.count_nonzero(inside):
                retire(inside)
                keep = ~inside
                idx = idx[keep]
                x = x[keep]
                ccost = ccost[keep]
                brow = brow[keep]
                if scores:
                    sum_cb = sum_cb[keep]
                    sum_eta_b = sum_eta_b[keep]
                else:
                    log_lr = log_lr[keep]
                segs = segments()
                c, c_col, c2, t, prod = views(idx.size)

    _idle_streams.extend(gens)
    censored = 0
    if idx.size:
        if fixed_steps is None:
            censored = idx.size
        else:
            retire(np.ones(idx.size, dtype=bool))
    return BatchResult(n_steps=out_steps, work=out_work, control_cost=out_cc,
                       log_lr_p_over_q=out_llr, final_x=out_x, terminal=out_term,
                       sum_cb=out_cb, sum_eta_b=out_eb, loop_iters=step), censored
