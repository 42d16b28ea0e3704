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

Path i of a batch, under every forcing, consumes the counter-based stream
(seed, tag, i) in fixed-size blocks, so it sees the same noise however
paths are grouped and whatever the block size; every batch takes its seed
from its caller.

Segments.  A batch may drive its paths with k forcings of one basis layout
(equal centers and widths), such as the two sides of a central difference:
row f n_paths + i of the result is forcing f's copy of path i, and a single
forcing is k = 1.  A loop advances every row one step per iteration.  A
segment is one forcing's live paths among the indices [j KERNEL_CHUNK,
(j+1) KERNEL_CHUNK); the row-wise calls c = bmat @ coefficients (BLAS gemv,
with that forcing's coefficients) and terminal_value run once per segment,
and every other operation row by row.  So a path's bits depend only on its
own stream and on the live paths of its segment (KERNEL_CHUNK states why),
and a batch is reproducible for a given n_paths.  A batch therefore runs
one loop per segment of path indices, over every forcing's copy of it, and
joins the loops' rows in path order per forcing (_batch): loops of at most
k KERNEL_CHUNK rows however many paths the batch has, with the bits of
_run_paths over all its paths at once; loop_iters is the longest loop's.
A batch whose loops fail raises the error of its first failing segment in
path order.  The [lo, hi] test and the stopping test look at every row of a
loop at once; where another row fails them, a row in range folds to
lo + (x - lo) exactly and a row right of S tests outside it, so no bit
changes.  The noise blocks, like the streams, are indexed by path: each
refill draws a path's next block once, into its own column of the
step-major blocks, which every forcing's live copy of the path reads, so k
forcings cost one set of draws and one basis evaluation per step, not k.

A path that enters the stopping set retires on that step.  Each per-path
accumulator of the loop is held once, under its BatchResult field name:
control_cost, final_x (the position) and either log_lr_p_over_q or the two
scores.  Only their allocation and the step know which a batch keeps;
retirement copies every one of them out, and compaction cuts every one of
them, with the path indices, to the live rows, so that gemv sees exactly
the live rows of each segment.  The noise blocks and the streams stay
where they are, and a path's stream is drawn while any forcing's copy of
it is live.

Forks.  A batch of several segments per forcing runs as contiguous groups
of whole segments of path indices, one per CPU the process may use (_cpus):
the first group here, the others in forked children, each running its
segments' loops in turn.  Every child hands back only its loops' outcomes,
each a BatchResult and a censored count.  A group whose child hands back
nothing (a failing update, an error from terminal_value, a child that dies
or whose result does not pickle) or whose fork fails runs here, once the
groups before it are in.  So on any number of CPUs a batch returns the same
bits, or raises the error of its first failing segment in path order, once
every child is killed and reaped.  A batch of one segment leaves the other
CPUs idle, so run_batch_ahead may fork a child that runs it whole, and the
next run_batch with equal arguments (the forcings' centers, widths and
coefficients the same bytes) joins the child instead of simulating; one
with other arguments leaves it running.  The descent starts the next
iterate's batch this way while a line-search probe runs (optimizer.descend).
A joined call is one run_batch call with the paths and loop count of a
batch run here; only its time is the wait for the child, and a child that
hands back nothing leaves the batch to run here.

What one step costs.  Long-tailed batches spend most loop iterations on a
few live paths, where a step's time is the dispatch of its numpy calls
(0.4-0.6 us each on a 2-core x86-64 VM), not arithmetic: a scored step at 2
live rows takes about 15-30 us there, of which the basis evaluation is
3-7 us.  Fixed-horizon batches keep every row live, where a step's time is
its loops over rows x m elements: at 4,000 rows and m = 10 (about one
segment's loop of gradcheck's four-forcing batches) a scored step took
486-505 us there, against
528-601 us with an allocating basis and path-major noise blocks; the basis
took about 200 us of it, and its exp alone about 120 us.  So a step issues
as few and as cheap calls as keep every bit, over contiguous memory:
  - the basis by GaussianAnsatz.basis_controls_into, into (rows, m)
    buffers allocated once per batch with the centers tiled to that shape,
    so that no step allocates a matrix and, with equal widths, each of its
    calls but the first (a broadcast copy of x) is one flat loop; the
    allocating basis_controls took 236 us in the same loop, and 345-390 us
    called in a loop of its own, where its two fresh 320 KB arrays took 124
    page faults a call;
  - the noise gathered from the one row blocks[pos] of the step-major
    blocks: 4 us at 4,000 rows, where path-major blocks, which touch a
    cache line per live row, took 15 us;
  - one matmul for c when the loop is one segment, a loop over its
    segments otherwise;
  - the log-likelihood-ratio update (five calls) only without scores;
  - the [lo, hi] test on a Python list where FEW_ROWS or fewer rows are
    live, two numpy reductions otherwise;
  - the stopping test only where the step may have entered S (see the step);
  - the per-step scalars as 0-d arrays, which a ufunc takes faster than
    Python floats, and the ufuncs, the basis method and the potential's
    gradient bound to local names once per batch;
  - the c^2, cost, log-likelihood-ratio, position and score updates in
    place, in buffers allocated once per batch (rows, and rows x m for the
    score products).
Every kept operation has its old operands and rounding; only the
IEEE-commutative + and * swap operands, and x - mu_j is one subtraction
whether mu is tiled or broadcast.  Stacking the two score products into one
(2, rows, m) product and one add saved about 2 us per step at a few rows
but cost 3-4 us at 256-512 and 6-13% on a three-shell optimize, so each
score keeps its own product and add.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .ansatz import SQRT2
from .model import ModelBundle, SimulationDomain

# per-path noise streams are consumed in blocks of this many normals; the
# draws do not depend on it, the working set (n_paths x NOISE_BLOCK) does
NOISE_BLOCK = 128

# path indices per segment.  On OpenBLAS an (n, m) @ (m,) gemv rounds its
# first n - n % 4 rows the same whatever n and the row order, but its last
# n % 4 rows in another kernel, which changes the last bits of about a third
# of them (random data).  Evaluating each segment on its own keeps every row
# in the company it had when paths ran in chunks of this width; changing it
# changes the last bits of controlled batches and every recorded output.
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
    loop_iters: int = 0                     # iterations of its longest kernel loop

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
        drives the paths, or None for the plain dynamics (c = 0), or a
        sequence of k GaussianAnsatz forcings with equal centers and widths.
        Each forcing drives its own copy of the n_paths paths, and the batch
        returns k n_paths paths in forcing-major order: path i of forcing f
        is result row f n_paths + i, with the bits of row i of the batch
        that forcing alone runs.
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

    The arguments are checked here, in the calling process, before any
    join or fork, and a ValueError names the one at fault: x0 must lie in
    the domain [lo, hi], and outside the stopping set unless fixed_steps is
    given; seed and tag must each fit in [0, MAX_SEED], one word of a
    stream's Philox key; n_paths and fixed_steps must be at least 1.  A
    NumericalFailureError or OutOfDomainError names the failing paths by
    their rows in the result.

    The batch may run as forked groups, or join the child of an earlier
    run_batch_ahead with equal arguments (module docstring); either returns
    what the batch run here returns.  A failing batch raises the error of
    its first failing segment in path order on any number of CPUs.  Each
    returned batch adds to kernel_counts().
    """
    args = _batch_args(x0, control, model, cfg, n_paths=n_paths, seed=seed, tag=tag,
                       fixed_steps=fixed_steps, terminal_value=terminal_value, scores=scores)
    outcome = None
    if _ahead.child is not None and _batch_key(args) == _ahead.key:
        child, _ahead.child, _ahead.key = _ahead.child, None, None
        outcome = _reap(child)
        if outcome is not None:
            _tally.batches_ahead_used += 1
    result, censored = outcome or _batch(args)
    if censored:
        raise CensoredPathError(f"{censored}/{result.n_paths} paths did not hit within "
                                f"max_steps={cfg.max_steps}")
    _tally.batches += 1
    _tally.path_steps += int(result.n_steps.sum())
    _tally.loop_iters += result.loop_iters
    return result


def _batch_args(x0: float, control, model: ModelBundle, cfg: SimConfig, *,
                n_paths: int, seed: int, tag: int = 0, fixed_steps: int | None = None,
                terminal_value=None, scores: bool = False) -> tuple:
    """run_batch's arguments, once they pass its checks, as the tuple the kernel
    takes: control becomes controls, one forcing per copy of the paths ((None,)
    for the plain dynamics)."""
    controls = tuple(control) if isinstance(control, (list, tuple)) else (control,)
    if not controls:
        raise ValueError("control: a sequence of forcings needs at least one")
    first = controls[0]
    if not all(np.array_equal(a.centers, first.centers)
               and np.array_equal(a.widths, first.widths) for a in controls[1:]):
        raise ValueError("control: the forcings of one batch must have equal "
                         "centers and widths")
    domain = model.domain
    if not domain.lo <= x0 <= domain.hi:
        raise ValueError(f"x0={x0} lies outside the domain [{domain.lo}, {domain.hi}]")
    if fixed_steps is None and bool(model.stopping_set.contains(x0)):
        raise ValueError(f"x0={x0} already inside the stopping set")
    for name, value in (("seed", seed), ("tag", tag)):
        if not 0 <= value <= MAX_SEED:
            raise ValueError(f"{name} {value} is not a nonnegative 64-bit integer")
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if fixed_steps is not None and fixed_steps < 1:
        raise ValueError(f"fixed_steps must be at least 1, got {fixed_steps}")
    if scores and first is None:
        raise ValueError("scores needs an ansatz control, got control=None")
    return x0, controls, model, cfg, n_paths, seed, tag, fixed_steps, terminal_value, scores


def _batch(args: tuple) -> tuple[BatchResult, int]:
    """The BatchResult of _batch_args' tuple and how many paths it censored:
    one loop per segment, in groups (_run_groups); a failing batch raises
    the error of its first failing segment in path order."""
    return _run_groups(args, _groups(args[4]))      # args[4] is n_paths


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
    segment or one such CPU.  Each group runs its segments one at a time.
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


def _run_segments(args: tuple, first: int, stop: int) -> list[tuple[BatchResult, int]]:
    """_run_paths over each segment of the paths [first, stop) in turn, the
    first failing one raising; first is a segment start."""
    return [_run_paths(args, lo, min(lo + KERNEL_CHUNK, stop))
            for lo in range(first, stop, KERNEL_CHUNK)]


def _run_groups(args: tuple, groups: list[tuple[int, int]]) -> tuple[BatchResult, int]:
    """Every segment of the groups, joined once: groups[0] here, the others in
    forked children, each reaped in path order.

    A group whose fork failed or whose child hands back nothing runs here
    when its turn comes, so the first failing segment in path order raises.
    An error raised here propagates once the children are killed and reaped.
    """
    # one entry per group, in order: None for groups[0], which runs here
    children, outcomes = [None], []
    try:
        for first, stop in groups[1:]:
            children.append(_fork(_run_segments, args, first, stop))
        for group in groups:
            child = children.pop(0)
            outcomes += (child and _reap(child)) or _run_segments(args, *group)
    finally:
        for child in filter(None, children):
            _reap(child, kill=True)
    return _joined(outcomes, len(args[1]))


@dataclass
class _AheadSlot:
    """The one batch a forked child runs ahead."""

    key: tuple | None = None
    child: tuple[int, int] | None = None    # pid and pipe read end


_ahead = _AheadSlot()


def _batch_key(args: tuple) -> tuple:
    """What run_batch compares to join an ahead batch: _batch_args' tuple, with
    the forcings' centers, widths and coefficients as bytes."""
    x0, controls, *rest = args
    return x0, *rest, tuple(np.ascontiguousarray(v).tobytes() for a in controls
                            if a is not None for v in (a.centers, a.widths, a.coefficients))


def run_batch_ahead(*args, **kwargs) -> bool:
    """Start run_batch(*args, **kwargs)'s batch in a forked child; takes
    run_batch's arguments and raises its ValueError before anything forks.

    Any pending ahead batch is killed first, so at most one child runs
    ahead.  Forks only where the process may fork onto 2 or more CPUs (_cpus)
    and the batch is one segment.  Returns whether it forked; False also
    where os.fork fails.
    """
    args = _batch_args(*args, **kwargs)
    drop_ahead()
    if _cpus() < 2 or args[4] > KERNEL_CHUNK:     # args[4] is n_paths
        return False
    child = _fork(_batch, args)
    if child is None:
        return False
    _ahead.child, _ahead.key = child, _batch_key(args)
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
    loop_iters: int = 0         # sum of their loop_iters (each its longest loop's)
    batches_ahead: int = 0      # batches run_batch_ahead started in a child
    batches_ahead_used: int = 0  # those a run_batch joined

    def __sub__(self, before: _Tally) -> _Tally:
        """The counts added since `before`."""
        return _Tally(*(n - n0 for n, n0 in zip(astuple(self), astuple(before))))


_tally = _Tally()


def kernel_counts() -> _Tally:
    """A copy of this process's kernel counts."""
    return replace(_tally)


def _joined(outcomes: list[tuple[BatchResult, int]], k: int) -> tuple[BatchResult, int]:
    """The outcome of runs over consecutive paths of k forcings: their
    BatchResults with each forcing's rows joined in path order, forcing-major,
    and their censored counts summed."""
    if len(outcomes) == 1:
        return outcomes[0]
    joined = {}
    for field in fields(BatchResult):
        values = [getattr(part, field.name) for part, _ in outcomes]
        if field.name == "loop_iters":
            joined[field.name] = max(values)
        elif values[0] is None:
            joined[field.name] = None
        else:
            tail = values[0].shape[1:]
            joined[field.name] = np.concatenate(
                [v.reshape(k, -1, *tail) for v in values], axis=1).reshape(-1, *tail)
    return BatchResult(**joined), sum(n for _, n in outcomes)


def _run_paths(args: tuple, first: int, stop: int) -> tuple[BatchResult, int]:
    """The kernel loop over paths [first, stop) of _batch_args' tuple under
    each of its forcings; first is a segment start.  _batch runs it over one
    segment of path indices at a time; over several, as the tests run it, it
    gives the bits of those runs joined, and raises the earliest failing
    step of any of them.

    Returns their BatchResult, forcing-major, and, for a stopping batch, how
    many of its rows were still live at cfg.max_steps (their statistics are
    left unset).
    """
    x0, controls, model, cfg, n_batch, seed, tag, fixed_steps, terminal_value, scores = args
    n_paths = stop - first
    n_rows = len(controls) * n_paths
    h, eps = cfg.h, cfg.epsilon
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
    control = controls[0]
    m = 0 if control is None else control.m
    # the segment of forcing f at path index first + j starts at row
    # f n_paths + j and takes f's coefficients
    chunks = range(0, n_paths, KERNEL_CHUNK)
    seg_starts = [f * n_paths + j for f in range(len(controls)) for j in chunks]
    seg_coefficients = [None if a is None else a.coefficients
                        for a in controls for _ in chunks]
    one_segment = len(seg_starts) == 1

    # the live rows' accumulators, under their BatchResult names: updated in
    # place by the step, copied out at retirement and cut to the live rows at
    # compaction.  A scored batch's log-likelihood ratio is implied by its
    # scores (BatchResult.log_lr_p_over_q) and not kept.  idx maps live rows
    # to rows of out, row f n_paths + i for path first + i under forcing f.
    # Every live row has taken the same number of steps, so they share the
    # accumulated work and the position in their noise blocks
    acc = {"control_cost": np.zeros(n_rows), "final_x": np.full(n_rows, float(x0))}
    if scores:
        acc.update(sum_cb=np.zeros((n_rows, m)), sum_eta_b=np.zeros((n_rows, m)))
    else:
        acc["log_lr_p_over_q"] = np.zeros(n_rows)
    out = {"n_steps": np.zeros(n_rows, dtype=np.int64), "work": np.zeros(n_rows),
           "terminal": None if terminal_value is None else np.zeros(n_rows),
           "log_lr_p_over_q": None, **{name: a.copy() for name, a in acc.items()}}
    idx = np.arange(n_rows)
    work = 0.0
    # the streams and the noise blocks are indexed by path, path index -
    # first.  The blocks are step-major: a refill draws a path's block into
    # the scratch row `block` and writes it to column idx % n_paths, so a
    # step reads every live row's noise from the one row blocks[pos]
    gens = _take_streams(seed, tag, first, n_paths)
    blocks = np.empty((NOISE_BLOCK, n_paths))
    block = np.empty(NOISE_BLOCK)
    path = idx % n_paths
    # per-step buffers whose first live-row-count rows the step writes: c,
    # c^2, one scratch row, the (rows, m) basis matrix, its scratch and the
    # products of the scores; the basis centers are tiled to (rows, m) once.
    # Without a control m is 0 and nothing writes c, which must stay +0.0:
    # sqrt2 c - V'(x) then rounds as 0.0 - V'(x), the plain dynamics' drift
    c_buf = np.zeros(n_rows)
    c2_buf = np.empty(n_rows)
    t_buf = np.empty(n_rows)
    b_buf, v_buf = np.empty((n_rows, m)), np.empty((n_rows, m))
    mu_buf = v_buf if control is None else np.tile(control.centers, (n_rows, 1))
    prod_buf = np.empty((n_rows, m)) if scores else None

    def views(k):
        """The buffers' views over k live rows: c, c as a column, c^2, scratch,
        the basis matrix, its scratch, the tiled centers and the products."""
        return (c_buf[:k], c_buf[:k, None], c2_buf[:k], t_buf[:k], b_buf[:k], v_buf[:k],
                mu_buf[:k], prod_buf[:k] if scores else None)

    def segments():
        """(lo, hi, coefficients) of the nonempty segments of live rows."""
        if one_segment:
            return [(0, idx.size, seg_coefficients[0])]
        bounds = np.append(np.searchsorted(idx, seg_starts), idx.size).tolist()
        return [(lo, hi, a) for lo, hi, a in zip(bounds[:-1], bounds[1:], seg_coefficients)
                if hi > lo]

    def retire(rows):
        slots = idx[rows]
        out["n_steps"][slots] = step
        out["work"][slots] = work
        for name, a in acc.items():
            out[name][slots] = a[rows]
        if terminal_value is not None:
            x = acc["final_x"]
            for lo, hi, _ in segs:
                sel = rows[lo:hi]
                if np.count_nonzero(sel):
                    out["terminal"][idx[lo:hi][sel]] = terminal_value(x[lo:hi][sel])

    def fail(kind, rows):
        """The NumericalFailureError or OutOfDomainError of the live rows that
        failed, named by their rows in the batch's result."""
        forcing, i = np.divmod(idx[rows], n_paths)
        paths = (forcing * n_batch + first + i).tolist()
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
    c, c_col, c2, t, bmat, vmat, mu, prod = views(n_rows)
    if control is not None:
        basis, coefficients = control.basis_controls_into, seg_coefficients[0]
    pos = NOISE_BLOCK
    step = 0
    while idx.size and step < limit:
        if pos == NOISE_BLOCK:
            # each path's next block, drawn once for all the forcings whose
            # copy of it is live, into the path's column
            for i in set(path.tolist()):
                gens[i].standard_normal(out=block)
                blocks[:, i] = block
            pos = 0
        eta = blocks[pos][path]
        pos += 1
        x = acc["final_x"]

        # t = sqrt2 c - V'(x), then x + h t + noise_amp eta; without a
        # control c is 0, its cost and log-likelihood-ratio terms +0.0
        if control is not None:
            basis(x, bmat, vmat, mu)
            if one_segment:
                matmul(bmat, coefficients, c)
            else:
                for lo, hi, a in segs:
                    matmul(bmat[lo:hi], a, out=c[lo:hi])
            multiply(c, c, c2)
            multiply(half_h, c2, t)
            acc["control_cost"] += t
            if scores:
                multiply(c_col, bmat, prod)
                acc["sum_cb"] += prod
                multiply(eta[:, None], bmat, prod)
                acc["sum_eta_b"] += prod
            else:
                multiply(lr_eta, c, t)
                t *= eta
                c2 *= lr_quad
                t += c2
                acc["log_lr_p_over_q"] -= t
        multiply(sqrt2, c, t)
        subtract(t, grad(x), t)
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
                x = acc["final_x"] = _reflect(x, domain)
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
                path = idx % n_paths
                for name, a in acc.items():
                    acc[name] = a[keep]
                segs = segments()
                c, c_col, c2, t, bmat, vmat, mu, prod = views(idx.size)

    _idle_streams.extend(gens)
    censored = 0
    if idx.size:
        if fixed_steps is None:
            censored = idx.size
        else:
            retire(np.ones(idx.size, dtype=bool))
    return BatchResult(**out, loop_iters=step), censored
