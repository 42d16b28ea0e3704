"""Outside-in tracing of optforce's layers.

`install` wraps the public calls into each module and rebinds every name
under which a loaded `optforce` module holds them (most callers import by
name: `optforce.objective.run_batch`, `optforce.cli.descend`, ...).  Each
wrapped call becomes a span in memory; `layer_metrics` reduces the spans to
per-layer counts and times.  The per-step `GaussianAnsatz.basis_controls`
is only counted and timed, because a span per simulator step would cost
more than the call it measures.  Nothing under `src/` changes.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

import numpy as np

# paths per simulator chunk in optforce.dynamics.run_batch; a chunk loops
# until its longest path ends, so this models its loop iterations
KERNEL_CHUNK = 1024

OBJECTIVE_CALLS = ("estimate_inexact_gradient", "estimate_cost",
                   "estimate_exact_gradient_fixed_horizon")
FD_SOLVES = ("solve_fk", "solve_mfpt_pde")


def _batch_counts(span, bound, batch):
    steps = np.asarray(batch.n_steps, dtype=np.int64)
    iters = lanes = 0
    for lo in range(0, steps.size, KERNEL_CHUNK):
        chunk = steps[lo:lo + KERNEL_CHUNK]
        iters += int(chunk.max())
        lanes += int(chunk.size) * int(chunk.max())
    span.update(path_steps=int(steps.sum()), loop_iters=iters, lane_slots=lanes,
                max_path_steps=int(steps.max()), censored=int(np.sum(~batch.hit)))


def _descend_counts(span, bound, result):
    span["iterations"] = len(result[1].records)


def _line_search_counts(span, bound, result):
    span.update(probes=int(result.n_evals), fallback=int(bool(result.fallback)))


def _psi_counts(span, bound, result):
    span["ess"] = float(result.psi.ess)


def _grid_counts(span, bound, result):
    span["nodes"] = int(bound.arguments["grid"].nodes.size)


# (module, function, layer, reads counts from the call and its result)
WRAPPED = (
    ("optforce.dynamics", "run_batch", "dynamics", _batch_counts),
    *(("optforce.objective", name, "objective", None) for name in OBJECTIVE_CALLS),
    ("optforce.optimizer", "descend", "optimizer", _descend_counts),
    ("optforce.optimizer", "wolfe_line_search", "optimizer", _line_search_counts),
    ("optforce.milestoning", "run_milestoning", "milestoning", None),
    ("optforce.milestoning", "solve_shell", "milestoning", None),
    ("optforce.estimators", "estimate_psi_reweighted", "estimators", _psi_counts),
    ("optforce.estimators", "estimate_mfpt_reweighted", "estimators", None),
    ("optforce.reference", "solve_reference", "reference", None),
    *(("optforce.reference", name, "reference", _grid_counts) for name in FD_SOLVES),
    ("optforce.reference", "mfpt_quadrature_oracle", "reference", None),
)


class Tracer:
    """Spans of wrapped calls, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stage = None
        self.basis_calls = 0
        self.basis_s = 0.0
        self._open: list[int] = []

    def wrap(self, fn, layer, counts):
        signature = inspect.signature(fn)
        name = fn.__name__

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                    "stage": self.stage, "layer": layer, "name": name}
            self.spans.append(span)
            self._open.append(span["id"])
            span["t0"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = perf_counter()
                self._open.pop()
            if counts is not None:
                counts(span, signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_basis(self, method):
        def traced(ansatz, x):
            t0 = perf_counter()
            out = method(ansatz, x)
            self.basis_s += perf_counter() - t0
            self.basis_calls += 1
            return out

        return traced

    def write(self, path):
        doc = {"basis_controls": {"calls": self.basis_calls, "busy_s": self.basis_s},
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer):
    """Wrap the layer calls in every loaded optforce module; returns an undo."""
    import optforce.cli  # noqa: F401  (loads every module that binds a wrapped name)
    from optforce.ansatz import GaussianAnsatz

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "optforce" or n.startswith("optforce."))]
    undo = []
    for module_name, name, layer, counts in WRAPPED:
        original = getattr(sys.modules[module_name], name)
        traced = tracer.wrap(original, layer, counts)
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, traced)
                undo.append((module, name, original))
    basis = GaussianAnsatz.basis_controls
    GaussianAnsatz.basis_controls = tracer.wrap_basis(basis)
    undo.append((GaussianAnsatz, "basis_controls", basis))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times; self time is a span minus its children."""
    spans = tracer.spans
    dur = [s["t1"] - s["t0"] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    own = [d - c for d, c in zip(dur, child)]

    def pick(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(ids, values):
        return float(sum(values[i] for i in ids))

    def count(ids, key):
        return sum(spans[i].get(key, 0) for i in ids)

    def ratio(a, b):
        return a / b if b else 0.0

    batches = pick("run_batch")
    busy = total(batches, dur)
    steps = count(batches, "path_steps")
    iters = count(batches, "loop_iters")
    objective = pick(*OBJECTIVE_CALLS)
    searches = pick("wolfe_line_search")
    probes = count(searches, "probes")
    psi = pick("estimate_psi_reweighted")
    mfpt = pick("estimate_mfpt_reweighted")
    fd = pick(*FD_SOLVES)
    quad = pick("mfpt_quadrature_oracle")
    quad_s = total(quad, dur)
    return {
        "dynamics.calls": len(batches),
        "dynamics.busy_s": busy,
        "dynamics.path_steps": steps,
        "dynamics.loop_iters": iters,
        "dynamics.lane_occupancy": ratio(steps, count(batches, "lane_slots")),
        "dynamics.us_per_iter": 1e6 * ratio(busy, iters),
        "dynamics.path_steps_per_s": ratio(steps, busy),
        "dynamics.max_path_steps": max((spans[i]["max_path_steps"] for i in batches),
                                       default=0),
        "dynamics.censored": count(batches, "censored"),
        "ansatz.basis_controls.calls": tracer.basis_calls,
        "ansatz.basis_controls.busy_s": tracer.basis_s,
        "ansatz.basis_share": ratio(tracer.basis_s, busy),
        "objective.evals": len(objective),
        "objective.busy_s": total(objective, dur),
        "objective.self_s": total(objective, own),
        "optimizer.iterations": count(pick("descend"), "iterations"),
        "optimizer.line_searches": len(searches),
        "optimizer.probes": probes,
        "optimizer.probes_per_search": ratio(probes, len(searches)),
        "optimizer.fallbacks": count(searches, "fallback"),
        "optimizer.line_search_s": total(searches, dur),
        "optimizer.self_s": total(pick("descend", "wolfe_line_search"), own),
        "milestoning.shells": len(pick("solve_shell")),
        "milestoning.shell_s": total(pick("solve_shell"), dur),
        "estimators.psi_s": total(psi, dur),
        "estimators.mfpt_s": total(mfpt, dur),
        "estimators.self_s": total(psi + mfpt, own),
        "estimators.ess": float(sum(spans[i]["ess"] for i in psi)),
        "reference.fd_solves": len(fd),
        "reference.fd_solve_s": total(fd, own),
        "reference.fd_nodes": count(fd, "nodes"),
        "reference.quad_calls": len(quad),
        "reference.quad_s": quad_s,
        "reference.quad_s_per_call": ratio(quad_s, len(quad)),
    }
