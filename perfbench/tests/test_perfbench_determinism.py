"""The benchmark's determinism self-check.

Tracing must change no output byte, the counts it reads must repeat exactly,
and a repetition that differs must be reported.  Runs on a small config so
that it stays quick.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import tracing  # noqa: E402
from run import DETERMINISTIC_COUNTS  # noqa: E402

import optforce.dynamics  # noqa: E402
import optforce.objective  # noqa: E402
from optforce.cli import main  # noqa: E402

STAGES = ("reference", "optimize", "estimate", "compare")


def small_config(tmp_path):
    doc = {
        "potential": {"name": "double_well",
                      "params": {"barrier_scale": 0.5, "skew": -0.25}},
        "h": 2e-3, "dx": 2e-3, "seed": 99, "x0": 1.0,
        "ansatz": {"m": 6, "width": 0.35},
        "descent": {"max_iters": 3, "batch_size": 128, "h": 2e-3},
        "estimate": {"n_paths": 300},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def run_pipeline(config, out, tracer=None):
    undo = tracing.install(tracer) if tracer is not None else None
    try:
        for stage in STAGES:
            if tracer is not None:
                tracer.stage = stage
            assert main([stage, "--config", str(config), "--out", str(out)]) in (0, 1)
    finally:
        if undo is not None:
            undo()
    return harness.digests(out)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One plain and two traced runs of the same small pipeline."""
    tmp = tmp_path_factory.mktemp("pipeline")
    config = small_config(tmp)
    tracers = [tracing.Tracer(), tracing.Tracer()]
    digests = [run_pipeline(config, tmp / "plain")]
    digests += [run_pipeline(config, tmp / f"traced{i}", t) for i, t in enumerate(tracers)]
    return digests, tracers


def test_tracing_changes_no_outputs_and_counts_repeat(runs):
    digests, tracers = runs
    assert {"reference.csv", "ansatz.json", "trace.csv", "estimates.json"} <= set(digests[0])
    assert harness.differences("digests", digests) == []
    counts = [{n: tracing.layer_metrics(t)[n] for n in DETERMINISTIC_COUNTS}
              for t in tracers]
    assert counts[0]["dynamics.path_steps"] > 0
    assert counts[0]["optimizer.iterations"] >= 1
    assert harness.differences("counts", counts) == []
    # the wrappers are gone again
    assert optforce.objective.run_batch is optforce.dynamics.run_batch
    assert not hasattr(optforce.dynamics.run_batch, "__wrapped__")


def test_spans_nest_under_their_callers(runs):
    tracer = runs[1][0]
    by_id = {s["id"]: s for s in tracer.spans}
    for span in tracer.spans:
        if span["name"] == "run_batch" and span["stage"] == "optimize":
            assert by_id[span["parent"]]["layer"] == "objective"
        if span["name"] == "wolfe_line_search":
            assert by_id[span["parent"]]["name"] == "descend"
    metrics = tracing.layer_metrics(tracer)
    assert 0.0 < metrics["dynamics.lane_occupancy"] <= 1.0
    assert metrics["objective.self_s"] < metrics["objective.busy_s"]


def test_loop_iterations_follow_the_kernel_chunks():
    steps = np.r_[np.full(tracing.KERNEL_CHUNK, 10), [3, 7]]
    span = {}
    tracing._batch_counts(span, None, SimpleNamespace(
        n_steps=steps, hit=np.r_[np.ones(steps.size - 1, bool), False]))
    assert span["path_steps"] == 10 * tracing.KERNEL_CHUNK + 10
    assert span["loop_iters"] == 10 + 7
    assert span["lane_slots"] == 10 * tracing.KERNEL_CHUNK + 2 * 7
    assert span["censored"] == 1


def test_a_differing_repetition_is_reported():
    assert harness.differences("digests", [{"a": "1"}, {"a": "1"}], {"a": "1"}) == []
    found = harness.differences("digests", [{"a": "1"}, {"a": "2"}], {"a": "1"})
    assert len(found) == 1 and "repetition 0 and 1" in found[0]
    found = harness.differences("optimizer.probes", [15, 15], 14)
    assert len(found) == 1 and "expected.json" in found[0]
