"""The benchmark's recorded output digests, checked on every test run.

perfbench/expected.json holds the sha256 of each output the benchmark
digests, per workload, at model seed 20240.  These tests rerun the `shells`
workload's `optimize`, the headline `reference`, `optimize` and `estimate`
and the `gradcheck` workload in this process and compare the bytes of
`reference.csv`, `oracle_probes.json`, `ansatz.json`, the `trace*.csv`
files, `estimates.json` and `gradcheck.json`, so a change that moves an
output bit fails here too and not only in a benchmark run.  The descent's `iterations` and `probes` in
`optimize.json` must equal the optimizer counts the benchmark's tracer
recorded beside the digests, and on `shells`, whose one stage is
`optimize`, its `path_steps` and `loop_iters` the kernel counts, so
telemetry and benchmark cannot drift apart.
The headline test also checks how many next-iterate batches the descent
joined from a child that ran them ahead: all 8 accepted probes' where the
process may use a second CPU, none on one.  The `shells` and `gradcheck`
runs are repeated where os.fork fails, which leaves the next iterate's batch
and every group of a split batch to run here, one segment at a time.
"""

import hashlib
import json
import os
from fnmatch import fnmatch
from pathlib import Path

import pytest

from blas_rounding import skip_unless_recorded_gemv
from optforce.cli import main

MODEL_SEED = 20240
EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
PATTERNS = ("ansatz.json", "trace*.csv", "estimates.json", "gradcheck.json")
REFERENCE_PATTERNS = ("reference.csv", "oracle_probes.json")


@pytest.fixture(autouse=True)
def same_blas_rounding():
    skip_unless_recorded_gemv()


def expected(workload: str) -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)[workload][str(MODEL_SEED)]


def recorded(workload: str, patterns=PATTERNS) -> dict[str, str]:
    return {name: digest for name, digest in expected(workload)["digests"].items()
            if any(fnmatch(name, p) for p in patterns)}


def assert_descent_counts(out: Path, workload: str):
    summary = json.loads((out / "optimize.json").read_text())
    counts = expected(workload)["counts"]
    assert (summary["iterations"], summary["probes"]) == (
        counts["optimizer.iterations"], counts["optimizer.probes"])
    if workload == "shells":
        # optimize is the workload's one stage, so every batch traced is the
        # descent's: 512 paths, one kernel segment, which the tracer's
        # loop-iteration model counts as the kernel does
        assert (summary["path_steps"], summary["loop_iters"]) == (
            counts["dynamics.path_steps"], counts["dynamics.loop_iters"])


def written(out: Path, patterns=PATTERNS) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for pattern in patterns for path in sorted(out.glob(pattern))}


def run(out: Path, *args: str):
    assert main([*args, "--seed", str(MODEL_SEED), "--out", str(out)]) == 0


def test_shells_optimize_writes_the_recorded_bytes(tmp_path):
    run(tmp_path, "optimize", "--set", "ladder.shells=3")
    assert written(tmp_path) == recorded("shells")
    assert_descent_counts(tmp_path, "shells")


def test_shells_optimize_writes_the_recorded_bytes_where_fork_fails(tmp_path, cpus,
                                                                    fork_fails):
    # every probe's next iterate is left to run here
    cpus(2)
    run(tmp_path, "optimize", "--set", "ladder.shells=3")
    assert written(tmp_path) == recorded("shells")
    assert_descent_counts(tmp_path, "shells")
    summary = json.loads((tmp_path / "optimize.json").read_text())
    assert fork_fails and summary["batches_ahead"] == 0


def test_headline_reference_writes_the_recorded_bytes(tmp_path):
    run(tmp_path, "reference")
    assert written(tmp_path, REFERENCE_PATTERNS) == recorded("headline", REFERENCE_PATTERNS)


def test_headline_optimize_and_estimate_write_the_recorded_bytes(tmp_path):
    run(tmp_path, "optimize")
    run(tmp_path, "estimate")
    assert written(tmp_path) == recorded("headline")
    assert_descent_counts(tmp_path, "headline")
    # 8 of the 15 probes are accepted, and with a second CPU the next
    # iterate joins the batch each of them started ahead
    summary = json.loads((tmp_path / "optimize.json").read_text())
    assert summary["batches_ahead_used"] == (8 if len(os.sched_getaffinity(0)) >= 2 else 0)


def test_gradcheck_writes_the_recorded_bytes(tmp_path):
    run(tmp_path, "gradcheck")
    assert written(tmp_path) == recorded("gradcheck")


def test_gradcheck_writes_the_recorded_bytes_where_fork_fails(tmp_path, cpus, fork_fails):
    # every group of a batch of several segments runs here, one segment at a time
    cpus(2)
    run(tmp_path, "gradcheck")
    assert written(tmp_path) == recorded("gradcheck")
    assert fork_fails
