"""Process running, output digests, output-derived metrics and run environment."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import CHECK_STAGES, DIGEST_PATTERNS

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a fresh interpreter imports the CLI and builds the headline model; prints
# what the run environment record needs once the clock has stopped
SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import optforce.cli
from optforce.config import RunConfig
RunConfig().build_model()
elapsed = time.perf_counter() - t0
import numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except Exception:
    blas = None
print(json.dumps({"import_build_s": elapsed, "optforce": optforce.cli.__file__,
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


# The host's speed drifts by tens of percent within minutes, and a stage's CPU
# time drifts with its wall time, so the slowdown is not time spent waiting.
# Timed stages are interleaved with a fixed kernel shaped like the simulator's
# inner loop (a Python loop of small numpy calls); times are reported scaled
# by CALIBRATION_REF_S over the kernel's mean time in the same run.
CALIBRATION_STEPS = 2000
CALIBRATION_REF_S = 0.15


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes on this host right now."""
    x = np.linspace(-1.0, 1.0, 512)
    centers = np.linspace(-1.5, 2.0, 10)
    coef = np.linspace(-1.0, 1.0, 10)
    t0 = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        d = x[:, None] - centers
        u = (d * np.exp(-d * d / 0.2)) @ coef
        x = np.clip(x + 1e-3 * (u - x ** 3), -2.0, 2.0)
        np.all(np.isfinite(x))
    return perf_counter() - t0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict[str, str]:
    """Environment for every child: this checkout's sources, BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_THREAD_VARS:
        try:
            threads = int(env.get(var, "1"))
        except ValueError:
            threads = 1
        env[var] = str(min(max(threads, 1), nproc()))
    return env


@dataclass
class Proc:
    wall_s: float
    code: int
    max_rss_mb: float


def run_process(argv, env, log: Path, timeout_s: float) -> Proc:
    """Run argv to completion; wall time, exit code and the child's own max RSS."""
    with open(log, "wb") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def stage_completed(command: str, code: int, out: Path) -> bool:
    """Exit 0, or exit 1 from a check stage that wrote its report."""
    if code == 0:
        return True
    return code == 1 and command in CHECK_STAGES and (out / f"{command}.json").is_file()


def digests(out: Path) -> dict[str, str]:
    found = {}
    for pattern in DIGEST_PATTERNS:
        for path in sorted(out.glob(pattern)):
            found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(found.items()))


def _interp(x, xs, ys):
    for i in range(1, len(xs)):
        if x <= xs[i]:
            t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
            return ys[i - 1] + t * (ys[i] - ys[i - 1])
    return ys[-1]


def _last_trace_row(out: Path) -> dict:
    lines = [ln for ln in sorted(out.glob("trace*.csv"))[-1].read_text().splitlines()
             if ln and not ln.startswith("#")]
    return dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))


def output_metrics(workload: str, out: Path, crashed: int) -> dict:
    """Checks and statistical quality, read from the stage outputs."""
    checks = []
    for name in CHECK_STAGES:
        path = out / f"{name}.json"
        if path.is_file():
            doc = json.loads(path.read_text())
            rows = doc["checks"] if name == "compare" else doc["components"]
            checks += [bool(r["pass"]) for r in rows]
    failed = checks.count(False) + crashed
    attempted = len(checks) + crashed
    found = {"checks_run": attempted, "checks_failed": failed,
             "failed_frac": failed / attempted if attempted else 0.0}
    if crashed:
        return found
    if workload == "headline":
        records = {r["quantity"]: r for r in
                   json.loads((out / "estimates.json").read_text())["records"]}
        f_hat, psi = records["free_energy"], records["psi"]
        optimize = json.loads((out / "optimize.json").read_text())
        rows = [ln.split(",") for ln in (out / "reference.csv").read_text().splitlines()
                if ln and ln[0] not in "#x"]
        f_ref = _interp(optimize["x0"], [float(r[0]) for r in rows],
                        [float(r[2]) for r in rows])
        found.update(f_stderr=f_hat["stderr"], psi_ess_frac=psi["ess"] / psi["n"],
                     cost_gap=optimize["final_cost"] - f_ref,
                     rel_stderr=f_hat["stderr"] / abs(f_hat["estimate"]))
    elif workload == "gradcheck":
        rows = json.loads((out / "gradcheck.json").read_text())["components"]
        norm = sum(r["gradient"] ** 2 for r in rows) ** 0.5
        se = sum(r["combined_stderr"] ** 2 for r in rows) ** 0.5
        found["rel_stderr"] = se / norm
    else:
        last = _last_trace_row(out)
        found["rel_stderr"] = last["stderr"] / abs(last["cost"])
    return found


def differences(what, seen: list, expected=None) -> list[str]:
    """Determinism failures: repetitions that differ from the first, or from expected."""
    found = [f"{what} differ between repetition 0 and {i}: {seen[0]} != {value}"
             for i, value in enumerate(seen) if value != seen[0]]
    if expected is not None and seen and seen[0] != expected:
        found.append(f"{what} differ from expected.json: {seen[0]} != {expected}")
    return found


def median(values):
    return float(statistics.median(values))


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, env: dict, probe: dict) -> dict:
    return {"git_commit": git_commit(root), "source_sha256": source_digest(root),
            "nproc": nproc(), "python": probe["python"], "numpy": probe["numpy"],
            "scipy": probe["scipy"], "blas": probe["blas"],
            "blas_threads": {var: env[var] for var in BLAS_THREAD_VARS}}
