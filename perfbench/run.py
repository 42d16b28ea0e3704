"""optforce benchmark: wall time and statistical quality of the CLI pipeline.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 40 --trace 0

`--trace 0` runs the workload's CLI stages as separate processes, one at a
time, at `--workers 1`, and reports the end-to-end metrics of
BENCHMARK.json.  `--trace 1` runs the same stages in-process, once plain and
once with the layer wrappers of tracing.py, and reports the per-layer
metrics and the tracing overhead.  Both check the outputs against the
digests and counts in expected.json; `--record` stores them for a new model
seed.  `--model-seed` (default 20240) is the seed the CLI gets; `--seed`
orders the set-up probes among the stage runs (see workloads.py for why the
model seed is pinned).  The last stdout line is the JSON result; the full
record, with the run environment, is written under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import harness
from workloads import DEFAULT_MODEL_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
# counts that must repeat exactly; digests are checked alongside them
DETERMINISTIC_COUNTS = ("dynamics.path_steps", "dynamics.loop_iters",
                        "optimizer.probes", "optimizer.iterations")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0
ALL_STAGES = tuple(dict.fromkeys(s.command for w in WORKLOADS.values() for s in w))
# printed with the end-to-end metrics where the workload has them; not in the
# result line, which needs metrics that every workload has and that are never 0
REPORT_UNITS = {"reference_s": "s", "optimize_s": "s", "estimate_s": "s",
                "compare_s": "s", "gradcheck_s": "s", "host_factor": "ratio",
                "wall_raw_s": "s", "failed_frac": "ratio",
                "f_stderr": "1", "psi_ess_frac": "ratio", "cost_gap": "1"}


class Run:
    def __init__(self, args):
        self.args = args
        self.t0 = perf_counter()
        self.env = harness.child_env(ROOT)
        self.work = ROOT / ".perfbench_work" / f"{args.workload}-{args.model_seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.errors: list[str] = []
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
        self.expected = expected.get(str(args.model_seed))

    def left(self) -> float:
        return TIME_LIMIT_S - (perf_counter() - self.t0)

    def room_for(self, duration) -> bool:
        """Whether one more repetition fits in --seconds and the time limit."""
        elapsed = perf_counter() - self.t0
        return elapsed + duration <= self.args.seconds and duration < self.left() - 15.0

    def process(self, argv, log):
        return harness.run_process(argv, self.env, self.work / log, self.left())

    def probe(self, i) -> tuple[float, dict]:
        self.calibration.append(harness.calibrate())
        proc = self.process([sys.executable, "-c", harness.SETUP_PROBE], f"probe{i}.log")
        lines = (self.work / f"probe{i}.log").read_text().splitlines()
        if proc.code != 0 or not lines:
            raise SystemExit(f"error: set-up probe failed (exit {proc.code}); "
                             f"see {self.work / f'probe{i}.log'}")
        info = json.loads(lines[-1])
        if not Path(info["optforce"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"error: imported optforce from {info['optforce']}, "
                             f"not from {ROOT / 'src'}")
        return proc.wall_s, info

    def need_expected(self):
        if self.expected is None:
            raise SystemExit(f"error: expected.json has no entry for workload "
                             f"{self.args.workload!r} at model seed "
                             f"{self.args.model_seed}; run once with --record")

    # -- end-to-end: stages as processes --------------------------------------

    def rep(self, i) -> dict:
        out = self.work / f"rep{i}"
        out.mkdir()
        stages = {}
        crashed = 0
        for stage in WORKLOADS[self.args.workload]:
            argv = [sys.executable, "-m", "optforce.cli",
                    *stage.argv(self.args.model_seed, out)]
            self.calibration.append(harness.calibrate())
            proc = self.process(argv, f"rep{i}-{stage.command}.log")
            self.attempted += 1
            if not harness.stage_completed(stage.command, proc.code, out):
                crashed += 1
                self.errors.append(f"rep {i}: stage {stage.command} failed with "
                                   f"exit {proc.code}")
            stages[stage.command] = proc
        self.failed += crashed
        return {"stages": {c: vars(p) for c, p in stages.items()},
                "peak_rss_mb": max(p.max_rss_mb for p in stages.values()),
                "digests": harness.digests(out),
                "outputs": harness.output_metrics(self.args.workload, out, crashed)}

    def end_to_end(self) -> dict:
        rng = random.Random(self.args.seed)
        slots = [rng.randrange(3) for _ in range(SETUP_PROBES)]
        setup = []

        def probes(slot):
            for i in [i for i, s in enumerate(slots) if s == slot]:
                setup.append(self.probe(i)[0])

        probes(0)
        reps = [self.rep(0)]
        probes(1)
        started = perf_counter()
        reps.append(self.rep(1))
        while self.room_for((perf_counter() - started) / (len(reps) - 1)):
            reps.append(self.rep(len(reps)))
        probes(2)

        self.errors += harness.differences("output digests", [r["digests"] for r in reps],
                                           self.expected["digests"])
        # per-stage medians, so that a burst of host load in one stage of one
        # repetition does not carry into the workload's total
        stage_s = {command: harness.median([r["stages"][command]["wall_s"] for r in reps])
                   for command in reps[0]["stages"]}
        # the mean, not the median: the kernel's time is bimodal (the host has a
        # fast and a slow state), and a long stage runs through a mix of both
        host = statistics.fmean(self.calibration) / harness.CALIBRATION_REF_S
        stage_s = {command: t / host for command, t in stage_s.items()}
        wall = sum(stage_s.values())
        path_steps = self.expected["counts"]["dynamics.path_steps"]
        metrics = {"setup_s": harness.median(setup) / host, "wall_s": wall,
                   "slowest_stage_s": max(stage_s.values()),
                   "path_steps_per_s": path_steps / wall,
                   "peak_rss_mb": harness.median([r["peak_rss_mb"] for r in reps]),
                   **{f"{command}_s": t for command, t in stage_s.items()},
                   "host_factor": host, "wall_raw_s": wall * host}
        metrics.update(reps[0]["outputs"])
        return {"metrics": metrics, "setup_probes_s": setup,
                "calibration_s": self.calibration, "reps": reps}

    # -- per layer: stages in-process, plain and traced ------------------------

    def inproc(self, i, trace) -> dict:
        out = self.work / f"inproc{i}-trace{trace}"
        out.mkdir()
        result = out / "result.json"
        argv = [sys.executable, str(HERE / "inproc.py"), "--workload",
                self.args.workload, "--model-seed", str(self.args.model_seed),
                "--out", str(out), "--result", str(result), "--trace", str(trace)]
        proc = self.process(argv, f"inproc{i}-trace{trace}.log")
        if proc.code != 0 or not result.is_file():
            raise SystemExit(f"error: in-process run failed (exit {proc.code}); see "
                             f"{self.work / f'inproc{i}-trace{trace}.log'}")
        doc = json.loads(result.read_text())
        if not Path(doc["optforce"]).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"error: imported optforce from {doc['optforce']}")
        for stage in doc["stages"]:
            self.attempted += 1
            if not stage["completed"]:
                self.failed += 1
                self.errors.append(f"in-process {i} (trace {trace}): stage "
                                   f"{stage['command']} failed with exit {stage['code']}")
        return doc

    def pairs(self) -> tuple[list, list]:
        plain, traced = [], []
        while True:
            started = perf_counter()
            plain.append(self.inproc(len(plain), 0))
            traced.append(self.inproc(len(traced), 1))
            if not self.room_for(perf_counter() - started):
                return plain, traced

    def per_layer(self) -> dict:
        plain, traced = self.pairs()
        self.check_pairs(plain, traced, self.expected)
        metrics = {name: harness.median([d["layers"][name] for d in traced])
                   for name in traced[0]["layers"]}
        for command in ALL_STAGES:
            base = [s["wall_s"] for d in plain for s in d["stages"]
                    if s["command"] == command]
            with_trace = [s["wall_s"] for d in traced for s in d["stages"]
                          if s["command"] == command]
            metrics[f"stage.{command}_s"] = harness.median(base) if base else 0.0
            metrics[f"trace.{command}_overhead_s"] = \
                harness.median(with_trace) - harness.median(base) if base else 0.0
        return {"metrics": metrics, "plain": plain, "traced": traced}

    def check_pairs(self, plain, traced, expected):
        """Digests agree across plain and traced runs, counts across traced ones."""
        self.errors += harness.differences(
            "output digests (plain and traced)", [d["digests"] for d in plain + traced],
            expected and expected["digests"])
        for name in DETERMINISTIC_COUNTS:
            self.errors += harness.differences(
                name, [d["layers"][name] for d in traced],
                expected and expected["counts"][name])

    def record(self):
        plain, traced = self.pairs()
        self.check_pairs(plain, traced, None)
        if self.errors:
            return
        doc = json.loads(EXPECTED.read_text())
        doc.setdefault(self.args.workload, {})[str(self.args.model_seed)] = {
            "digests": traced[0]["digests"],
            "counts": {n: traced[0]["layers"][n] for n in DETERMINISTIC_COUNTS}}
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"recorded {self.args.workload} at model seed {self.args.model_seed}")


def report(metrics: dict, units: dict):
    for name, value in metrics.items():
        if name in units:
            print(f"  {name:36s} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the set-up probes among the stage runs")
    parser.add_argument("--model-seed", type=int, default=DEFAULT_MODEL_SEED,
                        help="the seed every CLI stage runs with")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store digests and counts for this model seed")
    args = parser.parse_args(argv)
    # the child processes are stopped on the way out (harness.run_process)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "optforce" / "cli.py").is_file():
        print(f"error: no optforce sources at {ROOT / 'src' / 'optforce'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args)
    if args.record:
        run.record()
        for err in run.errors:
            print(f"FAIL: {err}", file=sys.stderr)
        return 1 if run.errors else 0

    run.need_expected()
    _, probe = run.probe("warmup")   # fills the bytecode caches; untimed
    found = run.per_layer() if args.trace else run.end_to_end()
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    found.update(workload=args.workload, model_seed=args.model_seed, seed=args.seed,
                 trace=args.trace, errors=run.errors,
                 environment=harness.environment(ROOT, run.env, probe))
    (run.work / f"result-trace{args.trace}.json").write_text(
        json.dumps(found, indent=1, default=str) + "\n")

    print(f"{args.workload} at model seed {args.model_seed}, "
          f"{'traced (per layer)' if args.trace else 'untraced (end to end)'}:")
    report(found["metrics"], units if args.trace else {**REPORT_UNITS, **units})
    for err in run.errors:
        print(f"FAIL: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.errors, "attempted": run.attempted, "failed": run.failed,
        "metrics": {m["name"]: {"value": found["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in found["metrics"]}}))
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())
