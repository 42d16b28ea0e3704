"""Run one workload's CLI stages in this process through `optforce.cli.main`.

    python3 perfbench/inproc.py --workload headline --model-seed 20240 \
        --out DIR --result FILE --trace 1

With `--trace 1` the layer wrappers are installed before the first stage;
with `--trace 0` the same stages run unwrapped, which is the base for the
tracing overhead.  Imports happen before the first stage is timed.  Writes
per-stage wall times, output digests and (traced) layer metrics to FILE,
and the spans to spans.json beside it.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import harness
import tracing
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--model-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import optforce.cli
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    stages = []
    for stage in WORKLOADS[args.workload]:
        tracer.stage = stage.command
        t0 = perf_counter()
        try:
            code = optforce.cli.main(stage.argv(args.model_seed, args.out))
        except Exception:
            traceback.print_exc()
            code = -1
        stages.append({"command": stage.command, "wall_s": perf_counter() - t0,
                       "code": code,
                       "completed": harness.stage_completed(stage.command, code, args.out)})
    result = {"optforce": optforce.cli.__file__, "stages": stages,
              "digests": harness.digests(args.out)}
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(args.result.parent / "spans.json")
    args.result.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
