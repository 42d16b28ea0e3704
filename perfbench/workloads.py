"""The benchmark's workloads: which `optforce` CLI stages run, in what order.

Every workload pins its model seed.  The seed decides how much work the
descent does (headline `optimize` takes 4.1-7.1 s across seeds 1-4, 7 and
20240 on one 2-core host), so a sweep over seeds would measure the seed,
not the code.  20240 is the default because it is the paper's headline run
and keeps the known `tilted_mfpt_coverage` failure visible; 7 is the
held-out seed, recorded and reported on its own, never pooled with 20240.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_MODEL_SEED = 20240

# outputs whose bytes must not change between repetitions, between traced and
# untraced runs, or against the digests stored in expected.json
DIGEST_PATTERNS = ("reference.csv", "oracle_probes.json", "ansatz.json",
                   "trace*.csv", "estimates.json", "gradcheck.json")

# stages whose exit code 1 reports failed checks, not a failed run
CHECK_STAGES = ("compare", "gradcheck")


@dataclass(frozen=True)
class Stage:
    command: str
    extra: tuple[str, ...] = ()

    def argv(self, seed: int, out: Path) -> list[str]:
        """CLI arguments; only values YAML reads as numbers go through --set."""
        return [self.command, "--seed", str(seed), "--out", str(out),
                "--workers", "1", *self.extra]


WORKLOADS: dict[str, tuple[Stage, ...]] = {
    # the paper's headline run; long-tailed path lengths, line-search probes
    "headline": (Stage("reference"), Stage("optimize"), Stage("estimate"),
                 Stage("compare")),
    # fixed-horizon batches: every lane busy every step, no line search
    "gradcheck": (Stage("gradcheck"),),
    # three short descents with a terminal value and a masked ansatz
    "shells": (Stage("optimize", ("--set", "ladder.shells=3")),),
}
