"""Command-line front end.

Subcommands orchestrate the pipeline and emit CSV/JSON data files for
offline plotting; nothing is plotted in-process.  Reruns with the same
config and seed write byte-identical results: reference.csv,
oracle_probes.json, ansatz.json, the trace CSVs, estimates.json and
gradcheck.json, the six kinds of output the benchmark digests.  This
module owns the stage files' formats: it alone writes and reads them
(ansatz.json holds GaussianAnsatz.to_json's text), and a stage input it
cannot read ends the run with exit 2 and a message that names the file.
optimize.json also reports run telemetry, some of which depends on the host:
wall_s is the descent's wall time, and batches_ahead_used counts the batches
a second CPU ran ahead, which is 0 where the process may use one CPU.  Every
output but ansatz.json embeds the config hash; the optimize.json written
beside it vouches for it.
ansatz.json holds each shell's lowest-cost iterate, which need not be where
its descent stopped: optimize.json's returned_iterations and
boundary_values name those iterates and their costs, while final_cost,
grad_norm, termination_threshold and converged describe where the descents
stopped (the benchmark's cost_gap reads final_cost).

    reference   finite-difference reference curves + quadrature oracle probes
    optimize    learn the forcing by descent on a ladder of milestoning shells
                (one shell by default: a plain descent from x0)
    estimate    reweighted estimators from tilted paths: psi, F and the MFPT
                of the tilted landscape; with estimate.untilted, psi, F and
                the MFPT of the plain dynamics, and no ansatz.json is read
    gradcheck   fixed-horizon exact gradient vs finite differences
    compare     join reference and estimates into a pass/fail report
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import numpy as np

from .ansatz import GaussianAnsatz, init_fill_wells, tilted_potential_from
from .config import ConfigError, RunConfig, load_yaml
from .dynamics import PathFailure, kernel_counts
from .estimators import estimate_mfpt_forced, estimate_psi_reweighted
from .milestoning import MilestoningError, run_milestoning
from .objective import estimate_cost, estimate_exact_gradient_fixed_horizon
from .reference import (QuadratureError, ReferenceError, mfpt_quadrature_oracle,
                        solve_mfpt_pde, solve_reference)

N_ORACLE_PROBES = 20

# Slack for the variational-bound check: covers the time-discretization shift
# of the estimated cost plus reference-grid error.  The Euler chain's exact
# cost at the descent's h = 2e-3 lies +0.026 above the continuum at the
# basis optimum and +0.044 at the learned headline ansatz (transfer-operator
# solve against the finite-difference reference); kept as a regression bound.
DISCRETIZATION_ALLOWANCE = 0.05

SPEEDUP_BAND = (30.0, 300.0)

# components whose central differences gradcheck runs per kernel call: their
# +/- forcings share each path's noise, drawn once per call, and a kernel
# loop holds 2 x this x KERNEL_CHUNK rows.  2 took gradcheck to 0.85-0.90x
# of 1; 3 beat 2 in only 7 of 10 alternating runs and held 1 MB more; above
# 5, perfbench's model of the loop count (1024-row chunks) no longer holds
FD_COMPONENTS_PER_CALL = 2

# optimize's descent traces: trace.csv, or trace_shell_<i>.csv per shell
TRACE_FILES = "trace*.csv"

REFERENCE_COLUMNS = ("x", "psi", "F", "mfpt")
TRACE_COLUMNS = ("iteration", "cost", "grad_norm", "alpha", "stderr", "mean_steps")


class StageFileError(Exception):
    """A stage's input file that cannot be read or does not hold what the
    stage writes; the message names the file."""


def _trace_name(i: int, n_shells: int) -> str:
    """The trace file of shell i; one shell is a plain descent and keeps the plain name."""
    return "trace.csv" if n_shells == 1 else f"trace_shell_{i}.csv"


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n")


def _write_csv(path: Path, config_hash: str, columns, rows, newline: str = "\n"):
    """A stage CSV: a `# config_hash:` line, the header and one line per row of
    Python ints and floats, each written by repr so that it reads back bit for bit.

    The hash line ends in "\\n" and the header and rows in newline.  The trace
    files pass "\\r\\n", csv.writer's line ending, which their recorded
    digests hold; reference.csv keeps "\\n".
    """
    lines = [",".join(columns), *(",".join(map(repr, row)) for row in rows)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash: {config_hash}\n" + "".join(ln + newline for ln in lines))


def _read_text(path: Path, hint: str = "rerun the stage that writes it") -> str:
    """The text of a stage's input file; a StageFileError names the file, with
    hint, where it cannot be read or is not UTF-8 text."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        raise StageFileError(f"{path}: cannot read it ({err.strerror or err}); {hint}") from None
    except UnicodeDecodeError as err:
        raise StageFileError(f"{path}: not UTF-8 text ({err}); {hint}") from None


def _read_csv(path: Path, columns) -> tuple[str, list[dict[str, float]]]:
    """The hash on a stage CSV's `# config_hash:` line and its rows keyed by its
    header; a StageFileError names the file where it cannot be read, the
    header is not columns or a row is not one number per column."""
    first, _, body = _read_text(path).partition("\n")
    header, *lines = body.splitlines() or [""]
    if header.split(",") != list(columns) or not lines:
        raise StageFileError(f"{path}: expected the header {','.join(columns)} and at "
                             "least one row; rerun the stage that writes it")
    rows = []
    for n, line in enumerate(lines, start=3):
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError:
            values = []
        if len(values) != len(columns):
            raise StageFileError(f"{path}: line {n} is not {len(columns)} numbers "
                                 f"({line!r}); rerun the stage that writes it")
        rows.append(dict(zip(columns, values)))
    return first.removeprefix("# config_hash: "), rows


def _read_json(path: Path, *keys: str) -> dict:
    """The JSON object in a stage file, which must hold keys; a StageFileError
    names the file where it cannot be read or does not."""
    try:
        doc = json.loads(_read_text(path))
    except ValueError as err:
        raise StageFileError(f"{path}: not JSON ({err})") from None
    if not isinstance(doc, dict):
        raise StageFileError(f"{path}: not a JSON object; rerun the stage that writes it")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise StageFileError(f"{path}: no {', '.join(missing)} entry; rerun the stage "
                             "that writes it")
    return doc


def _is_number(value) -> bool:
    """Whether a JSON value is an int or a float (a bool is neither here)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _malformed(path: Path, entry: str, expected: str) -> StageFileError:
    return StageFileError(f"{path}: {entry} is not {expected}; rerun the stage that writes it")


def cmd_reference(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    grid = cfg.build_grid()
    psi, free_energy, mfpt = solve_reference(model.potential, model.sigma, cfg.epsilon, grid)
    _write_csv(out / "reference.csv", cfg.config_hash(), REFERENCE_COLUMNS,
               zip(*(a.tolist() for a in (grid.nodes, psi, free_energy, mfpt))))

    # oracle probes from 5% into the grid out to its outer wall hi
    lo, hi = grid.lo, grid.hi
    probes = np.linspace(lo + 0.05 * (hi - lo), hi, N_ORACLE_PROBES)
    rows = []
    for x in probes:
        quad_val = mfpt_quadrature_oracle(model.potential, cfg.epsilon, float(x),
                                          absorb_at=lo, reflect_at=hi)
        pde_val = float(np.interp(x, grid.nodes, mfpt))
        rows.append({"x": float(x), "mfpt_pde": pde_val, "mfpt_quadrature": quad_val,
                     "rel_error": abs(pde_val - quad_val) / abs(quad_val)})
    _write_json(out / "oracle_probes.json", {
        "config_hash": cfg.config_hash(),
        "max_rel_error": max(r["rel_error"] for r in rows),
        "probes": rows,
    })
    print(f"reference: wrote {out/'reference.csv'} and {out/'oracle_probes.json'}")
    return 0


def cmd_optimize(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    ansatz = cfg.build_ansatz()
    a0 = init_fill_wells(ansatz, model.potential, cfg.build_grid())
    ansatz = ansatz.with_coefficients(a0)
    sim_cfg = cfg.descent_sim_config()
    chash = cfg.config_hash()

    ladder = cfg.build_ladder(model)
    before, t0 = kernel_counts(), perf_counter()
    result = run_milestoning(ladder, ansatz, model, sim_cfg, cfg.descent,
                             seed=cfg.seed, x0=x0)
    wall_s = perf_counter() - t0
    descent = kernel_counts() - before
    final = result.ansatz
    traces = result.shell_traces
    # compare reads every trace file in out as this run's: an earlier
    # ladder's would fail its hash check for good
    for old in out.glob(TRACE_FILES):
        old.unlink()
    for i, trace in enumerate(traces):
        rows = [(r.iteration, *map(float, (r.cost, r.grad_norm, r.alpha, r.cost_stderr,
                                           r.mean_steps))) for r in trace.records]
        _write_csv(out / _trace_name(i, len(traces)), chash, TRACE_COLUMNS, rows,
                   newline="\r\n")

    (out / "ansatz.json").write_text(final.to_json() + "\n")
    # report the stopping level actually in force at the final iterate
    thresholds = [cfg.descent.stop_level(t.records[-1].grad_stderr_norm) for t in traces]
    records = [r for t in traces for r in t.records]
    _write_json(out / "optimize.json", {
        "config_hash": chash,
        "x0": x0,
        "converged": all(t.converged for t in traces),
        "non_converging_flag": any(t.non_converging for t in traces),
        "final_cost": traces[-1].records[-1].cost,
        "grad_norm": traces[-1].records[-1].grad_norm,
        "termination_threshold": max(thresholds),
        "boundary_offset": float(final.value(model.stopping_set.hi)),
        "iterations": len(records),
        "probes": sum(r.probes for r in records),
        "line_search_fallbacks": sum(r.line_search_fallback for r in records),
        # the descent's share of the kernel counts: its batches, their
        # path-steps and loop iterations, and the next iterates' batches run
        # ahead and joined
        **asdict(descent),
        "wall_s": wall_s,
        "mean_steps": float(np.mean([t.mean_steps for t in traces])),
        "boundary_values": [float(v) for v in result.anchors[1:]],
        "returned_iterations": [t.records[t.returned].iteration for t in traces],
        "shells": ladder.n_shells,
    })
    print(f"optimize: wrote {out/'ansatz.json'} ({ladder.n_shells} shell(s), "
          f"{len(records)} iterations)")
    return 0


def _load_ansatz(out: Path) -> GaussianAnsatz:
    path = out / "ansatz.json"
    try:
        ansatz = GaussianAnsatz.from_json(_read_text(path, "run the `optimize` subcommand first"))
        if not np.isfinite([ansatz.centers, ansatz.widths, ansatz.coefficients]).all():
            raise ValueError("a center, width or coefficient is not finite")
        return ansatz
    except (KeyError, TypeError, ValueError) as err:
        raise StageFileError(f"{path}: not an ansatz ({type(err).__name__}: {err}); rerun "
                             "the `optimize` subcommand") from None


def cmd_estimate(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    # untilted: the plain dynamics, whose paths all weigh one
    control = None if cfg.estimate.untilted else _load_ansatz(out)
    n = cfg.estimate.n_paths
    sim_cfg = cfg.sim_config()
    chash = cfg.config_hash()

    records = []

    def record(quantity, res):
        records.append({"quantity": quantity, "x0": x0, "estimate": res.estimate,
                        "stderr": res.stderr, "ci95": list(res.ci95), "n": res.n_paths,
                        "ess": res.ess, "config_hash": chash})

    psi = estimate_psi_reweighted(control, x0, model, sim_cfg, seed=cfg.seed, tag=1,
                                  n_paths=n)
    record("psi", psi.psi)
    record("free_energy", psi.free_energy)

    # the forced paths' hitting times: the forcing by F on V is the plain
    # dynamics on the tilted landscape G = V + 2F, so these are samples of
    # G's MFPT, or of V's own where control is None
    mfpt = estimate_mfpt_forced(control, x0, model, sim_cfg, seed=cfg.seed, tag=2,
                                n_paths=n)
    record("mfpt" if control is None else "mfpt_tilted", mfpt)

    _write_json(out / "estimates.json", {"config_hash": chash, "records": records})
    print(f"estimate: wrote {out/'estimates.json'} ({len(records)} quantities)")
    return 0


def cmd_gradcheck(cfg: RunConfig, out: Path) -> int:
    horizon = 0.5
    fixed_steps = round(horizon / cfg.h)
    if abs(horizon / cfg.h - fixed_steps) > 1e-9:
        raise ConfigError(f"h: gradcheck runs a horizon of {horizon}, which h={cfg.h} "
                          "does not divide into whole steps")
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    ansatz = cfg.build_ansatz()
    n_paths = 4000
    sim_cfg = cfg.sim_config()
    rng = np.random.default_rng(cfg.seed)
    a = 0.5 * rng.standard_normal(ansatz.m)
    ansatz = ansatz.with_coefficients(a)

    est = estimate_exact_gradient_fixed_horizon(ansatz, x0, model, sim_cfg, fixed_steps,
                                                seed=cfg.seed, tag=5, n_paths=n_paths)
    delta = 1e-3
    steps = delta * np.eye(ansatz.m)
    # a + step and a - step of FD_COMPONENTS_PER_CALL components run as one
    # batch: every path of every side is on its stream (seed, tag 5, i), so
    # the sides share their noise by construction and the kernel draws it
    # once for all of them
    sides = []
    for j0 in range(0, ansatz.m, FD_COMPONENTS_PER_CALL):
        group = steps[j0:j0 + FD_COMPONENTS_PER_CALL]
        forcings = [ansatz.with_coefficients(b) for step in group for b in (a + step, a - step)]
        sides += estimate_cost(forcings, x0, model, sim_cfg, seed=cfg.seed, tag=5,
                               fixed_steps=fixed_steps, n_paths=n_paths)
    rows = []
    ok_all = True
    for j in range(ansatz.m):
        (up, up_se), (dn, dn_se) = sides[2 * j:2 * j + 2]
        fd = (up - dn) / (2 * delta)
        combined_se = float(np.hypot(est.gradient_stderr[j],
                                     np.hypot(up_se, dn_se) / (2 * delta)))
        tol = max(3.0 * combined_se, 1e-3 * abs(est.gradient[j]))
        ok = bool(abs(fd - est.gradient[j]) <= tol)
        ok_all &= ok
        rows.append({"component": j, "gradient": float(est.gradient[j]),
                     "finite_difference": fd, "combined_stderr": combined_se,
                     "pass": ok})
    _write_json(out / "gradcheck.json", {
        "config_hash": cfg.config_hash(), "horizon": horizon, "n_paths": n_paths,
        "pass": ok_all, "components": rows,
    })
    print(f"gradcheck: {'PASS' if ok_all else 'FAIL'} ({ansatz.m} components)")
    return 0 if ok_all else 1


def cmd_compare(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    chash = cfg.config_hash()
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    ref_hash, ref_rows = _read_csv(out / "reference.csv", REFERENCE_COLUMNS)
    probes = _read_json(out / "oracle_probes.json", "max_rel_error")
    if not _is_number(probes["max_rel_error"]):
        raise _malformed(out / "oracle_probes.json", "max_rel_error", "a number")
    estimates = _read_json(out / "estimates.json", "records")
    records = estimates["records"]
    if not (isinstance(records, list) and all(
            isinstance(r, dict) and isinstance(r.get("quantity"), str) for r in records)):
        raise _malformed(out / "estimates.json", "records",
                         "a list of objects that each name their quantity")
    by_name = {r["quantity"]: r for r in records}
    rec = by_name.get("mfpt_tilted")
    if rec is not None and not (isinstance(rec.get("ci95"), list) and len(rec["ci95"]) == 2
                                and all(map(_is_number, rec["ci95"]))):
        raise _malformed(out / "estimates.json", "the mfpt_tilted record's ci95",
                         "two numbers")
    # ansatz.json carries no hash; optimize.json is written with it
    optimized = _read_json(out / "optimize.json")
    ladder = cfg.build_ladder(model)
    names = [_trace_name(i, ladder.n_shells) for i in range(ladder.n_shells)]
    traces = {name: _read_csv(out / name, TRACE_COLUMNS) for name in names}
    inputs = {"reference.csv": ref_hash,
              "oracle_probes.json": probes.get("config_hash"),
              "estimates.json": estimates.get("config_hash"),
              "optimize.json": optimized.get("config_hash"),
              **{name: h for name, (h, _) in traces.items()}}
    stale = [name for name, h in inputs.items() if h != chash]
    if stale:
        print(f"error: {', '.join(stale)} in {out} came from another config; rerun "
              f"the stages that write them at config_hash {chash}", file=sys.stderr)
        return 2

    ref = {name: np.array([r[name] for r in ref_rows]) for name in ("x", "F", "mfpt")}
    check("pde_vs_oracle", probes["max_rel_error"] < 1e-3,
          {"max_rel_error": probes["max_rel_error"], "tolerance": 1e-3})

    ansatz = _load_ansatz(out)
    grid = cfg.build_grid()
    tilted = tilted_potential_from(ansatz, model.potential)
    m_tilted_ref = solve_mfpt_pde(tilted, cfg.epsilon, grid)
    m_tilted_x0 = float(np.interp(x0, grid.nodes, m_tilted_ref))

    if rec is not None:
        lo, hi = rec["ci95"]
        check("tilted_mfpt_coverage", lo <= m_tilted_x0 <= hi,
              {"reference": m_tilted_x0, "ci95": [lo, hi]})

    m_plain_x0 = float(np.interp(x0, ref["x"], ref["mfpt"]))
    ratio = m_plain_x0 / m_tilted_x0
    check("speedup_band", SPEEDUP_BAND[0] <= ratio <= SPEEDUP_BAND[1],
          {"ratio": ratio, "band": list(SPEEDUP_BAND),
           "mfpt_plain": m_plain_x0, "mfpt_tilted": m_tilted_x0})

    # variational bound over every iterate of each shell's trace: its cost
    # estimates F at the shell's start, x0 or the shell's outer threshold
    shells = []
    for i, (name, (_, rows)) in enumerate(traces.items()):
        start = ladder.start(i, x0)
        f_start = float(np.interp(start, ref["x"], ref["F"]))
        worst = min(row["cost"] - (f_start - 3.0 * row["stderr"] - DISCRETIZATION_ALLOWANCE)
                    for row in rows)
        shells.append({"trace_file": name, "start": start, "f_reference": f_start,
                       "worst_margin": worst})
    check("variational_bound", all(s["worst_margin"] >= 0.0 for s in shells),
          {"allowance": DISCRETIZATION_ALLOWANCE, "shells": shells})

    ok_all = all(c["pass"] for c in checks)
    _write_json(out / "compare.json", {"config_hash": chash, "inputs": inputs,
                                       "pass": ok_all, "checks": checks})
    for c in checks:
        print(f"compare: {c['name']}: {'PASS' if c['pass'] else 'FAIL'}")
    return 0 if ok_all else 1


COMMANDS = {
    "reference": cmd_reference,
    "optimize": cmd_optimize,
    "estimate": cmd_estimate,
    "gradcheck": cmd_gradcheck,
    "compare": cmd_compare,
}


def _parse_set(pairs):
    overrides = {}
    if not pairs:
        return overrides
    import yaml   # here, not at module level: runs without --set skip it
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            overrides[key.strip()] = load_yaml(raw)
        except yaml.YAMLError as err:
            raise ConfigError(f"--set {key.strip()}: {raw!r} is not a YAML value "
                              f"({getattr(err, 'problem', err)})") from None
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optforce",
        description="Rare-event statistics of overdamped diffusions via learned "
                    "optimal forcing")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None,
                        help="YAML config file (defaults reproduce the headline run)")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    # accepted and ignored.  run_batch forks one worker per CPU the process may
    # use for batches of several KERNEL_CHUNK segments, bit for bit; existing
    # scripts, the benchmark's among them, still pass --workers 1, and
    # honouring it would turn that off where it is measured (taskset limits
    # the CPUs instead)
    parser.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config field by dotted path")
    return parser


def _load_config(path: Path | None) -> RunConfig:
    """The config file --config names, or the defaults; a ConfigError names
    the flag where the file cannot be read as UTF-8 text."""
    if path is None:
        return RunConfig()
    try:
        return RunConfig.load(path)
    except OSError as err:
        raise ConfigError(f"--config {path}: cannot read the config file "
                          f"({err.strerror or err})") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"--config {path}: the config file is not UTF-8 text ({err})") from None


def _make_out(out: Path, flag: str) -> Path:
    """out, created as a directory if it is none yet; a ConfigError names the
    flag where that fails."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"{flag} {out}: cannot create the output directory "
                          f"({err.strerror or err})") from None
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        overrides = _parse_set(args.set)
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            cfg = cfg.with_overrides(overrides)
        flag, out = ("--out", args.out) if args.out else ("out_dir", Path(cfg.out_dir))
        return COMMANDS[args.command](cfg, _make_out(out, flag))
    except (ConfigError, StageFileError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MilestoningError, PathFailure, ReferenceError, QuadratureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
