import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from optforce.ansatz import init_fill_wells
from optforce.cli import REFERENCE_COLUMNS, TRACE_COLUMNS, _read_csv, _write_csv, main
import optforce
from optforce.config import ConfigError, RunConfig
from optforce.dynamics import MAX_SEED, kernel_counts
from optforce.objective import make_objective
from optforce.optimizer import RESEED_STRIDE, descend
from optforce.reference import MAX_GRID_NODES, build_grid


def fast_config(tmp_path, **overrides):
    """Small, quick configuration on the low-barrier potential."""
    doc = {
        "potential": {"name": "double_well",
                      "params": {"barrier_scale": 0.5, "skew": -0.25}},
        "sigma": 1.0,
        "epsilon": 0.5,
        "h": 2e-3,
        "dx": 2e-3,
        "seed": 99,
        "x0": 1.0,
        "ansatz": {"m": 6, "width": 0.35},
        "descent": {"max_iters": 8, "grad_tol": 0.05, "batch_size": 192,
                    "h": 2e-3},
        "estimate": {"n_paths": 400},
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestRunConfig:
    def test_defaults_reproduce_headline_experiment(self):
        cfg = RunConfig()
        assert cfg.epsilon == 0.5
        assert cfg.ansatz.m == 10
        assert cfg.stopping_set.lo == -1.1 and cfg.stopping_set.hi == -1.0
        assert cfg.estimate.n_paths == 2000
        assert cfg.ansatz.width == pytest.approx(np.sqrt(0.1))

    def test_round_trip(self, tmp_path):
        cfg = RunConfig().with_overrides({"descent.grad_tol": 0.01, "seed": 5})
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        again = RunConfig.load(path)
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="tempature"):
            RunConfig.from_dict({"tempature": 0.5})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="descent.*\\bwidht\\b|widht"):
            RunConfig.from_dict({"descent": {"widht": 1.0}})

    def test_override_unknown_path_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig().with_overrides({"descent.nonsense": 1})

    def test_start_point_default_is_right_minimum(self):
        assert RunConfig().start_point() == pytest.approx(1.0298959850506604,
                                                          abs=1e-6)

    def test_start_point_default_is_pinned_bit_for_bit(self):
        assert RunConfig().start_point() == 1.0298959851321596

    def test_hash_changes_with_content(self):
        a = RunConfig()
        b = a.with_overrides({"seed": a.seed + 1})
        assert a.config_hash() != b.config_hash()

    def test_headline_hash_is_stable(self):
        # every output embeds this hash; renaming or moving a field changes it
        assert RunConfig().config_hash() == "6388f91a0fa4c2cc"
        # an int in a float field is stored as the float it names
        sigma = RunConfig().with_overrides({"sigma": 1})
        assert type(sigma.sigma) is float
        assert sigma.config_hash() == "6388f91a0fa4c2cc"
        # and an integral number in an int field as the int
        m = RunConfig().with_overrides({"ansatz.m": 10.0})
        assert type(m.ansatz.m) is int and m.config_hash() == "6388f91a0fa4c2cc"
        seed = RunConfig().with_overrides({"seed": 3.0})
        assert type(seed.seed) is int
        assert seed.config_hash() == RunConfig().with_overrides({"seed": 3}).config_hash()
        # a threshold list stores floats
        for thresholds in ([-1, 0, 2], [-1.0, 0.0, 2.0]):
            ladder = RunConfig().with_overrides({"ladder.thresholds": thresholds})
            assert ladder.config_hash() == "418cb19b90f06eba"
        # and a potential parameter as the float it names
        for scale in (2, 2.0):
            params = RunConfig().with_overrides({"potential.params": {"barrier_scale": scale}})
            assert type(params.potential.params["barrier_scale"]) is float
            assert params.config_hash() == "dd0c3b8d6f9145fe"

    @pytest.mark.parametrize("doc,override,chash", [
        ("stopping_set: {lo: -1.2}\n", {"stopping_set.lo": -1.2}, "719e47fbd5093707"),
        ("domain: {hi: 1.5}\n", {"domain.hi": 1.5}, "1a727045e8b2f637"),
    ])
    def test_a_mapping_that_sets_one_edge_keeps_the_other(self, tmp_path, doc, override,
                                                          chash):
        path = tmp_path / "c.yaml"
        path.write_text(doc)
        cfg = RunConfig.load(path)
        assert cfg == RunConfig().with_overrides(override)
        # pinned: an interval's type must not move a loaded config's hash
        assert cfg.config_hash() == chash

    def test_numeric_strings_take_the_field_type(self):
        # PyYAML reads 1e-3 (no dot) as a string
        a = RunConfig().with_overrides({"h": yaml.safe_load("1e-3"),
                                        "ansatz.m": "10", "descent.h": "2e-3"})
        assert a.h == 0.001 and a.ansatz.m == 10
        assert a.config_hash() == RunConfig().with_overrides({"h": 0.001}).config_hash()
        # an int field takes the integral value of a number string, as the int
        b = RunConfig().with_overrides({"max_steps": yaml.safe_load("1e6")})
        assert type(b.max_steps) is int and b.max_steps == 1_000_000


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfg_path = fast_config(tmp)
    out = tmp / "out"
    assert main(["reference", "--config", str(cfg_path)]) == 0
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["estimate", "--config", str(cfg_path)]) == 0
    return cfg_path, out


class TestCliPipeline:

    def test_reference_outputs(self, run_dir):
        _, out = run_dir
        text = (out / "reference.csv").read_text()
        assert text.startswith("# config_hash: ")
        assert text.splitlines()[1] == "x,psi,F,mfpt"
        probes = json.loads((out / "oracle_probes.json").read_text())
        assert probes["max_rel_error"] < 1e-3
        assert len(probes["probes"]) == 20

    def test_optimize_outputs(self, run_dir):
        _, out = run_dir
        doc = json.loads((out / "ansatz.json").read_text())
        assert set(doc) == {"centers", "widths", "coefficients"}
        assert len(doc["coefficients"]) == 6
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[1] == "iteration,cost,grad_norm,alpha,stderr,mean_steps"
        summary = json.loads((out / "optimize.json").read_text())
        assert {"config_hash", "final_cost", "probes", "line_search_fallbacks"} <= set(summary)
        assert summary["wall_s"] > 0

    def test_default_optimize_is_a_plain_descent(self, run_dir):
        # the default one-shell ladder reproduces descent over every coefficient
        cfg_path, out = run_dir
        cfg = RunConfig.load(cfg_path)
        model = cfg.build_model()
        ansatz = cfg.build_ansatz()
        a0 = init_fill_wells(ansatz, model.potential,
                             build_grid(model.stopping_set, model.domain, cfg.dx))
        objective = make_objective(ansatz.with_coefficients(a0), cfg.start_point(model),
                                   model, cfg.descent_sim_config(),
                                   indices=np.arange(cfg.ansatz.m),
                                   n_paths=cfg.descent.batch_size)
        a_plain, _ = descend(a0, cfg.descent, objective, seed=cfg.seed)
        written = json.loads((out / "ansatz.json").read_text())["coefficients"]
        assert written == a_plain.tolist()
        summary = json.loads((out / "optimize.json").read_text())
        assert summary["shells"] == 1 and len(summary["boundary_values"]) == 1

    def test_estimate_outputs(self, run_dir):
        _, out = run_dir
        doc = json.loads((out / "estimates.json").read_text())
        names = {r["quantity"] for r in doc["records"]}
        assert {"psi", "free_energy", "mfpt_tilted"} <= names
        for rec in doc["records"]:
            assert set(rec) == {"quantity", "x0", "estimate", "stderr", "ci95",
                                "n", "ess", "config_hash"}
            assert rec["ci95"][0] <= rec["estimate"] <= rec["ci95"][1]

    def test_compare_passes_on_fast_problem(self, run_dir):
        cfg_path, out = run_dir
        # speed-up band is tuned to the headline potential, not the easy one;
        # everything else must pass
        main(["compare", "--config", str(cfg_path)])
        doc = json.loads((out / "compare.json").read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["pde_vs_oracle"]["pass"]
        assert by_name["variational_bound"]["pass"]
        assert by_name["tilted_mfpt_coverage"]["pass"]
        chash = RunConfig.load(cfg_path).config_hash()
        assert doc["inputs"] == {name: chash for name in (
            "reference.csv", "oracle_probes.json", "estimates.json", "optimize.json",
            "trace.csv")}

    def test_compare_rejects_outputs_of_another_config(self, run_dir, tmp_path, capsys):
        cfg_path, out = run_dir
        mixed = tmp_path / "mixed"
        shutil.copytree(out, mixed)
        assert main(["reference", "--config", str(cfg_path), "--set", "dx=0.004",
                     "--out", str(mixed)]) == 0
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg_path), "--out", str(mixed)]) == 2
        err = capsys.readouterr().err
        assert "reference.csv" in err and "oracle_probes.json" in err, err
        assert "estimates.json" not in err and "trace.csv" not in err, err

    @pytest.mark.parametrize("stale_hash", ["0000000000000000", None])
    def test_compare_rejects_an_ansatz_of_another_config(self, run_dir, tmp_path, capsys,
                                                         stale_hash):
        # ansatz.json has no hash of its own; the optimize.json beside it vouches
        cfg_path, out = run_dir
        mixed = tmp_path / "mixed"
        shutil.copytree(out, mixed)
        summary = json.loads((mixed / "optimize.json").read_text())
        summary.pop("config_hash")
        if stale_hash is not None:
            summary["config_hash"] = stale_hash
        (mixed / "optimize.json").write_text(json.dumps(summary))
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg_path), "--out", str(mixed)]) == 2
        err = capsys.readouterr().err
        assert "optimize.json" in err and "reference.csv" not in err, err

    def test_optimize_removes_the_traces_of_an_earlier_ladder(self, run_dir, tmp_path,
                                                              capsys):
        # without it, the three shell traces would fail compare's hash check
        # whatever stage reran
        cfg_path, out = run_dir
        mixed = tmp_path / "mixed"
        shutil.copytree(out, mixed)
        run = ["--config", str(cfg_path), "--out", str(mixed)]
        assert main(["optimize", *run, "--set", "ladder.shells=3"]) == 0
        assert len(list(mixed.glob("trace_shell_*.csv"))) == 3
        assert main(["optimize", *run]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["estimate", *run]) == 0
        main(["compare", *run])
        assert "error" not in capsys.readouterr().err
        assert [p.name for p in mixed.glob("trace*.csv")] == ["trace.csv"]
        assert (mixed / "trace.csv").read_bytes() == (out / "trace.csv").read_bytes()
        inputs = json.loads((mixed / "compare.json").read_text())["inputs"]
        assert "trace.csv" in inputs and len(inputs) == 5

    def test_reruns_are_byte_identical(self, run_dir, tmp_path):
        cfg_path, out = run_dir
        before = (out / "estimates.json").read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["estimate", "--config", str(cfg_path)]) == 0
        assert (out / "estimates.json").read_bytes() == before


def test_csv_round_trip(tmp_path):
    # both files end the hash line in \n; the trace ends its header and rows
    # in csv.writer's \r\n, reference.csv in \n
    trace = [(0, 3.0, 1.5, 0.1, 0.01, 10.0), (1, 0.1 + 0.2, 1e-20, 1.0, 0.0, 12.5)]
    reference = [(-1.0, 1.0, 0.0, 0.0), (-0.999, 0.9, 0.05, 0.25)]
    _write_csv(tmp_path / "trace.csv", "abc123", TRACE_COLUMNS, trace, newline="\r\n")
    _write_csv(tmp_path / "reference.csv", "abc123", REFERENCE_COLUMNS, reference)
    assert (tmp_path / "trace.csv").read_bytes() == (
        b"# config_hash: abc123\n"
        b"iteration,cost,grad_norm,alpha,stderr,mean_steps\r\n"
        b"0,3.0,1.5,0.1,0.01,10.0\r\n"
        b"1,0.30000000000000004,1e-20,1.0,0.0,12.5\r\n")
    assert (tmp_path / "reference.csv").read_bytes() == (
        b"# config_hash: abc123\n"
        b"x,psi,F,mfpt\n"
        b"-1.0,1.0,0.0,0.0\n"
        b"-0.999,0.9,0.05,0.25\n")
    for name, columns, rows in (("trace.csv", TRACE_COLUMNS, trace),
                                ("reference.csv", REFERENCE_COLUMNS, reference)):
        assert _read_csv(tmp_path / name, columns) == (
            "abc123", [dict(zip(columns, row)) for row in rows])


class TestCliErrors:
    def test_estimate_without_ansatz_fails(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert main(["estimate", "--config", str(cfg_path)]) == 2

    def test_unknown_config_key_exits_with_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("tempature: 0.5\n")
        assert main(["reference", "--config", str(path)]) == 2

    def test_set_override_applies(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        code = main(["reference", "--config", str(cfg_path),
                     "--set", "dx=0.004", "--out", str(tmp_path / "o2")])
        assert code == 0
        assert (tmp_path / "o2" / "reference.csv").exists()

    def test_bad_set_value_rejected(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        assert main(["reference", "--config", str(cfg_path),
                     "--set", "bogus.path=1"]) == 2

    def test_exponent_override_has_same_hash_as_decimal(self, tmp_path):
        cfg_path = fast_config(tmp_path)
        out = tmp_path / "o3"
        assert main(["reference", "--config", str(cfg_path), "--set", "dx=4e-3",
                     "--out", str(out)]) == 0
        probes = json.loads((out / "oracle_probes.json").read_text())
        expected = RunConfig.load(cfg_path).with_overrides({"dx": 0.004})
        assert probes["config_hash"] == expected.config_hash()

    @pytest.mark.parametrize("override,names", [
        ("descent.wolfe_c1=2", ("descent", "wolfe_c1")),
        ("ansatz.m=abc", ("ansatz.m",)),
    ])
    def test_invalid_field_exits_2_naming_it(self, tmp_path, capsys, override, names):
        cfg_path = fast_config(tmp_path)
        assert main(["estimate", "--config", str(cfg_path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize("command,override,names", [
        ("gradcheck", "h=-1", ("h must be positive",)),
        ("gradcheck", "epsilon=0", ("epsilon must be positive",)),
        ("gradcheck", "seed=-3", ("seed must be nonnegative",)),
        ("optimize", "ansatz.m=0", ("ansatz.m must be at least 1",)),
        ("reference", "dx=-1", ("dx must be positive",)),
        ("reference", "sigma=-1", ("sigma must be nonnegative",)),
        ("optimize", "descent.batch_size=1", ("descent.batch_size must be at least 2",)),
        ("optimize", "ladder.shells=0", ("ladder.shells must be at least 1",)),
        ("optimize", "x0=-1.05", ("x0 must be in (-1.0, 2.0]",)),
        ("estimate", "x0=-1.3", ("x0 must be in (-1.0, 2.0]",)),
        ("compare", "x0=2.5", ("x0 must be in (-1.0, 2.0]",)),
        ("optimize", "ladder.thresholds=[0,2]", ("ladder.thresholds", "first threshold")),
        ("optimize", "ladder.thresholds=[-1,1,0.5]", ("ladder.thresholds",
                                                      "strictly increasing")),
        ("optimize", "potential.name=nope", ("potential.name must be one of", "'nope'")),
        ("reference", "potential.params={k: 1}", ("potential.params", "'k'")),
        ("optimize", "potential.params={barrier_scale: .nan}",
         ("potential.params.barrier_scale must be finite, got nan",)),
        ("optimize", "potential.params={barrier_scale: .inf}",
         ("potential.params.barrier_scale must be finite, got inf",)),
        ("reference", "potential.params={barrier_scale: true}",
         ("potential.params.barrier_scale must be float, got True",)),
        ("estimate", "potential.params={skew: abc}",
         ("potential.params.skew must be float, got 'abc'",)),
        ("reference", "potential.params=3", ("potential.params must be a mapping, got 3",)),
        ("estimate", "domain.boundary=wrap", ("domain: boundary must be one of", "'wrap'")),
        ("optimize", "x0=[", ("--set x0", "'[' is not a YAML value")),
        ("estimate", "stopping_set.lo=5", ("stopping_set: stopping set needs lo < hi",
                                           "[5.0, -1.0]")),
        ("estimate", "domain.hi=-1.05", ("stopping_set: stopping set [-1.1, -1.0] must lie "
                                         "inside the domain [-1.5, -1.05]",)),
        ("optimize", "x0=[1]", ("x0 must be float, got [1]",)),
        ("estimate", "estimate.n_paths=[3]", ("estimate.n_paths must be int, got [3]",)),
        ("optimize", "ladder.shells=20", ("ladder.shells: shell 1 of 20 holds none of the 6",)),
        ("reference", ("ansatz.m=2", "ladder.shells=3"),
         ("ladder.shells: shell 1 of 3 holds none of the 2",)),
        ("optimize", "ladder.thresholds=[-1, 0, 3]",
         ("ladder.thresholds: the last threshold 3.0 must lie in", "= [1.0, 2.0]")),
        ("optimize", "ladder.thresholds=[-1, 0, 0.5]",
         ("ladder.thresholds: the last threshold 0.5 must lie in", "= [1.0, 2.0]")),
        ("optimize", ("ladder.thresholds=[-1, 0, 2]", "ladder.shells=3"),
         ("ladder.shells must be 1 beside ladder.thresholds", "got 3")),
        ("optimize", "descent.max_iters=0", ("descent", "max_iters must be at least 1")),
        ("optimize", "dx=5", ("dx: grid too coarse",)),
        ("reference", "dx=7e-3", ("dx: spacing 0.007 does not divide [-1.0, 2.0]",
                                  "end at 2.003")),
        ("gradcheck", "h=true", ("h must be float, got True",)),
        ("optimize", "ansatz.m=true", ("ansatz.m must be int, got True",)),
        ("optimize", "descent.max_iters=2.5", ("descent.max_iters must be int, got 2.5",)),
        ("estimate", "estimate.n_paths=100.5", ("estimate.n_paths must be int, got 100.5",)),
        ("estimate", "estimate.untilted=no", ("estimate.untilted must be bool, got 'no'",)),
        ("optimize", "ladder.thresholds=[-1,0,true]",
         ("ladder.thresholds must be list of float, got [-1, 0, True]",)),
        ("optimize", "descent.grad_tol=.nan", ("descent.grad_tol must be finite, got nan",)),
        ("optimize", "epsilon=.inf", ("epsilon must be finite, got inf",)),
        ("reference", "epsilon=1e200", ("epsilon must be small enough that its square is "
                                        "finite, got 1e+200",)),
        ("gradcheck", "h=-.inf", ("h must be finite, got -inf",)),
        ("optimize", "ladder.thresholds=[-1,.nan,2]",
         ("ladder.thresholds must be finite, got [-1, nan, 2]",)),
        ("optimize", "ansatz.width=1e-300", ("ansatz.width must be wide enough that the "
                                             "basis is finite on the domain", "1e-300")),
        ("optimize", "ansatz.width=1e-160", ("ansatz.width must be wide enough", "1e-160")),
        ("optimize", "descent.alpha_init=0", ("descent: alpha_init must be positive, got 0.0",)),
        ("optimize", "descent.alpha_max=-1", ("descent: alpha_max must be positive, got -1.0",)),
    ])
    def test_out_of_range_value_exits_2_naming_it(self, tmp_path, capsys, command,
                                                  override, names):
        cfg_path = fast_config(tmp_path)
        overrides = [override] if isinstance(override, str) else override
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        assert main([command, "--config", str(cfg_path), *sets]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        # every message names its field: none carries the top level's name
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "config: " not in err, err
        assert not (tmp_path / "out").exists()

    def test_a_narrow_width_whose_basis_stays_finite_loads(self):
        # 1e-150 squared is 1e-300, still a normal double; 1e-160's is not
        assert RunConfig().with_overrides({"ansatz.width": 1e-150}).ansatz.width == 1e-150

    @pytest.mark.parametrize("case,flag,reason", [
        ("config is a directory", "--config", "cannot read the config file (Is a directory)"),
        ("config is not UTF-8", "--config", "the config file is not UTF-8 text"),
        ("config is missing", "--config", "cannot read the config file (No such file"),
        ("out is a file", "--out", "cannot create the output directory (File exists)"),
        ("out is under a file", "--out", "cannot create the output directory (Not a directory)"),
        # a stage input that its stage did not write whole: the flag is the file
        ("estimates.json holds only its hash", "estimates.json", "no records entry"),
        ("reference.csv is cut off", "reference.csv", "is not 4 numbers"),
        ("ansatz.json is cut off", "ansatz.json", "not an ansatz (JSONDecodeError: "),
        ("ansatz.json has no coefficients", "ansatz.json",
         "not an ansatz (KeyError: 'coefficients')"),
        # a stage input that cannot be read as text
        ("reference.csv is a directory", "reference.csv",
         "cannot read it (Is a directory); rerun the stage that writes it"),
        ("reference.csv is not UTF-8", "reference.csv", "not UTF-8 text"),
        ("ansatz.json is a directory", "ansatz.json",
         "cannot read it (Is a directory); run the `optimize` subcommand first"),
        ("ansatz.json is missing", "ansatz.json",
         "cannot read it (No such file or directory); run the `optimize` subcommand first"),
    ])
    def test_a_bad_config_or_out_path_exits_2_naming_the_flag(self, tmp_path, capsys, request,
                                                              case, flag, reason):
        cfg_path, out = fast_config(tmp_path), tmp_path / "out"
        command = "reference"
        (tmp_path / "afile").write_text("x")
        if flag.endswith((".json", ".csv")):
            cfg_path, done = request.getfixturevalue("run_dir")
            shutil.copytree(done, out)
            command = "estimate" if flag == "ansatz.json" else "compare"
            path, flag = out / flag, f"{out / flag}:"
            if case == "estimates.json holds only its hash":
                chash = RunConfig.load(cfg_path).config_hash()
                path.write_text(json.dumps({"config_hash": chash}))
            elif case == "reference.csv is cut off":
                path.write_bytes(path.read_bytes()[:300])
            elif case == "ansatz.json is cut off":
                path.write_text('{"centers": [0.0]')
            elif case.endswith("is a directory"):
                path.unlink()
                path.mkdir()
            elif case == "reference.csv is not UTF-8":
                path.write_bytes(b"\xff" + path.read_bytes())
            elif case == "ansatz.json is missing":
                path.unlink()
            else:
                doc = json.loads(path.read_text())
                del doc["coefficients"]
                path.write_text(json.dumps(doc))
        elif case == "config is a directory":
            cfg_path = tmp_path
        elif case == "config is not UTF-8":
            cfg_path.write_bytes(b"seed: 3\n\xff\xfe\n")
        elif case == "config is missing":
            cfg_path = tmp_path / "missing.yaml"
        else:
            out = tmp_path / "afile" if case == "out is a file" else tmp_path / "afile" / "sub"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and reason in err, err
        assert err.count("\n") == 1 and "Traceback" not in err, err

    def test_a_tiny_dx_exits_2_naming_it_before_allocating_the_grid(
            self, tmp_path, capsys, monkeypatch):
        # at dx = 1e-10 the grid would take about 3e10 nodes: no arange may
        # ask for more than the bound, so a grid that size is never built
        arange = np.arange

        def bounded(n, *args, **kwargs):
            assert n <= MAX_GRID_NODES, f"np.arange({n})"
            return arange(n, *args, **kwargs)

        monkeypatch.setattr(np, "arange", bounded)
        assert main(["reference", "--config", str(fast_config(tmp_path)),
                     "--set", "dx=1e-10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: dx: grid too fine") and err.count("\n") == 1, err
        assert str(MAX_GRID_NODES) in err
        assert not (tmp_path / "out").exists()

    def test_a_seed_beyond_the_philox_key_exits_2_naming_it(self, tmp_path, capsys):
        # one shell, one descent iteration: the run derives seed + RESEED_STRIDE
        cfg_path = fast_config(tmp_path, descent={"max_iters": 1, "batch_size": 16})
        top = MAX_SEED - RESEED_STRIDE
        for seed in (99999999999999999999999, top + 1):
            assert main(["reference", "--config", str(cfg_path),
                         "--seed", str(seed)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: seed must be at most {top},"), err
        assert not (tmp_path / "out").exists()
        assert main(["optimize", "--config", str(cfg_path), "--seed", str(top)]) == 0

    def test_a_step_that_does_not_divide_the_gradcheck_horizon_exits_2_naming_h(
            self, tmp_path, capsys):
        assert main(["gradcheck", "--config", str(fast_config(tmp_path)),
                     "--set", "h=3e-3"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: h: gradcheck runs a horizon of 0.5, which h=0.003 does not "
                       "divide into whole steps\n"), err
        assert not (tmp_path / "out" / "gradcheck.json").exists()

    def test_a_failed_run_ends_in_one_error_line(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        code = main(["optimize", "--config", str(cfg_path), "--set", "max_steps=50",
                     "--set", "descent.max_iters=2", "--set", "descent.batch_size=64"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith("error: shell 0 failed") and "did not hit" in err, err

    def test_a_failed_reference_check_ends_in_one_error_line(self, tmp_path, capsys):
        code = main(["reference", "--set", "epsilon=0.1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert err.startswith("error: sigma-derivative cross-check disagrees"), err

    def test_a_path_leaving_an_abort_domain_ends_in_one_error_line(self, tmp_path, capsys):
        cfg_path = fast_config(tmp_path)
        code = main(["gradcheck", "--config", str(cfg_path), "--set", "domain.boundary=abort",
                     "--set", "domain.hi=1.05"])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        # the count of paths that left and the first five of them, not all
        assert re.match(r"error: \d+ paths \[(\d+, ){5}\.\.\.\] left", err), err
        assert "left the domain [-1.5, 1.05] at step" in err, err


def test_optimize_with_two_shells_writes_a_trace_per_shell(tmp_path):
    cfg_path = fast_config(tmp_path)
    out = tmp_path / "out"
    shells = ["--config", str(cfg_path), "--set", "ladder.shells=2"]
    assert main(["reference", *shells]) == 0
    assert main(["optimize", *shells]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["estimate", *shells]) == 0
    # compare exits 1 on this problem's speed-up band; only its inputs are checked
    main(["compare", *shells])
    assert sorted(p.name for p in out.glob("trace*.csv")) == [
        "trace_shell_0.csv", "trace_shell_1.csv"]
    summary = json.loads((out / "optimize.json").read_text())
    assert summary["shells"] == 2 and len(summary["boundary_values"]) == 2
    # each shell's boundary value is the cost of the iterate ansatz.json holds
    for i, (value, returned) in enumerate(zip(summary["boundary_values"],
                                              summary["returned_iterations"], strict=True)):
        text = (out / f"trace_shell_{i}.csv").read_text()
        rows = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert int(rows[returned]["iteration"]) == returned
        assert float(rows[returned]["cost"]) == value == min(float(r["cost"]) for r in rows)
    inputs = json.loads((out / "compare.json").read_text())["inputs"]
    chash = RunConfig.load(cfg_path).with_overrides({"ladder.shells": 2}).config_hash()
    assert inputs == {name: chash for name in (
        "reference.csv", "oracle_probes.json", "estimates.json", "optimize.json",
        "trace_shell_0.csv", "trace_shell_1.csv")}


def test_compare_bounds_each_shell_by_f_at_its_own_start(tmp_path):
    # shells 0 and 1 start on their outer thresholds 0 and 1, shell 2 at x0
    run = ["--config", str(fast_config(tmp_path, x0=1.5)), "--set", "ladder.shells=3"]
    for stage in ("reference", "optimize", "estimate"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([stage, *run]) == 0
    # compare exits 1 on this problem's speed-up band; only the bound is read
    assert main(["compare", *run]) in (0, 1)
    out = tmp_path / "out"
    check = {c["name"]: c for c in json.loads((out / "compare.json").read_text())["checks"]}
    bound = check["variational_bound"]
    shells = bound["detail"]["shells"]
    assert [s["start"] for s in shells] == [0.0, 1.0, 1.5]
    assert [s["trace_file"] for s in shells] == [f"trace_shell_{i}.csv" for i in range(3)]
    ref = np.loadtxt(out / "reference.csv", delimiter=",", skiprows=2)
    for s in shells:
        assert s["f_reference"] == float(np.interp(s["start"], ref[:, 0], ref[:, 2]))
    assert bound["pass"] and min(s["worst_margin"] for s in shells) >= 0.0


def test_untilted_estimate_adds_the_plain_mfpt(tmp_path):
    # out_dir is hashed, so it is the same for every tmp_path
    cfg_path = fast_config(tmp_path, out_dir="out")
    out = tmp_path / "out"
    before = kernel_counts().batches
    # the plain dynamics read no ansatz.json, and there is none
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out),
                 "--set", "estimate.untilted=true"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["estimates.json"]
    # one batch for psi and F, one for the plain MFPT
    assert kernel_counts().batches == before + 2
    written = (out / "estimates.json").read_bytes()
    # pinned: the untilted estimates run the plain dynamics, control None
    assert hashlib.sha256(written).hexdigest() == (
        "ac6c8330d82d93dc51ecb1b21c2c3674d6e61027ab14482863e65252096d746e")
    doc = json.loads(written)
    by_name = {r["quantity"]: r for r in doc["records"]}
    assert list(by_name) == ["psi", "free_energy", "mfpt"]
    # the untilted paths carry weight one each
    assert by_name["psi"]["ess"] == by_name["psi"]["n"]
    assert by_name["mfpt"]["ess"] == by_name["mfpt"]["n"]


def test_compare_checks_no_tilted_mfpt_beside_an_untilted_estimate(tmp_path):
    # the untilted run records the plain MFPT, which the tilted landscape's
    # PDE does not describe
    run = ["--config", str(fast_config(tmp_path)), "--set", "estimate.untilted=true"]
    for stage in ("reference", "optimize", "estimate"):
        assert main([stage, *run]) == 0
    # compare exits 1 on this problem's speed-up band; only its checks are read
    assert main(["compare", *run]) in (0, 1)
    doc = json.loads((tmp_path / "out" / "compare.json").read_text())
    names = [c["name"] for c in doc["checks"]]
    assert "tilted_mfpt_coverage" not in names
    assert names == ["pde_vs_oracle", "speedup_band", "variational_bound"]


def test_gradcheck_runs_and_passes(tmp_path):
    cfg_path = fast_config(tmp_path, descent={"batch_size": 128, "h": 2e-3},
                           ansatz={"m": 4, "width": 0.35})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg_path)]) == 0
    doc = json.loads((out / "gradcheck.json").read_text())
    assert doc["pass"]
    assert len(doc["components"]) == 4


# runs the stages named on its command line in a fresh interpreter in which
# `import scipy` fails; a run without --config or --set never imports yaml
SCIPY_FREE_SCRIPT = """\
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
import optforce.cli
from optforce.config import RunConfig
RunConfig().build_model()
assert "yaml" not in sys.modules, "yaml imported at start-up"
out, stages = sys.argv[1], sys.argv[2:]
for stage in stages:
    code = optforce.cli.main([stage, "--out", out, "--set", "dx=0.01",
                              "--set", "descent.max_iters=1", "--set", "descent.batch_size=16",
                              "--set", "estimate.n_paths=16", "--set", "h=0.01"])
    # at this size the gradient check and compare's checks may fail (exit 1)
    assert code == 0 or (code == 1 and stage in ("gradcheck", "compare")), (stage, code)
assert "scipy" not in sys.modules
"""


def run_without_scipy(out, stages):
    env = dict(os.environ, PYTHONPATH=str(Path(optforce.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT, str(out), *stages],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("stages", [("gradcheck",), ("optimize", "estimate")])
def test_stages_that_solve_no_reference_never_import_scipy(tmp_path, stages):
    run_without_scipy(tmp_path / "out", stages)


def test_no_stage_imports_scipy(tmp_path):
    run_without_scipy(tmp_path / "out",
                      ("reference", "optimize", "estimate", "gradcheck", "compare"))
