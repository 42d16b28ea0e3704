import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from optforce.cli import main
from optforce.config import ConfigError, RunConfig


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
        cfg.save(path)
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

    def test_hash_changes_with_content(self):
        a = RunConfig()
        b = a.with_overrides({"seed": a.seed + 1})
        assert a.config_hash() != b.config_hash()

    def test_headline_hash_is_stable(self):
        # every output embeds this hash; renaming or moving a field changes it
        assert RunConfig().config_hash() == "6388f91a0fa4c2cc"

    def test_numeric_strings_take_the_field_type(self):
        # PyYAML reads 1e-3 (no dot) as a string
        a = RunConfig().with_overrides({"h": yaml.safe_load("1e-3"),
                                        "ansatz.m": "10", "descent.h": "2e-3"})
        assert a.h == 0.001 and a.ansatz.m == 10
        assert a.config_hash() == RunConfig().with_overrides({"h": 0.001}).config_hash()


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
        assert "config_hash" in summary and "final_cost" in summary

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

    def test_reruns_are_byte_identical(self, run_dir, tmp_path):
        cfg_path, out = run_dir
        before = (out / "estimates.json").read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["estimate", "--config", str(cfg_path)]) == 0
        assert (out / "estimates.json").read_bytes() == before


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


def test_gradcheck_runs_and_passes(tmp_path):
    cfg_path = fast_config(tmp_path, descent={"batch_size": 128, "h": 2e-3},
                           ansatz={"m": 4, "width": 0.35})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", str(cfg_path)]) == 0
    doc = json.loads((out / "gradcheck.json").read_text())
    assert doc["pass"]
    assert len(doc["components"]) == 4
