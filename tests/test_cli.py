import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fastslow
from fastslow.cli import bundled_configs, list_experiments, main
from fastslow.experiments import ConfigError, parse_config


def _read_body(path):
    return [l for l in Path(path).read_text().splitlines()
            if not l.startswith("# created:")]


class TestRegistry:
    def test_at_least_one_bundled_config_per_figure(self):
        names = set(bundled_configs())
        expected = {"fig_clt_hist", "fig_clt_var", "fig_ldp_mfpt",
                    "fig_ldp_hist", "fig_ldp_fpt_cdf", "fig_num_quasi",
                    "fig_ldp_fpt_cdf2", "jump_tau_leap"}
        assert expected <= names
        assert {n + "_quick" for n in expected} <= names
        assert len(names) >= 6

    def test_every_bundled_config_parses(self):
        for name, path in bundled_configs().items():
            cfg = parse_config(path, name=name)
            assert cfg.analysis

    def test_list_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig_clt_var" in out and "fig_num_quasi" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(list_experiments())
        assert all({"name", "description"} <= set(r) for r in rows)


# the parse of every bundled config as recorded before the analysis
# table replaced the per-analysis schema code: name -> (config hash,
# analysis, model name, model params, scheme, analysis params)
_BUNDLED_PARSES = {
    "fig_clt_hist":
        ("ae6405fcadba", "histogram", "linear_ou",
         {"theta": 1.0, "mu": 0.5, "sigma": 5.0},
         {"eps": 0.01,
          "micro_dt": 0.1,
          "macro_dt": 0.08,
          "lambdas": (1, 2, 5),
          "t": 10000.0,
          "burn_in": 50.0},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_replicas": 8,
          "x0": (0.0,),
          "bin_min": -4.5,
          "bin_max": 4.5,
          "n_bins": 90}),
    "fig_clt_hist_quick":
        ("94bed37dc04c", "histogram", "linear_ou",
         {"theta": 1.0, "mu": 0.5, "sigma": 5.0},
         {"eps": 0.01,
          "micro_dt": 0.1,
          "macro_dt": 0.08,
          "lambdas": (2, 5),
          "t": 400.0,
          "burn_in": 20.0},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_replicas": 4,
          "x0": (0.0,),
          "bin_min": -4.5,
          "bin_max": 4.5,
          "n_bins": 45}),
    "fig_clt_var":
        ("e3b03f519f32", "variance_vs_lambda", "linear_ou",
         {"theta": 1.0, "mu": 0.5, "sigma": 5.0},
         {"eps": 0.01,
          "micro_dt": 0.1,
          "macro_dt": 0.08,
          "lambdas": (1, 2, 3, 4, 5, 6, 7, 8),
          "t": 10000.0,
          "burn_in": 50.0},
         {"schemes": ("hmm", "phmm"), "n_replicas": 4, "x0": (0.0,)}),
    "fig_clt_var_quick":
        ("fbeb70fc0963", "variance_vs_lambda", "linear_ou",
         {"theta": 1.0, "mu": 0.5, "sigma": 5.0},
         {"eps": 0.01,
          "micro_dt": 0.1,
          "macro_dt": 0.08,
          "lambdas": (1, 2, 4, 8),
          "t": 1000.0,
          "burn_in": 50.0},
         {"schemes": ("hmm", "phmm"), "n_replicas": 4, "x0": (0.0,)}),
    "fig_ldp_fpt_cdf":
        ("33d49d5dbb07", "fpt_cdf", "double_well",
         {"theta": 1.0, "mu": 1.0, "sigma": 15.0},
         {"eps": 0.001, "micro_dt": 0.05, "macro_dt": 0.06, "lambda": 5},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_samples": 200,
          "t_cap": 2000.0,
          "start": -1.0,
          "threshold": 1.0,
          "direction": "upcrossing",
          "equil_fast_time": 50.0}),
    "fig_ldp_fpt_cdf2":
        ("c6cb0539e216", "fpt_cdf", "non_diffusive",
         {"nu": 1.0, "sigma": 1.7320508075688772},
         {"eps": 0.05, "micro_dt": 0.01, "macro_dt": 0.1, "lambda": 2},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_samples": 200,
          "t_cap": 100000.0,
          "start": 0.555,
          "threshold": 2.459,
          "direction": "both",
          "equil_fast_time": 50.0}),
    "fig_ldp_fpt_cdf2_quick":
        ("14d8394a57ef", "fpt_cdf", "non_diffusive",
         {"nu": 1.0, "sigma": 1.7320508075688772},
         {"eps": 0.05, "micro_dt": 0.01, "macro_dt": 0.1, "lambda": 2},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_samples": 24,
          "t_cap": 400.0,
          "start": 2.459,
          "threshold": 0.555,
          "direction": "downcrossing",
          "equil_fast_time": 50.0}),
    "fig_ldp_fpt_cdf_quick":
        ("0ca731efe6c4", "fpt_cdf", "double_well",
         {"theta": 1.0, "mu": 1.0, "sigma": 15.0},
         {"eps": 0.001, "micro_dt": 0.05, "macro_dt": 0.06, "lambda": 5},
         {"schemes": ("hmm", "phmm"),
          "n_samples": 16,
          "t_cap": 300.0,
          "start": -1.0,
          "threshold": 1.0,
          "direction": "upcrossing",
          "equil_fast_time": 50.0}),
    "fig_ldp_hist":
        ("b9cb898adb40", "histogram", "double_well",
         {"theta": 1.0, "mu": 1.0, "sigma": 15.0},
         {"eps": 0.001,
          "micro_dt": 0.05,
          "macro_dt": 0.05,
          "lambdas": (5,),
          "t": 50000.0,
          "burn_in": 50.0},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_replicas": 25,
          "x0": (-1.0, 1.0),
          "bin_min": -2.5,
          "bin_max": 2.5,
          "n_bins": 100}),
    "fig_ldp_hist_quick":
        ("c37da5dc7d58", "histogram", "double_well",
         {"theta": 1.0, "mu": 1.0, "sigma": 15.0},
         {"eps": 0.001,
          "micro_dt": 0.05,
          "macro_dt": 0.05,
          "lambdas": (5,),
          "t": 400.0,
          "burn_in": 20.0},
         {"schemes": ("direct", "hmm", "phmm"),
          "n_replicas": 4,
          "x0": (-1.0, 1.0),
          "bin_min": -2.5,
          "bin_max": 2.5,
          "n_bins": 50}),
    "fig_ldp_mfpt":
        ("c5256d1b9705", "mfpt_vs_lambda", "double_well",
         {"theta": 1.0, "mu": 1.0, "sigma": 15.0},
         {"eps": 0.001,
          "micro_dt": 0.05,
          "macro_dt": 0.06,
          "lambdas": (1, 2, 3, 5)},
         {"schemes": ("hmm", "phmm"),
          "n_samples": 200,
          "t_cap": 2000.0,
          "start": -1.0,
          "threshold": 1.0,
          "direction": "upcrossing",
          "equil_fast_time": 50.0}),
    "fig_ldp_mfpt_quick":
        ("eaf358abdd98", "mfpt_vs_lambda", "double_well",
         {"theta": 1.0, "mu": 1.0, "sigma": 15.0},
         {"eps": 0.001,
          "micro_dt": 0.05,
          "macro_dt": 0.06,
          "lambdas": (2, 3, 5)},
         {"schemes": ("hmm", "phmm"),
          "n_samples": 12,
          "t_cap": 300.0,
          "start": -1.0,
          "threshold": 1.0,
          "direction": "upcrossing",
          "equil_fast_time": 50.0}),
    "fig_num_quasi":
        ("37757dd4f193", "quasipotential", "non_diffusive",
         {"nu": 1.0, "sigma": 1.7320508075688772}, {},
         {"x_min": 0.3, "x_max": 3.2, "n_points": 200}),
    "fig_num_quasi_quick":
        ("27fe2ae5d49e", "quasipotential", "non_diffusive",
         {"nu": 1.0, "sigma": 1.7320508075688772}, {},
         {"x_min": 0.3, "x_max": 3.2, "n_points": 60}),
    "jump_tau_leap":
        ("5d3192881eb5", "jump_compare", "birth_death",
         {"birth": 1.0, "death": 1.0, "eps": 0.01}, {},
         {"x0": 1.0, "t": 10.0, "tau": 0.05, "n_runs": 10000}),
    "jump_tau_leap_quick":
        ("7184f1a91dde", "jump_compare", "birth_death",
         {"birth": 1.0, "death": 1.0, "eps": 0.01}, {},
         {"x0": 1.0, "t": 6.0, "tau": 0.05, "n_runs": 1500}),
}


@pytest.mark.parametrize("name", sorted(_BUNDLED_PARSES))
def test_bundled_config_parse_is_pinned(name):
    cfg = parse_config(bundled_configs()[name], name=name)
    got = (cfg.config_hash(), cfg.analysis, cfg.model_name, cfg.model_params,
           cfg.scheme, cfg.params)
    assert got == _BUNDLED_PARSES[name]
    assert _typed(got) == _typed(_BUNDLED_PARSES[name])


def _typed(parse):
    """``parse`` with every value as its repr, which tells 1 from 1.0 and a
    tuple from a list; dict keys in sorted order."""
    return [sorted((k, repr(v)) for k, v in part.items())
            if isinstance(part, dict) else repr(part) for part in parse]


class TestArgumentHandling:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_1_exits_2(self, tmp_path, capsys, workers):
        with pytest.raises(SystemExit) as err:
            main(["run", "fig_num_quasi_quick", "--out", str(tmp_path),
                  "--workers", workers])
        assert err.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestRun:
    def test_bundled_quick_run(self, tmp_path, capsys):
        code = main(["run", "fig_num_quasi_quick", "--out", str(tmp_path),
                     "--workers", "1", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "quasipotential" in out
        csv = tmp_path / "fig_num_quasi_quick_quasipotential.csv"
        js = tmp_path / "fig_num_quasi_quick_quasipotential.json"
        assert csv.exists() and js.exists()
        head = csv.read_text().splitlines()[:8]
        assert any(l.startswith("# fastslow-version:") for l in head)
        assert any(l.startswith("# config-hash:") for l in head)
        assert any(l.startswith("# seed:") for l in head)
        payload = json.loads(js.read_text())
        assert payload["columns"][0] == "x"

    def test_rerun_is_byte_identical_modulo_timestamp(self, tmp_path):
        main(["run", "jump_tau_leap_quick", "--out", str(tmp_path / "a"),
              "--workers", "1"])
        main(["run", "jump_tau_leap_quick", "--out", str(tmp_path / "b"),
              "--workers", "4"])
        a = _read_body(tmp_path / "a" / "jump_tau_leap_quick_jump.csv")
        b = _read_body(tmp_path / "b" / "jump_tau_leap_quick_jump.csv")
        assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        main(["run", "jump_tau_leap_quick", "--out", str(tmp_path / "a"),
              "--workers", "1"])
        main(["run", "jump_tau_leap_quick", "--out", str(tmp_path / "b"),
              "--workers", "1", "--seed", "31337"])
        a = _read_body(tmp_path / "a" / "jump_tau_leap_quick_jump.csv")
        b = _read_body(tmp_path / "b" / "jump_tau_leap_quick_jump.csv")
        assert a != b

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FASTSLOW_OUT", str(tmp_path / "envout"))
        assert main(["run", "fig_num_quasi_quick", "--workers", "1"]) == 0
        assert (tmp_path / "envout"
                / "fig_num_quasi_quick_quasipotential.csv").exists()

    def test_entry_point_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fastslow.cli", "run",
             "fig_num_quasi_quick", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "finished" in proc.stdout

    def test_import_loads_no_scipy_until_a_run_needs_it(self, tmp_path):
        # scipy is imported where it is used, so the CLI starts without it;
        # a jump run whose tau-leap means stay below 30 needs none of these
        path = tmp_path / "jump.cfg"
        path.write_text(_JUMP_CONFIG.replace("tau = 0.1", "tau = 0.05"))
        script = (
            "import sys\n"
            "from fastslow.cli import main\n"
            "names = ('scipy.signal', 'scipy.integrate', 'scipy.optimize',"
            " 'scipy.special')\n"
            "print('loaded', [n for n in names if n in sys.modules])\n"
            "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print('loaded', [n for n in names if n in sys.modules])\n")
        src = str(Path(fastslow.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        after_import, after_run = (line for line in proc.stdout.splitlines()
                                   if line.startswith("loaded"))
        assert after_import == "loaded []"
        assert "scipy.signal" not in after_run


class TestConfigErrors:
    def _write(self, tmp_path, text):
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        return path

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        path = self._write(tmp_path, """\
[experiment]
analysis = quasipotential
seed = 1

[model]
name = non_diffusive

[analysis]
x_min = 0.5
x_max = 2.0
n_points = 10
frobnication = 3
""")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "frobnication" in err
        assert "line 12" in err

    def test_removed_ldp_curve_key_reports_line(self, tmp_path, capsys):
        text = _config_text("mfpt_vs_lambda") + "ldp_curve = true\n"
        path = self._write(tmp_path, text)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'ldp_curve'" in err
        assert f"line {len(text.splitlines())}" in err

    def test_unknown_analysis(self, tmp_path, capsys):
        path = self._write(tmp_path, "[experiment]\nanalysis = dance\nseed = 1\n")
        assert main(["run", str(path)]) == 2
        assert "unknown analysis" in capsys.readouterr().err

    def test_missing_required_key(self, tmp_path, capsys):
        path = self._write(tmp_path, """\
[experiment]
analysis = quasipotential
seed = 1

[model]
name = non_diffusive

[analysis]
x_min = 0.5
x_max = 2.0
""")
        assert main(["run", str(path)]) == 2
        assert "n_points" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, capsys):
        path = self._write(tmp_path, """\
[experiment]
analysis = quasipotential
seed = 1

[model]
name = non_diffusive

[analysis]
x_min = lots
x_max = 2.0
n_points = 10
""")
        assert main(["run", str(path)]) == 2
        assert "x_min" in capsys.readouterr().err

    def test_unexpected_section(self, tmp_path, capsys):
        path = self._write(tmp_path, """\
[experiment]
analysis = quasipotential
seed = 1

[model]
name = non_diffusive

[scheme]
eps = 0.1

[analysis]
x_min = 0.5
x_max = 2.0
n_points = 10
""")
        assert main(["run", str(path)]) == 2
        assert "scheme" in capsys.readouterr().err

    def test_wrong_model_for_analysis(self, tmp_path, capsys):
        path = self._write(tmp_path, """\
[experiment]
analysis = quasipotential
seed = 1

[model]
name = linear_ou

[analysis]
x_min = 0.5
x_max = 2.0
n_points = 10
""")
        assert main(["run", str(path)]) == 2
        assert "non_diffusive" in capsys.readouterr().err


_ENSEMBLE_SECTIONS = {
    "histogram": ("lambdas = 2\nt = 10\nburn_in = 0\n",
                  "bin_min = -1\nbin_max = 1\nn_bins = 4\n"),
    "variance_vs_lambda": ("lambdas = 2\nt = 10\nburn_in = 0\n", ""),
    "mfpt_vs_lambda": ("lambdas = 2\n", "n_samples = 4\nt_cap = 5\n"
                       "start = 0\nthreshold = 0.3\ndirection = upcrossing\n"),
    "fpt_cdf": ("lambda = 2\n", "n_samples = 4\nt_cap = 5\nstart = 0\n"
                "threshold = 0.3\ndirection = upcrossing\n"),
}


_JUMP_CONFIG = """\
[experiment]
analysis = jump_compare
seed = 1

[model]
name = birth_death
eps = 0.01

[analysis]
x0 = 1.0
t = 1.0
tau = 0.1
n_runs = 4
"""


_QUASI_CONFIG = """\
[experiment]
analysis = quasipotential
seed = 1

[model]
name = non_diffusive

[analysis]
x_min = 0.5
x_max = 2.0
n_points = 4
"""


def _config_text(analysis, schemes="hmm"):
    if analysis == "jump_compare":
        return _JUMP_CONFIG
    if analysis == "quasipotential":
        return _QUASI_CONFIG
    scheme_keys, analysis_keys = _ENSEMBLE_SECTIONS[analysis]
    return f"""\
[experiment]
analysis = {analysis}
seed = 1

[model]
name = linear_ou

[scheme]
eps = 1e-2
micro_dt = 0.1
macro_dt = 0.08
{scheme_keys}
[analysis]
schemes = {schemes}
{analysis_keys}"""


def test_mfpt_runs_direct_once_at_lambda_1(tmp_path):
    # the direct scheme ignores lambda, so a sweep runs it once
    path = tmp_path / "sweep.cfg"
    path.write_text(_config_text("mfpt_vs_lambda", "direct, hmm").replace(
        "lambdas = 2", "lambdas = 1, 2, 4"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    rows = [line.split(",")[:2]
            for line in _read_body(tmp_path / "sweep_mfpt.csv")
            if not line.startswith("#")]
    assert rows == [["scheme", "lam"], ["direct", "1"], ["hmm", "1"],
                    ["hmm", "2"], ["hmm", "4"]]


@pytest.mark.parametrize("analysis", sorted(_ENSEMBLE_SECTIONS))
def test_averaged_scheme_is_rejected_by_ensemble_analyses(tmp_path, analysis):
    # no ensemble driver runs the averaged scheme; it used to run as hmm
    path = tmp_path / "exp.cfg"
    text = _config_text(analysis, "averaged, hmm")
    path.write_text(text)
    line = text.splitlines().index("schemes = averaged, hmm") + 1
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "schemes must be one of" in str(err.value)
    assert "got 'averaged'" in str(err.value)
    assert err.value.line == line and f"line {line}" in str(err.value)


def _bad_rows(rows):
    """Rows (analysis, key, value[, named]) as parameters with the ids
    analysis-key-value; the error names ``key`` unless ``named`` is given."""
    return [pytest.param(*row[:3], row[3] if len(row) > 3 else row[1],
                         id="-".join(row[:3])) for row in rows]


@pytest.mark.parametrize("analysis, key, value, named", _bad_rows([
    ("variance_vs_lambda", "n_replicas", "0"),
    ("mfpt_vs_lambda", "n_samples", "-1"),
    ("mfpt_vs_lambda", "n_samples", "1"),  # no standard error of one sample
    ("histogram", "n_bins", "0"),
    ("jump_compare", "n_runs", "0"),
    ("jump_compare", "n_runs", "1"),  # no sample variance of one run
    ("variance_vs_lambda", "lambdas", "0, 2"),
    ("fpt_cdf", "lambda", "0"),
    ("variance_vs_lambda", "t", "0"),
    ("jump_compare", "t", "nan"),
    ("jump_compare", "tau", "0"),
    ("jump_compare", "tau", "inf"),
    ("fpt_cdf", "t_cap", "-5"),
    ("mfpt_vs_lambda", "t_cap", "inf"),
    ("histogram", "eps", "nan"),
    ("jump_compare", "eps", "0"),
    ("variance_vs_lambda", "micro_dt", "0"),
    ("histogram", "macro_dt", "inf"),
    ("variance_vs_lambda", "burn_in", "nan"),
    ("histogram", "burn_in", "-1"),
    ("quasipotential", "x_min", "nan"),
    ("quasipotential", "x_max", "nan"),
    ("quasipotential", "x_max", "inf"),
    ("quasipotential", "n_points", "0"),
    ("quasipotential", "x_min", "2.0"),
    ("histogram", "bin_min", "nan"),
    ("histogram", "bin_max", "inf"),
    ("histogram", "bin_min", "1"),
    ("fpt_cdf", "start", "nan"),
    ("mfpt_vs_lambda", "threshold", "inf"),
    ("fpt_cdf", "threshold", "0"),
    ("mfpt_vs_lambda", "threshold", "-0.3"),
    ("fpt_cdf", "equil_fast_time", "nan"),
    ("mfpt_vs_lambda", "equil_fast_time", "-1"),
    ("jump_compare", "x0", "nan"),
    ("jump_compare", "x0", "-1"),
    ("variance_vs_lambda", "sigma", "nan"),
    ("mfpt_vs_lambda", "theta", "inf"),
    ("jump_compare", "birth", "nan"),
    ("jump_compare", "death", "inf"),
    ("mfpt_vs_lambda", "lambdas", ","),
    ("variance_vs_lambda", "lambdas", ","),
    ("histogram", "schemes", ","),
    ("variance_vs_lambda", "burn_in", "20"),
    ("variance_vs_lambda", "x0", "nan"),
    ("histogram", "x0", "nan"),
    ("quasipotential", "x_min", "0"),
    ("variance_vs_lambda", "macro_dt", "1e-9"),
    # eps * micro_dt = 0.05 does not divide macro_dt = 0.08
    ("variance_vs_lambda", "micro_dt", "5", "macro_dt"),
]))
def test_bad_value_exits_2(tmp_path, capsys, analysis, key, value, named):
    # these used to crash inside the run (ZeroDivisionError, ValueError,
    # OverflowError), hang, or exit 0 with nan or empty tables instead of
    # failing as config errors
    path = tmp_path / "exp.cfg"
    path.write_text(_set_key(_config_text(analysis), key, value))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"key {named!r}" in err
    assert "unknown key" not in err


def test_variance_of_fewer_than_two_samples_exits_2(tmp_path, capsys):
    # a chain of one macro step and no burn-in pools one sample; its
    # variance used to be written as nan with exit status 0
    path = tmp_path / "exp.cfg"
    path.write_text(_set_key(_config_text("variance_vs_lambda"), "t", "0.08"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "hmm at lam 2 pools 1 sample(s)" in err and "key 'burn_in'" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("model, analysis, key, value", [
    ("linear_ou", "variance_vs_lambda", "mu", "2"),
    ("double_well", "mfpt_vs_lambda", "mu", "-1"),
    ("non_diffusive", "quasipotential", "nu", "0"),
    ("linear_ou", "histogram", "theta", "0"),
    ("non_diffusive", "quasipotential", "nu", "5"),
    ("non_diffusive", "quasipotential", "sigma", "100"),
])
def test_model_out_of_range_exits_2(tmp_path, capsys, model, analysis, key,
                                    value):
    # the model constructors reject these; they used to end in a traceback
    text = _config_text(analysis).replace("name = linear_ou",
                                          f"name = {model}")
    path = tmp_path / "exp.cfg"
    path.write_text(_set_key(text, key, value))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "[model]" in err and key in err


def _set_key(text, key, value):
    """``text`` with ``key = value``: replaced where the key is set, else
    added to [model] (model parameters) or to the last section."""
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(text):
        return line.sub(f"{key} = {value}", text)
    if key in ("theta", "mu", "sigma", "nu", "birth", "death"):
        return re.sub(r"^name = .*$", rf"\g<0>\n{key} = {value}", text,
                      count=1, flags=re.M)
    return text + f"{key} = {value}\n"


class TestNumericalFailure:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unstable_scheme_exits_1(self, tmp_path, capsys):
        # micro step far beyond the fast stability limit: the burst blows
        # up and the runner reports a numerical failure
        path = tmp_path / "unstable.cfg"
        path.write_text("""\
[experiment]
analysis = variance_vs_lambda
seed = 3

[model]
name = linear_ou
theta = 1.0
mu = 0.5
sigma = 5.0

[scheme]
eps = 1e-2
micro_dt = 25.0
macro_dt = 10.0
lambdas = 1
t = 500
burn_in = 10

[analysis]
schemes = hmm
n_replicas = 2
""")
        assert main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "numerical failure" in capsys.readouterr().err
