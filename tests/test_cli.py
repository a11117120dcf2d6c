import json
import os

import numpy as np
import pytest

from qnls6.cli import (export_profile_csv, load_profile_csv, main, write_csv,
                       write_json)
from qnls6.config import (ConfigError, parse_a_values, parse_config, parse_radii,
                          parse_recipe, print_config)
from qnls6.grid import RadialGrid
from conftest import random_pair

MINIMAL = """
scenario = ground-state

[physics]
kappa = 0.5
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n == 2048
        assert cfg.grid.r_max == 200.0
        assert cfg.evolution.dt == 1e-3
        assert cfg.physics.kappa == 0.5

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError, match="kappa must be positive"):
            parse_config(MINIMAL.replace("kappa = 0.5", "kappa = -1"))

    def test_unknown_key_cites_line(self):
        bad = MINIMAL + "\n[grid]\nbogus = 3\n"
        with pytest.raises(ConfigError, match=r"line \d+.*bogus"):
            parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(MINIMAL + "\n[nosuch]\nx = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(MINIMAL + "\n[grid]\nnonsense\n")

    def test_sweep_recipes_counted(self):
        text = MINIMAL + "\n[sweep]\nrecipe = qscale:0.9\nrecipe = qscale:1.1\nrecipe = gminus\n"
        cfg = parse_config(text)
        assert len(cfg.sweep.recipes) == 3

    def test_round_trip(self):
        text = MINIMAL + "\n[sweep]\nrecipe = qscale:0.9:theta=0.3\n[evolution]\ndt = 0.0005\n"
        cfg = parse_config(text)
        assert parse_config(print_config(cfg)) == cfg

    def test_json_alternative(self):
        obj = {"scenario": "spectrum", "seed": 7,
               "physics": {"kappa": 1.0}, "spectrum": {"n": 128}}
        cfg = parse_config(json.dumps(obj))
        assert cfg.scenario == "spectrum"
        assert cfg.spectrum.n == 128
        assert cfg.seed == 7

    def test_json_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"scenario": "spectrum", "physics": {"kappa": 1.0},
                                     "grid": {"wrong": 1}}))

    def test_comments_ignored(self):
        cfg = parse_config(MINIMAL + "# a comment\n; another\n")
        assert cfg.physics.kappa == 0.5

    def test_json_values_typed_like_key_value(self):
        obj = {"scenario": "evolve", "seed": "7", "physics": {"kappa": "0.5"},
               "grid": {"n": "64", "r_max": 60}, "evolution": {"adapt": "yes"}}
        text = ("scenario = evolve\nseed = 7\n[physics]\nkappa = 0.5\n"
                "[grid]\nn = 64\nr_max = 60\n[evolution]\nadapt = yes\n")
        cfg = parse_config(json.dumps(obj))
        assert cfg == parse_config(text)
        assert isinstance(cfg.grid.n, int) and isinstance(cfg.grid.r_max, float)


class TestRecipes:
    def test_qscale(self):
        rec = parse_recipe("qscale:0.9:theta=0.3:lambda=1.2")
        assert rec == {"kind": "qscale", "scale": 0.9, "theta": 0.3, "lam": 1.2}

    def test_simple_kinds(self):
        assert parse_recipe("gplus")["kind"] == "gplus"
        assert parse_recipe("wa:2")["a"] == 2.0
        assert parse_recipe("file:some/path.csv")["path"] == "some/path.csv"

    def test_bad_recipes(self):
        for bad in ("qscale", "qscale:1:junk=2", "gplus:x", "nope:1"):
            with pytest.raises(ConfigError):
                parse_recipe(bad)

    def test_radii(self):
        assert parse_radii("5, inf") == (5.0, float("inf"))
        assert parse_radii("") == ()

    def test_a_values(self):
        assert parse_a_values("1, -1, 2") == (1.0, -1.0, 2.0)


class TestSerialization:
    def test_csv_deterministic(self, tmp_path):
        rows = [(0.1, 1.0 / 3.0), (0.2, 2.0 / 3.0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(str(p1), ("t", "x"), rows)
        write_csv(str(p2), ("t", "x"), rows)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().splitlines()[0].startswith("# qnls6")

    def test_json_17_digits(self, tmp_path):
        p = tmp_path / "x.json"
        write_json(str(p), {"value": 1.0 / 3.0, "nested": {"pi": np.pi}, "flag": True})
        text = p.read_text()
        assert "0.33333333333333331" in text
        loaded = json.loads(text)
        assert loaded["value"] == 1.0 / 3.0
        assert loaded["flag"] is True

    def test_profile_roundtrip(self, tmp_path):
        grid = RadialGrid(n=96, r_max=40.0, stretch=9.0)
        rng = np.random.default_rng(401)
        u = random_pair(grid, 0.5, rng)
        path = tmp_path / "profile.csv"
        export_profile_csv(str(path), u)
        loaded = load_profile_csv(str(path), grid, 0.5)
        assert np.max(np.abs(loaded.u - u.u)) < 1e-10


class TestMain:
    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        return str(p)

    def test_ground_state_scenario(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = ground-state
[grid]
n = 256
[physics]
kappa = 0.5
""")
        out = str(tmp_path / "out")
        assert main(["ground-state", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "ground-state.summary.json")).read())
        assert summary["pohozaev_ratio"] == pytest.approx(1.5, rel=2e-3)
        assert os.path.exists(os.path.join(out, "ground_state.csv"))

    def test_determinism(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = ground-state
seed = 5
[grid]
n = 128
r_max = 60
stretch = 9
[physics]
kappa = 0.5
""")
        outs = []
        for name in ("o1", "o2"):
            out = str(tmp_path / name)
            assert main(["ground-state", "--config", cfg, "--out", out]) == 0
            outs.append(open(os.path.join(out, "ground_state.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_report_scenario(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = ground-state
[grid]
n = 128
r_max = 60
stretch = 9
[physics]
kappa = 0.5
""")
        out = str(tmp_path / "arts")
        main(["ground-state", "--config", cfg, "--out", out])
        rep_cfg = self._write(tmp_path, f"""
scenario = report
output_dir = {out}
[physics]
kappa = 0.5
""")
        rep_out = str(tmp_path / "rep")
        assert main(["report", "--config", rep_cfg, "--out", rep_out]) == 0
        report = json.loads(open(os.path.join(rep_out, "report.json")).read())
        assert report["n_entries"] == 1

    def test_report_empty_dir_warns(self, tmp_path):
        rep_cfg = self._write(tmp_path, f"""
scenario = report
output_dir = {tmp_path / 'empty'}
[physics]
kappa = 0.5
""")
        os.makedirs(tmp_path / "empty", exist_ok=True)
        out = str(tmp_path / "rep")
        assert main(["report", "--config", rep_cfg, "--out", out]) == 0
        report = json.loads(open(os.path.join(out, "report.json")).read())
        assert report["warning"]

    def test_bad_config_exit_1(self, tmp_path):
        cfg = self._write(tmp_path, "scenario = evolve\n[physics]\nkappa = -2\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("text", [
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nblowup_H_factor = 0.5\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nscheme = bogus\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nsystem = bogus\n",
        "scenario = evolve\nseed = abc\n[physics]\nkappa = 0.5\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[sweep]\nrecipe = qscale:abc\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nvirial_radii = 5, abc\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[special]\na_values = 1, x\n",
        "scenario = evolve\n[physics]\nkappa = nan\n",
        '{"scenario": "evolve", "physics": {"kappa": 0.5}, "grid": {"n": "sixty-four"}}',
        '{"scenario": "evolve", "physics": {"kappa": 0.5}, "evolution": {"n": [64]}}',
        '{"scenario": "evolve", "physics": {"kappa": 0.5}, "evolution": {"blowup_H_factor": 0.5}}',
        '{"scenario": "evolve", "physics": {"kappa": 0.5}, "sweep": "qscale:1"}',
        '{"scenario": "evolve", "physics": {"kappa": 0.5},',
    ], ids=["blowup-factor", "scheme", "system", "seed", "recipe-number", "virial-radii",
            "a-values", "kappa-nan", "json-text-int",
            "json-list-int", "json-blowup-factor", "json-recipes-string", "json-malformed"])
    def test_bad_input_is_one_config_error_line(self, tmp_path, capsys, text):
        cfg = self._write(tmp_path, text)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_numerical_failure_exit_2(self, tmp_path, monkeypatch):
        import qnls6.cli as cli_mod
        from qnls6.spectrum import SpectrumError

        def boom(cfg, outdir):
            raise SpectrumError("synthetic failure")
        monkeypatch.setitem(cli_mod._SCENARIO_FNS, "spectrum", boom)
        cfg = self._write(tmp_path, "scenario = spectrum\n[physics]\nkappa = 0.5\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_evolve_scenario_small(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = evolve
[grid]
n = 128
r_max = 60
stretch = 9
[physics]
kappa = 0.5
[evolution]
dt = 0.002
t_end = 0.2
monitor_stride = 20
[sweep]
recipe = qscale:0.5
""")
        out = str(tmp_path / "evo")
        assert main(["evolve", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "evolve.summary.json")).read())
        assert summary["runs"][0]["termination"] == "completed"
        assert os.path.exists(os.path.join(out, "series_run0.csv"))
        assert os.path.exists(os.path.join(out, "final_run0.chk"))


class TestScenarioSmoke:
    """End-to-end runs of the heavier scenarios at toy resolution."""

    def _write(self, tmp_path, text):
        p = tmp_path / "cfg.ini"
        p.write_text(text)
        return str(p)

    def test_spectrum_scenario(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = spectrum
[physics]
kappa = 0.5
[spectrum]
n = 128
refine_check = true
cross_check_n = 192
coercivity_trials = 10
""")
        out = str(tmp_path / "spec")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "spectrum.summary.json")).read())
        assert summary["lambda1"] > 0
        assert summary["refine_rel_diff"] < 1e-2
        assert summary["coercivity_phi_G_min"] > 0
        assert os.path.exists(os.path.join(out, "eigenfunction.csv"))

    def test_modulate_scenario(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = modulate
[grid]
n = 160
r_max = 80
stretch = 9
[physics]
kappa = 0.5
[evolution]
dt = 0.002
t_end = 0.4
monitor_stride = 20
snapshot_stride = 2
[sweep]
recipe = qscale:1.01
""")
        out = str(tmp_path / "mod")
        assert main(["modulate", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "modulate.summary.json")).read())
        assert summary["converged_fraction"] > 0.9
        assert summary["comparability_band"] < 10
        assert os.path.exists(os.path.join(out, "modulation.csv"))

    def test_modulate_threshold_recipe_tracked_against_its_q(self, tmp_path, monkeypatch):
        # G- is built on the discrete-background Q; its modulation gap
        # delta = |H(u) - H(Q)| must be taken against that Q
        import qnls6.cli as cli_mod
        from qnls6.functionals import gap_delta
        real = cli_mod._initial_from_recipe
        built = []

        def keep(*args):
            built.append(real(*args))
            return built[-1]
        monkeypatch.setattr(cli_mod, "_initial_from_recipe", keep)
        cfg = self._write(tmp_path, """
scenario = modulate
[grid]
n = 128
r_max = 60
stretch = 9
[physics]
kappa = 0.5
[evolution]
dt = 0.002
t_end = 0.2
monitor_stride = 10
snapshot_stride = 2
[special]
order = 2
dt = 0.004
data_eps = 0.05
n_snapshots = 24
[sweep]
recipe = gminus
""")
        out = tmp_path / "modg"
        assert main(["modulate", "--config", cfg, "--out", str(out)]) == 0
        initial, bundle = built[0]
        assert bundle.background == "discrete"
        rows = np.loadtxt(out / "modulation.csv", delimiter=",", skiprows=2, ndmin=2)
        assert rows[0, 0] == 0.0
        assert rows[0, 4] == pytest.approx(gap_delta(initial, bundle), rel=1e-12)

    def test_dichotomy_scenario(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = dichotomy
[grid]
n = 160
r_max = 80
stretch = 9
[physics]
kappa = 0.5
[evolution]
dt = 0.002
t_end = 14
monitor_stride = 50
[sweep]
recipe = qscale:0.75
recipe = qscale:1.3
""")
        out = str(tmp_path / "dich")
        assert main(["dichotomy", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "dichotomy.summary.json")).read())
        classes = [r["classification"] for r in summary["runs"]]
        assert classes[0] == "global-decaying"
        assert classes[1] == "blowup"

    def test_special_scenario(self, tmp_path):
        cfg = self._write(tmp_path, """
scenario = special
[physics]
kappa = 0.5
[special]
n = 128
a_values = 1, -1
order = 2
dt = 0.004
data_eps = 0.05
n_snapshots = 24
""")
        out = str(tmp_path / "spc")
        assert main(["special", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "special.summary.json")).read())
        assert summary["lambda1"] > 0
        assert summary["gminus_H"] < summary["gminus_H_Q"]
        assert os.path.exists(os.path.join(out, "gminus_initial.csv"))
        assert os.path.exists(os.path.join(out, "shot_a+1.csv"))
