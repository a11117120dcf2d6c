import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qnls6.cli import (export_profile_csv, load_profile_csv, main, write_csv,
                       write_json)
from qnls6.config import (ConfigError, parse_a_values, parse_config, parse_radii,
                          parse_recipe, print_config)
import qnls6
from qnls6.grid import RadialGrid, h1dot_norm
from conftest import random_pair
from test_evolution import assert_no_child_left

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

    def test_profile_with_a_row_at_r_zero_loads(self, tmp_path):
        # the sample at r = 0 is the even extension's node, not a second one
        r = np.linspace(0.0, 8.0, 161)
        path = tmp_path / "profile.csv"
        write_csv(str(path), ("r", "re_u", "im_u", "re_v", "im_v"),
                  zip(r, np.exp(-r * r), 0.0 * r, 0.5 * np.exp(-r * r), -np.exp(-r * r)))
        grid = RadialGrid(n=96, r_max=8.0, stretch=9.0)
        loaded = load_profile_csv(str(path), grid, 0.5)
        gauss = np.exp(-grid.nodes ** 2)
        assert np.max(np.abs(loaded.u - gauss)) < 1e-3
        assert np.max(np.abs(loaded.v - (0.5 - 1j) * gauss)) < 1e-3


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
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nmonitor_stride = 0\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[grid]\nr_max = -1\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[grid]\nstretch = -1\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[spectrum]\ncross_check_r_max = -1\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[special]\norder = 0\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nn = 64\nt_end = 0\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nn = 64\nvirial_radii = 0.5\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nn = 64\n"
        "[sweep]\nrecipe = qscale:1:lambda=-1\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nn = 64\n"
        "[sweep]\nrecipe = file:no/such/profile.csv\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nn = 64\nvirial_radii = nan\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[grid]\nr_max = inf\n",
        "scenario = evolve\n[physics]\nkappa = 0.5\n[evolution]\nn = 64\n"
        "[sweep]\nrecipe = qscale:nan\n",
    ], ids=["blowup-factor", "scheme", "system", "seed", "recipe-number", "virial-radii",
            "a-values", "kappa-nan", "json-text-int",
            "json-list-int", "json-blowup-factor", "json-recipes-string", "json-malformed",
            "monitor-stride-0", "grid-r-max", "grid-stretch", "cross-check-r-max",
            "special-order-0", "t-end-0", "virial-radius-below-1", "recipe-lambda-negative",
            "recipe-file-missing", "virial-radius-nan", "grid-r-max-inf", "recipe-scale-nan"])
    def test_bad_input_is_one_config_error_line(self, tmp_path, capsys, text):
        cfg = self._write(tmp_path, text)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("extra,named", [
        ('"wrong": 1', "'wrong'"),
        ('"grid": [64]', "'grid'"),
        ('"sweep": ["qscale:1", 2]', "'sweep'"),
        ('"sweep": {"recipes": "qscale:1"}', "'sweep'"),
        ('"evolution": {"n": 64, "wrong": 1}', "'wrong'"),
    ], ids=["top-level-key", "section-not-object", "sweep-not-strings", "sweep-recipes-string",
            "section-key"])
    def test_bad_json_names_its_key_or_section(self, tmp_path, capsys, extra, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "evolve", "physics": {"kappa": 0.5}, ' + extra + "}")
        assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("name,text,named", [
        ("cfg.json", '{"scenario": "evolve", "physics": {"kappa": 0.5}, '
                     '"sweep": {"recipe": ["qscale:1"], "junk": 3}}', "'recipe'"),
        ("cfg.json", '{"scenario": "evolve", "physics": {"kappa": 0.5}, '
                     '"sweep": {"recipes": ["qscale:1"], "junk": 3}}', "'junk'"),
        ("cfg.ini", "scenario = evolve\n[physics]\nkappa = 0.5\n[sweep]\nwrong = 1\n",
         "'wrong'"),
    ], ids=["json-recipe-misspelt", "json-extra-key", "text"])
    def test_sweep_refuses_unknown_keys(self, tmp_path, capsys, name, text, named):
        # a misspelt sweep key must not leave the scenario to its default recipes
        cfg = tmp_path / name
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert named in err and "[sweep]" in err and not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_one_config_error_line(self, tmp_path, capsys, where):
        seed = "seed = -20\n" if where == "config" else ""
        cfg = self._write(tmp_path, f"scenario = spectrum\n{seed}[physics]\nkappa = 0.5\n"
                                    "[spectrum]\nn = 64\ncross_check_n = 48\n")
        flag = ["--seed", "-20"] if where == "flag" else []
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out), *flag]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seed = -20") and err.count("\n") == 1
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("line", ["t_end = nan", "t_end = inf", "dt = inf",
                                      "sponge_strength = nan", "sponge_strength = -5",
                                      "snapshot_stride = -1"])
    def test_bad_evolution_value_is_one_config_error_line(self, tmp_path, capsys, line):
        cfg = self._write(tmp_path, "scenario = evolve\n[physics]\nkappa = 0.5\n"
                                    f"[evolution]\nn = 64\n{line}\n")
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [evolution] ") and err.count("\n") == 1
        assert line.split(" = ")[0] in err

    @pytest.mark.parametrize("body", ["[spectrum]\nn = 64\ncoercivity_trials = 0\n"],
                             ids=["coercivity-trials-0"])
    def test_bad_spectrum_input_is_one_config_error_line(self, tmp_path, capsys, body):
        # the evolve cases above never read [spectrum]; spectrum checks its own
        cfg = self._write(tmp_path, f"scenario = spectrum\n[physics]\nkappa = 0.5\n{body}")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("scenario,section,key", [
        ("evolve", "evolution", "n"),
        ("spectrum", "spectrum", "n"),
        ("spectrum", "spectrum", "cross_check_n"),
        ("special", "special", "n"),
    ], ids=["evolution-n", "spectrum-n", "spectrum-cross-check-n", "special-n"])
    def test_grid_size_below_five_is_config_error(self, tmp_path, capsys, scenario, section, key):
        cfg = self._write(tmp_path, f"scenario = {scenario}\n[physics]\nkappa = 0.5\n"
                                    f"[{section}]\n{key} = 3\n")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("scenario,body", [
        ("special", "[special]\nn = 64\na_values = 1, 0\n"),
        ("evolve", "[evolution]\nn = 64\n[sweep]\nrecipe = wa:0\n"),
        ("special", "[special]\nn = 64\ndata_eps = 1\n"),
        ("special", "[special]\nn = 64\ndata_eps = 2\n"),
    ], ids=["special-a-zero", "recipe-wa-zero", "special-data-eps-1", "special-data-eps-2"])
    def test_bad_amplitude_is_one_config_error_line(self, tmp_path, capsys, scenario, body):
        # checked where the amplitudes are used, before any shooting
        cfg = self._write(tmp_path, f"scenario = {scenario}\n[physics]\nkappa = 0.5\n{body}")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "data_eps" in err or "a_values" in err

    @pytest.mark.parametrize("body", [
        "data_eps = 0.05\n[sweep]\nrecipe = wa:0.01\n",
        "n_snapshots = 2\n[sweep]\nrecipe = wa:0.5\n",
    ], ids=["amplitude-below-data-eps", "two-snapshots"])
    def test_wa_recipe_reads_no_special_sampling(self, tmp_path, capsys, body):
        # W^a(0) is summed from the profile series for |a| <= 1 (and shot from
        # x = 1 for |a| > 1): no [special] data_eps or n_snapshots enters it
        cfg = self._write(tmp_path, "scenario = evolve\n[physics]\nkappa = 0.5\n"
                                    f"[evolution]\nn = 64\nt_end = 0.1\n[special]\n{body}")
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        runs = json.loads((out / "evolve.summary.json").read_text())["runs"]
        assert [run["termination"] for run in runs] == ["completed"]

    @pytest.mark.parametrize("scenario,body", [
        ("special", "[special]\nn = 64\na_values = 1, inf\n"),
        ("special", "[special]\nn = 64\na_values = nan\n"),
        ("special", "[special]\nn = 64\na_values = -1e400\n"),
        ("evolve", "[evolution]\nn = 64\n[sweep]\nrecipe = wa:inf\n"),
    ], ids=["special-a-inf", "special-a-nan", "special-a-overflow", "recipe-wa-inf"])
    def test_nonfinite_amplitude_is_one_config_error_line(self, tmp_path, capsys, scenario,
                                                          body):
        cfg = self._write(tmp_path, f"scenario = {scenario}\n[physics]\nkappa = 0.5\n{body}")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("value", ["nan", "0", "-1e-10", "inf"])
    def test_bad_clip_rel_is_one_config_error_line(self, tmp_path, capsys, value):
        # no eigenvalue falls under a NaN or zero clip: both kernel checks would pass
        cfg = self._write(tmp_path, "scenario = spectrum\n[physics]\nkappa = 0.5\n"
                                    f"[spectrum]\nn = 64\ncross_check_n = 48\n"
                                    f"coercivity_trials = 2\nclip_rel = {value}\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [spectrum] clip_rel") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["0", "-0.01", "nan", "inf"])
    @pytest.mark.parametrize("scenario,body", [
        ("special", "[special]\nn = 64\n"),
        ("evolve", "[evolution]\nn = 64\n[sweep]\nrecipe = gplus\n"),
    ], ids=["special", "recipe-gplus"])
    def test_bad_special_dt_is_one_config_error_line(self, tmp_path, capsys, scenario, body,
                                                     value):
        # the shooting legs step by [special] dt, under the [evolution] dt rule
        cfg = self._write(tmp_path, f"scenario = {scenario}\n[physics]\nkappa = 0.5\n"
                                    f"{body}[special]\ndt = {value}\n")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [special] dt") and err.count("\n") == 1

    @pytest.mark.parametrize("window", [
        "window_lo = 0.5\nwindow_hi = 0.1",
        "window_lo = nan",
        "window1_lo = 0.2\nwindow1_hi = 0.1",
        "window1_hi = inf",
    ], ids=["reversed", "nan", "reversed-first-order", "unbounded"])
    def test_bad_fit_window_is_one_config_error_line(self, tmp_path, capsys, window):
        # checked before anything is built, not after the shooting has run
        cfg = self._write(tmp_path, "scenario = special\n[physics]\nkappa = 0.5\n"
                                    f"[special]\nn = 64\n{window}\n")
        assert main(["special", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [special] window") and err.count("\n") == 1

    @pytest.mark.parametrize("body,key", [
        ("n_snapshots = 1", "n_snapshots"),
        ("n_snapshots = 2", "n_snapshots"),
        ("window_lo = 2\nwindow_hi = 3", "window_lo"),
        ("window1_hi = 1.5", "window1_lo"),
        ("n_snapshots = 5", "window_lo"),
    ], ids=["one-snapshot", "two-snapshots", "window-above-1", "first-order-window-above-1",
            "three-snapshots-short-in-window"])
    def test_unfittable_sampling_is_config_error_before_shooting(self, tmp_path, capsys,
                                                                 monkeypatch, body, key):
        # x = e^(-lambda1 t) <= 1 on the legs, and a slope needs 3 snapshots in
        # its window: refused before any leg is stepped, not after the shooting
        import qnls6.special as special_mod

        def no_shooting(*args, **kwargs):
            raise AssertionError("a leg was stepped")
        monkeypatch.setattr(special_mod, "run_batch", no_shooting)
        cfg = self._write(tmp_path, "scenario = special\n[physics]\nkappa = 0.5\n"
                                    f"[special]\nn = 64\n{body}\n")
        assert main(["special", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [special] {key}") and err.count("\n") == 1

    @pytest.mark.parametrize("scenario,body", [
        ("evolve", "[evolution]\nt_end = 0.1\n[special]\nn = 64\nn_snapshots = 2\n"
                   "[sweep]\nrecipe = gplus\n"),
        ("special", "[special]\nn = 64\ndt = 0.01\ndata_eps = 0.5\nn_snapshots = 20\n"
                    "window_lo = 0.5\nwindow_hi = 1\nwindow1_lo = 0.5\nwindow1_hi = 0.95\n"),
    ], ids=["gplus-two-snapshots", "special-delta-rate-window-empty"])
    def test_threshold_sampling_is_config_error_before_shooting(self, tmp_path, capsys,
                                                                monkeypatch, scenario, body):
        # the [special] sampling checks of qnls6 special hold for the threshold
        # recipes too, and cover the fixed window of hn_gap_rate (delta_rate, G+-)
        import qnls6.special as special_mod

        def no_shooting(*args, **kwargs):
            raise AssertionError("a leg was stepped")
        monkeypatch.setattr(special_mod, "run_batch", no_shooting)
        cfg = self._write(tmp_path, f"scenario = {scenario}\n[grid]\nn = 64\n[physics]\n"
                                    f"kappa = 0.5\n{body}")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "[special]" in err and "Traceback" not in err

    @pytest.mark.parametrize("scenario,body,name", [
        ("special", "[special]\na_values = 1, abc\n", "[special] a_values"),
        ("evolve", "[evolution]\nn = 64\n[sweep]\nrecipe = qscale:abc\n",
         "recipe 'qscale:abc'"),
    ], ids=["a-values", "recipe"])
    def test_unparseable_number_names_its_key(self, tmp_path, capsys, scenario, body, name):
        cfg = self._write(tmp_path, f"scenario = {scenario}\n[physics]\nkappa = 0.5\n{body}")
        assert main([scenario, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert name in err

    CHK_RUN = ("scenario = evolve\n[grid]\nn = {n}\n[physics]\nkappa = {kappa}\n"
               "[evolution]\nt_end = 0.05\n[sweep]\nrecipe = {recipe}\n")

    def test_chk_recipe_starts_from_the_checkpointed_state(self, tmp_path, monkeypatch):
        # run A writes final_run0.chk; run B, seeded from it, starts from A's
        # final state bit for bit, on the same grid and kappa
        import qnls6.cli as cli_mod
        calls = []

        def spy(u0s, *args, **kwargs):
            records = run_batch(u0s, *args, **kwargs)
            calls.append((list(u0s), records))
            return records
        run_batch = cli_mod.run_batch
        monkeypatch.setattr(cli_mod, "run_batch", spy)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = self._write(tmp_path, self.CHK_RUN.format(n=64, kappa=0.5, recipe="qscale:0.9"))
        assert main(["evolve", "--config", cfg_a, "--out", str(out_a)]) == 0
        cfg_b = self._write(tmp_path, self.CHK_RUN.format(
            n=64, kappa=0.5, recipe=f"chk:{out_a / 'final_run0.chk'}"))
        assert main(["evolve", "--config", cfg_b, "--out", str(out_b)]) == 0
        final_a = calls[0][1][0].final_state
        [initial_b] = calls[1][0]
        assert initial_b.grid == final_a.grid and initial_b.kappa == final_a.kappa
        assert np.array_equal(initial_b.u, final_a.u) and np.array_equal(initial_b.v, final_a.v)
        run_b = json.loads((out_b / "evolve.summary.json").read_text())["runs"][0]
        assert run_b["termination"] == "completed"
        assert run_b["final_time"] == pytest.approx(0.05)     # restarted at t = 0

    @pytest.mark.parametrize("n,kappa,truncate", [(96, 0.5, False), (64, 1.0, False),
                                                  (64, 0.5, True)],
                             ids=["other-grid", "other-kappa", "truncated"])
    def test_chk_recipe_refuses_a_foreign_checkpoint(self, tmp_path, capsys, monkeypatch,
                                                     n, kappa, truncate):
        import qnls6.cli as cli_mod
        cfg = self._write(tmp_path, self.CHK_RUN.format(n=64, kappa=0.5, recipe="qscale:0.9"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        chk = tmp_path / "a" / "final_run0.chk"
        if truncate:
            chk.write_bytes(chk.read_bytes()[:-8])

        def no_build(*args, **kwargs):
            raise AssertionError("a bundle was built")
        monkeypatch.setattr(cli_mod, "build_bundle", no_build)
        capsys.readouterr()
        cfg = self._write(tmp_path, self.CHK_RUN.format(n=n, kappa=kappa, recipe=f"chk:{chk}"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: recipe 'chk:") and err.count("\n") == 1

    def test_refused_run_leaves_no_new_out_dir(self, tmp_path, capsys):
        # a checkpoint of another grid is refused inside the scenario: the
        # --out it created is removed, one that was there already is kept
        cfg = self._write(tmp_path, self.CHK_RUN.format(n=64, kappa=0.5, recipe="qscale:0.9"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        cfg = self._write(tmp_path, self.CHK_RUN.format(
            n=96, kappa=0.5, recipe=f"chk:{tmp_path / 'a' / 'final_run0.chk'}"))
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
        assert not (tmp_path / "b").exists()
        kept = tmp_path / "c"
        kept.mkdir()
        (kept / "notes.txt").write_text("kept")
        assert main(["evolve", "--config", cfg, "--out", str(kept)]) == 1
        assert (kept / "notes.txt").read_text() == "kept"
        assert capsys.readouterr().err.count("config error: recipe 'chk:") == 2

    def test_out_naming_a_file_is_one_config_error_line(self, tmp_path, capsys, monkeypatch):
        # os.makedirs refuses an existing regular file: one line, exit 1,
        # before any bundle is built, and the file is left as it was
        import qnls6.cli as cli_mod

        def no_bundle(*args, **kwargs):
            raise AssertionError("a bundle was built")
        monkeypatch.setattr(cli_mod, "build_bundle", no_bundle)
        cfg = self._write(tmp_path, "scenario = ground-state\n[grid]\nn = 64\n"
                                    "[physics]\nkappa = 0.5\n")
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert main(["ground-state", "--config", cfg, "--out", str(afile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err and str(afile) in err
        assert afile.read_text() == "kept"

    def test_short_run_reports_nan_virial_checks(self, tmp_path, capsys):
        # 20 steps at monitor_stride 20: two monitor points, too few for the
        # centered-difference identity checks, which read NaN; the run succeeds
        cfg = self._write(tmp_path, "scenario = evolve\n[physics]\nkappa = 0.5\n"
                                    "[evolution]\nn = 64\nt_end = 0.01\n"
                                    "virial_radii = 5, inf\n")
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        run0 = json.loads((out / "evolve.summary.json").read_text())["runs"][0]
        for key in ("virial_identity_dev_R5", "vr_identity_defect_R5",
                    "virial_identity_dev_Rinf", "vr_identity_defect_Rinf"):
            assert run0[key] == "nan"

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

    def test_spectrum_scenario_fine_grid(self, tmp_path):
        # the dense symmetric product's relative cut rejected mu above n ~ 1070
        cfg = self._write(tmp_path, """
scenario = spectrum
[physics]
kappa = 0.5
[spectrum]
n = 1100
refine_check = false
cross_check_n = 96
coercivity_trials = 3
""")
        out = str(tmp_path / "spec")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        summary = json.loads(open(os.path.join(out, "spectrum.summary.json")).read())
        assert summary["n"] == 1100 and summary["n_negative"] == 1
        assert summary["residual"] < 1e-10

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

    THRESHOLD_SWEEP = """
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
monitor_stride = 10
[special]
order = 2
dt = 0.004
data_eps = 0.05
n_snapshots = 24
"""

    @staticmethod
    def _count_eigenpairs(monkeypatch):
        """The clip_rel of every eigenpair_e call the CLI makes."""
        import qnls6.cli as cli_mod
        real = cli_mod.eigenpair_e
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("clip_rel"))
            return real(*args, **kwargs)
        monkeypatch.setattr(cli_mod, "eigenpair_e", counted)
        return calls

    def test_threshold_sweep_shares_one_pipeline(self, tmp_path, monkeypatch):
        # gplus and gminus are shot on one discrete-background pipeline, and
        # the batch gives each run what its recipe gives alone
        calls = self._count_eigenpairs(monkeypatch)
        recipes = ("gplus", "gminus")
        text = self.THRESHOLD_SWEEP + "[sweep]\n" + "".join(f"recipe = {r}\n" for r in recipes)
        sweep = tmp_path / "sweep"
        assert main(["evolve", "--config", self._write(tmp_path, text), "--out", str(sweep)]) == 0
        assert len(calls) == 1
        rows = json.loads((sweep / "evolve.summary.json").read_text())["runs"]
        for i, recipe in enumerate(recipes):
            text = self.THRESHOLD_SWEEP + f"[sweep]\nrecipe = {recipe}\n"
            alone = tmp_path / recipe
            assert main(["evolve", "--config", self._write(tmp_path, text),
                         "--out", str(alone)]) == 0
            row = json.loads((alone / "evolve.summary.json").read_text())["runs"][0]
            assert {**rows[i], "label": "run0"} == row
            for name in ("series_run{}.csv", "final_run{}.chk"):
                assert (sweep / name.format(i)).read_bytes() == \
                    (alone / name.format(0)).read_bytes()

    def test_threshold_sweep_shoots_each_start_time_once(self, tmp_path, monkeypatch):
        # gplus, gminus and wa:1 are read from the profile series: no leg is
        # stepped, and the sweep gives each run what its recipe gives alone
        import qnls6.special as special_mod
        real = special_mod.run_batch
        batches = []

        def counted(data, *args, **kwargs):
            batches.append(len(data))
            return real(data, *args, **kwargs)
        monkeypatch.setattr(special_mod, "run_batch", counted)
        recipes = ("gplus", "gminus", "wa:1")
        text = self.THRESHOLD_SWEEP + "[sweep]\n" + "".join(f"recipe = {r}\n" for r in recipes)
        sweep = tmp_path / "sweep"
        assert main(["evolve", "--config", self._write(tmp_path, text), "--out", str(sweep)]) == 0
        assert batches == []
        rows = json.loads((sweep / "evolve.summary.json").read_text())["runs"]
        for i, recipe in enumerate(recipes):
            text = self.THRESHOLD_SWEEP + f"[sweep]\nrecipe = {recipe}\n"
            alone = tmp_path / recipe.replace(":", "_")
            assert main(["evolve", "--config", self._write(tmp_path, text),
                         "--out", str(alone)]) == 0
            row = json.loads((alone / "evolve.summary.json").read_text())["runs"][0]
            assert {**rows[i], "label": "run0"} == row
            for name in ("series_run{}.csv", "final_run{}.chk"):
                assert (sweep / name.format(i)).read_bytes() == \
                    (alone / name.format(0)).read_bytes()

    def test_threshold_recipes_are_the_pair_of_special(self, tmp_path):
        # on one grid and [special] sampling, gplus and gminus start from the
        # G+- that qnls6 special writes, bit for bit
        text = self.THRESHOLD_SWEEP.replace("scenario = evolve", "scenario = special")
        spc = tmp_path / "special"
        assert main(["special", "--config", self._write(tmp_path, text + "[special]\nn = 128\n"),
                     "--out", str(spc)]) == 0
        pair = json.loads((spc / "special.summary.json").read_text())
        text = self.THRESHOLD_SWEEP + "[sweep]\nrecipe = gplus\nrecipe = gminus\n"
        evo = tmp_path / "evolve"
        assert main(["evolve", "--config", self._write(tmp_path, text), "--out", str(evo)]) == 0
        rows = json.loads((evo / "evolve.summary.json").read_text())["runs"]
        for row, name in zip(rows, ("gplus", "gminus")):
            assert row["H_ratio"] == pair[f"{name}_H"] / pair[f"{name}_H_Q"]

    def test_series_recipes_step_no_leg(self, tmp_path, monkeypatch):
        # G+- and W^a(0) with |a| <= 1 are sums of the profile series
        import qnls6.special as special_mod

        def no_shooting(*args, **kwargs):
            raise AssertionError("a leg was stepped")
        monkeypatch.setattr(special_mod, "run_batch", no_shooting)
        text = self.THRESHOLD_SWEEP + "[sweep]\nrecipe = gplus\nrecipe = gminus\nrecipe = wa:0.5\n"
        out = tmp_path / "series"
        assert main(["evolve", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        rows = json.loads((out / "evolve.summary.json").read_text())["runs"]
        assert [row["termination"] for row in rows] == ["completed"] * 3

    def test_wa_above_one_is_shot_from_x_one(self, tmp_path, monkeypatch):
        # W^2 at t1 = ln 2 / lambda1 is T(bQ) plus the series of a = 1 at x = 1,
        # stepped to 0 by one leg
        import qnls6.cli as cli_mod
        import qnls6.special as special_mod
        real_batch, real_series = special_mod.run_batch, cli_mod.profile_series
        legs, series = [], []

        def recorded_batch(data, *args, **kwargs):
            legs.append((list(data), kwargs))
            return real_batch(data, *args, **kwargs)

        def recorded_series(*args, **kwargs):
            series.append(real_series(*args, **kwargs))
            return series[-1]
        monkeypatch.setattr(special_mod, "run_batch", recorded_batch)
        monkeypatch.setattr(cli_mod, "profile_series", recorded_series)
        text = self.THRESHOLD_SWEEP + "[sweep]\nrecipe = wa:2\n"
        out = tmp_path / "wa2"
        assert main(["evolve", "--config", self._write(tmp_path, text), "--out", str(out)]) == 0
        [([start], kwargs)] = legs
        [base] = series
        assert kwargs["t0"] == math.log(2.0) / base.lambda1
        at_x1 = kwargs["fixed_point"] + base.evaluate(0.0)
        assert h1dot_norm(start - at_x1) <= 1e-14 * h1dot_norm(base.evaluate(0.0))

    def test_spectrum_clip_rel_reaches_threshold_recipes(self, tmp_path, monkeypatch):
        calls = self._count_eigenpairs(monkeypatch)
        text = self.THRESHOLD_SWEEP + "[spectrum]\nclip_rel = 2e-10\n[sweep]\nrecipe = wa:0.5\n"
        out = str(tmp_path / "wa")
        assert main(["evolve", "--config", self._write(tmp_path, text), "--out", out]) == 0
        assert calls == [2e-10]

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

    def test_special_summary_reports_tq_step_defect(self, tmp_path):
        # the defect of the legs' step map at T(bQ), which the balancing removes
        cfg = self._write(tmp_path, "scenario = special\n[physics]\nkappa = 0.5\n"
                                    "[special]\nn = 64\ndt = 0.01\ndata_eps = 0.05\n")
        out = tmp_path / "spc"
        assert main(["special", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "special.summary.json").read_text())
        assert 0 < summary["tq_step_defect"] < math.inf
        header = (out / "shot_a+1.csv").read_text().splitlines()[1]
        assert header == "t,dev_wk,dev_first,hn_gap"

    def test_special_checks_the_series_with_stopped_legs(self, tmp_path):
        # G+- come from the profile series, and the legs that check it stop at
        # the monitor point of their last snapshot with x <= 0.3, where the
        # fits end: 60 snapshots are asked for, fewer are taken
        cfg = self._write(tmp_path, "scenario = special\n[physics]\nkappa = 0.5\n"
                                    "[special]\nn = 64\ndt = 0.01\ndata_eps = 0.05\n")
        out = tmp_path / "spc"
        assert main(["special", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "special.summary.json").read_text())
        assert isinstance(summary["series_order"], int)
        assert summary["series_order"] >= summary["k"]
        assert 0 <= summary["series_last_term"] < 1e-12
        for tag in ("a+1", "a-1"):
            assert 0 < summary[f"{tag}_leg_vs_series"] < 1e-2
            rows = np.loadtxt(out / f"shot_{tag}.csv", delimiter=",", skiprows=2)
            assert 3 <= len(rows) < 60
            stride = 50 * 0.01
            assert np.exp(-summary["lambda1"] * (rows[-1, 0] + stride)) < 0.3

    def test_special_translation_check_keeps_full_legs(self, tmp_path):
        # W^2 is compared with W^1 shifted by log 2 / lambda1, further down
        # the legs than the fits reach, so those legs run to t = 0
        cfg = self._write(tmp_path, "scenario = special\n[physics]\nkappa = 0.5\n"
                                    "[special]\nn = 64\ndt = 0.01\ndata_eps = 0.05\n"
                                    "a_values = 1, 2\nn_snapshots = 30\n")
        out = tmp_path / "spc"
        assert main(["special", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "special.summary.json").read_text())
        assert summary["translation_overlap"] >= 10
        rows = np.loadtxt(out / "shot_a+1.csv", delimiter=",", skiprows=2)
        assert rows[-1, 0] < 0.5 * 50 * 0.01

    def test_special_translation_check_steps_with_the_legs_map(self, tmp_path):
        # the nearest W^1 snapshot is carried over the fractional offset by
        # run_batch with the legs' own dt and balancing, so the mismatch is
        # the legs' time-step error, well inside criterion 14's bound
        cfg = self._write(tmp_path, "scenario = special\n[physics]\nkappa = 0.5\n"
                                    "[special]\nn = 64\ndt = 0.01\ndata_eps = 0.05\n"
                                    "a_values = 1, 2\nn_snapshots = 30\n")
        out = tmp_path / "spc"
        assert main(["special", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "special.summary.json").read_text())
        assert 0 < summary["translation_mismatch"] <= 1e-3


class TestSpectrumSideBySide:
    """scenario_spectrum runs its dense cross-check in a forked child when two
    CPUs are usable, beside the rest of the scenario in this process."""

    CONFIG = ("scenario = spectrum\n[physics]\nkappa = 0.5\n[spectrum]\nn = 96\n"
              "cross_check_n = 64\ncoercivity_trials = 3\n")

    @pytest.fixture
    def forks(self, counted_forks, monkeypatch):
        """The pids the scenario forks, with two usable CPUs."""
        import qnls6.evolution as evolution
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 2)
        return counted_forks

    def _run(self, tmp_path, name):
        cfg = tmp_path / "spectrum.ini"
        cfg.write_text(self.CONFIG)
        return main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / name),
                     "--seed", "5"])

    def test_artifacts_are_the_same_on_one_and_two_cpus(self, tmp_path, forks, monkeypatch):
        import qnls6.evolution as evolution
        assert self._run(tmp_path, "two") == 0
        assert len(forks) == 1
        assert_no_child_left()
        monkeypatch.setattr(evolution, "_usable_cpus", lambda: 1)
        assert self._run(tmp_path, "one") == 0
        assert len(forks) == 1
        names = sorted(os.listdir(tmp_path / "one"))
        assert names == sorted(os.listdir(tmp_path / "two")) and "eigenfunction.csv" in names
        for name in names:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_an_error_in_the_child_is_a_numerical_failure(self, tmp_path, capsys, forks,
                                                          monkeypatch):
        import qnls6.cli as cli_mod
        from qnls6.spectrum import SpectrumError
        parent = os.getpid()

        def failing(bundle):
            where = "parent" if os.getpid() == parent else "child"
            raise SpectrumError(f"dense check failed in the {where}")
        monkeypatch.setattr(cli_mod, "dense_cross_check", failing)
        assert self._run(tmp_path, "o") == 2
        err = capsys.readouterr().err
        assert err == "numerical failure: dense check failed in the child\n"
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_child_that_dies_is_a_numerical_failure(self, tmp_path, capsys, forks,
                                                      monkeypatch):
        import signal
        import qnls6.cli as cli_mod
        parent = os.getpid()

        def killed(bundle):
            assert os.getpid() != parent
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(cli_mod, "dense_cross_check", killed)
        assert self._run(tmp_path, "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "exit status -9" in err
        assert err.count("\n") == 1
        assert_no_child_left()

    def test_a_config_error_here_kills_the_running_child(self, tmp_path, capsys, forks,
                                                         monkeypatch):
        import time
        import qnls6.cli as cli_mod
        from qnls6.config import ConfigError
        parent = os.getpid()

        def stalled(bundle):
            assert os.getpid() != parent
            time.sleep(60)

        def refused(bundle, clip_rel):
            raise ConfigError(f"[spectrum] clip_rel = {clip_rel:g} refused")
        monkeypatch.setattr(cli_mod, "dense_cross_check", stalled)
        monkeypatch.setattr(cli_mod, "eigenpair_e", refused)
        start = time.monotonic()
        assert self._run(tmp_path, "o") == 1
        assert time.monotonic() - start < 30
        err = capsys.readouterr().err
        assert err == "config error: [spectrum] clip_rel = 1e-10 refused\n"
        assert len(forks) == 1
        assert_no_child_left()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python_stdout(code: str, **preset: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this qnls6, with no BLAS
    thread variable in its environment but ``preset``; its stripped stdout."""
    src = str(Path(qnls6.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_slow_scipy_modules_out():
    # every CLI run pays its imports; these three cost a quarter second
    code = ("import sys, qnls6.cli; print(sorted(m for m in ('scipy.interpolate', "
            "'scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    assert _python_stdout(code) == "[]"


def test_cli_evolve_leaves_sparse_linalg_out(tmp_path):
    # only the spectrum's inertia counts and resolvent estimate need it
    cfg = tmp_path / "evolve.ini"
    cfg.write_text("scenario = evolve\n[grid]\nn = 32\n[physics]\nkappa = 0.5\n"
                   "[evolution]\nt_end = 0.01\n")
    code = ("import sys, qnls6.cli; "
            f"status = qnls6.cli.main(['evolve', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}]); "
            "print(status, 'scipy.sparse.linalg' in sys.modules)")
    assert _python_stdout(code).splitlines()[-1] == "0 False"   # after main's summary


@pytest.mark.parametrize("module, preset, expected", [
    ("qnls6.cli", {}, {"OPENBLAS_NUM_THREADS": "1"}),
    ("qnls6.cli", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
    ("qnls6.cli", {"GOTO_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}),
    ("qnls6.cli", {"OMP_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "3"}),
    ("qnls6.spectrum", {}, {}),
], ids=["unset", "openblas", "goto", "omp", "library"])
def test_cli_import_sets_one_blas_thread_unless_chosen(module, preset, expected):
    # the CLI picks one BLAS thread before numpy loads; a user's variable wins,
    # and the library modules leave the environment alone
    code = (f"import json, os, {module}; "
            f"print(json.dumps({{k: os.environ[k] for k in {_BLAS_THREAD_VARS!r} "
            "if k in os.environ}))")
    assert json.loads(_python_stdout(code, **preset)) == expected
