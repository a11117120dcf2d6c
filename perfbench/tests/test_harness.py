"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

The last test runs every workload once, traced, on its tiny smoke grid
(about ten seconds in all).
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import (PER_LAYER, Tracer, covered_length, group_stats,  # noqa: E402
                     layer_metrics, self_times)
from workloads import WORKLOADS, gaussian_sum_coefficients  # noqa: E402


# -- span arithmetic ------------------------------------------------------------

def test_covered_length_merges_overlaps_and_ignores_empty():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3)]) == 3.0
    assert covered_length([(1, 3), (0, 2), (1.5, 1.7), (5, 5)]) == 3.0


def test_self_time_of_nested_spans():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["b", 5.0, 6.0, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    g = group_stats(spans)
    assert g["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}


def test_self_time_of_overlapping_children_counts_the_union_once():
    spans = [["p", 0.0, 10.0, -1],
             ["x", 1.0, 5.0, 0],
             ["y", 3.0, 7.0, 0],       # overlaps x
             ["z", 9.0, 12.0, 0]]      # runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrap_folds_reentrant_calls_and_closes_spans_on_error():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap("layer.f", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap("layer.f", outer)
    assert wrapped_outer(1) == 4
    assert len(tracer.spans) == 1

    errors = []

    def boom():
        raise ValueError("x")

    failing = tracer.wrap("layer.g", boom, on_error=errors.append)
    with pytest.raises(ValueError):
        failing()
    assert tracer.spans[-1][0] == "layer.g" and tracer.spans[-1][2] >= tracer.spans[-1][1]
    assert len(errors) == 1 and tracer._stack == []


def test_layer_metrics_attribute_attempts_legs_and_newton_iterations():
    spans = [["cli.main", 0.0, 20.0, -1],                     # 0
             ["special.shoot", 1.0, 9.0, 0],                  # 1
             ["evolution.run", 2.0, 8.0, 1],                  # 2  a shooting leg
             ["evolution.nonlinear", 3.0, 4.0, 2],            # 3  an attempt
             ["evolution.linear", 4.0, 6.0, 2],               # 4
             ["evolution.nonlinear", 9.5, 9.6, 0],            # 5  not inside run
             ["evolution.run", 10.0, 12.0, 0],                # 6  not a leg
             ["modulation.decompose", 13.0, 15.0, 0],         # 7
             ["groundstate.apply_symmetry", 13.5, 14.0, 7],   # 8  a Newton pass
             ["groundstate.apply_symmetry", 16.0, 17.0, 0]]   # 9
    m = layer_metrics(spans, {"evolution.steps": 1})
    assert m["evolution.attempts"] == 1
    assert m["evolution.accept_ratio"] == 1.0
    assert m["special.legs"] == 1 and m["special.leg.s"] == 6.0
    assert m["special.diagnostics.s"] == 2.0
    assert m["modulation.newton_iters"] == 1
    assert m["evolution.linear.us_per_call"] == pytest.approx(2e6)
    assert m["trace.wall_s"] == 20.0
    # uncovered: 20 minus [1,9], [9.5,9.6], [10,12], [13,15], [16,17]
    assert m["trace.uncovered_s"] == pytest.approx(20.0 - 8.0 - 0.1 - 2.0 - 2.0 - 1.0)
    assert m["evolution.self.s"] == pytest.approx(3.0 + 1.0 + 2.0 + 0.1 + 2.0)
    assert set(m) == {name for name, _ in PER_LAYER} - {"trace.overhead_s"}


# -- statistics -------------------------------------------------------------------

@pytest.mark.parametrize("n, label", [(1, "max"), (10, "max"), (99, "max"), (100, "p90"),
                                      (999, "p90"), (1000, "p99"), (10000, "p99.9")])
def test_high_percentile_keeps_ten_samples_above(n, label):
    got, value = run.high_percentile(range(n))
    assert got == label
    assert sum(v > value for v in range(n)) >= (10 if label != "max" else 0)


def test_summarize_reports_median_high_percentile_and_count():
    s = run.summarize([3.0, 1.0, 2.0, 10.0])
    assert s == {"median": 2.5, "high_label": "max", "high": 10.0, "n": 4}
    assert math.isnan(run.summarize([])["median"])


# -- workloads, checks and the contract file ------------------------------------------

def test_benchmark_json_matches_the_harness():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_failed_or_missing_summary_fails_every_check():
    for wl in WORKLOADS.values():
        checks = wl.checks(None)
        assert checks and not any(passed for _, passed, _ in checks)


def test_virial_checks_apply_acceptance_thresholds():
    wl = WORKLOADS["virial-n2048"]
    good = {"runs": [{"termination": "completed", "energy_drift": 8.9e-8, "mass_drift": 1e-12,
                      "virial_identity_dev_R5": 5e-5, "virial_identity_dev_Rinf": 5e-5}]}
    assert all(passed for _, passed, _ in wl.checks(good))
    bad = json.loads(json.dumps(good))
    bad["runs"][0]["energy_drift"] = 2e-6
    bad["runs"][0]["virial_identity_dev_Rinf"] = "nan"   # how the CLI writes NaN
    assert [name for name, passed, _ in wl.checks(bad) if not passed] == \
        ["energy_drift <= 1e-6", "virial deviation R=inf <= 1e-3"]


def test_profile_coefficients_follow_the_seed():
    assert gaussian_sum_coefficients(5) == gaussian_sum_coefficients(5)
    assert gaussian_sum_coefficients(5) != gaussian_sum_coefficients(6)


def test_install_skips_boundaries_the_package_no_longer_has():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]];"
            "import qnls6.cli, qnls6.groundstate as gs, qnls6.evolution as ev, tracing;"
            "del gs._bordered_tridiag_solve, gs._REFINE_CACHE, ev.RadialPropagator.apply_linear;"
            "t = tracing.Tracer(); tracing.install(t);"
            "assert 'apply_linear' not in vars(ev.RadialPropagator)")
    done = subprocess.run([sys.executable, "-c", code, str(HERE), str(run.SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_missing_sources_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    assert run.main(["--workload", "spectrum-n1024", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


# -- smoke pass ------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_sample_is_cold_and_fully_traced(name):
    wl = WORKLOADS[name]
    wdir = run.OUT / "selftest" / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    _, smoke = run.prepare(wl, 3, wdir)
    sample = run.run_sample(wl, smoke, 3, wdir / "sample", True, time.monotonic() + 120)
    assert sample["ok"], sample.get("error")
    assert sample["wall_s"] > 0 and sample["setup_s"] > 0 and sample["peak_rss_mb"] > 0
    layers = sample["layers"]
    assert set(layers) == {n for n, _ in PER_LAYER} - {"trace.overhead_s"}
    assert all(math.isfinite(v) for v in layers.values())
    # every sample starts with cold module caches
    assert layers["groundstate.refine.newton_steps"] > 0
    assert layers["groundstate.refine.cache_hit_ratio"] < 1
    if wl.scenario != "spectrum":
        assert layers["evolution.propagator.eig_builds"] >= 1
    rec = run.report(wl, 3, True, [dict(sample, traced=False), sample], wdir)
    line = run.result_line([rec], True)
    assert set(line["metrics"]) == {n for n, _ in PER_LAYER}
    assert set(run.result_line([rec], False)["metrics"]) == {n for n, _ in run.END_TO_END}
