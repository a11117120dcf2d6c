"""Benchmark of the qnls6 command-line scenarios.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Every sample is a fresh interpreter running one scenario through the real
CLI entry point (``child.py``), one at a time, so each pays what a CLI user
pays on every invocation: interpreter start, ``import qnls6`` with numpy,
scipy and the OpenBLAS thread pool, and cold module caches
(``RadialPropagator._MEMO``, ``_REFINE_CACHE``).  An untimed sample of the
same scenario on a tiny grid runs first, so byte-compilation and a cold page
cache are not counted.  Samples are launched until the next one would end after
``--seconds`` (at least two per run, or one untraced and one traced with
``--trace 1``).

End-to-end metrics (``--trace 0``) are medians over the untraced samples:

* ``wall_s``       the call into the CLI entry point ``qnls6.cli.main``:
                   argument and config parsing (well under a millisecond)
                   and the scenario;
* ``setup_s``      process launch to that call (interpreter start, ``import
                   qnls6`` with numpy, scipy and OpenBLAS);
* ``cpu_s``        user + system time of the sample process;
* ``peak_rss_mb``  ``ru_maxrss`` of the sample process.

With ``--trace 1`` every other sample runs traced (``tracing.py``); the
per-layer metrics are medians over the traced samples, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

Each sample's ``*.summary.json`` is checked against the acceptance-suite
thresholds (``workloads.py``); a sample whose process fails fails all of its
checks.  The last line of standard output is the JSON result; the full
record, with every sample, check and the provenance, is written to
``perfbench/out/<workload>/seed<n>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, layer_metrics, top_self_times  # noqa: E402
from workloads import PROFILE_GRID, WORKLOADS, write_profile  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]
MIN_SAMPLES = 2
# stop launching samples this long after the first, so a run exits within
# 180 s even when the machine is much slower than expected
LAUNCH_LIMIT_S = 110.0
RUN_LIMIT_S = 170.0


# ---------------------------------------------------------------------------
# statistics


def high_percentile(values) -> tuple[str, float]:
    """The highest of p99.9, p99 and p90 with at least ten samples above it,
    by nearest rank; the sample maximum when there are too few samples."""
    vals = sorted(values)
    n = len(vals)
    for permille in (999, 990, 900):
        rank = -(-permille * n // 1000)          # nearest rank, 1-based
        if rank >= 1 and n - rank >= 10:
            return f"p{permille / 10:g}", vals[rank - 1]
    return "max", vals[-1]


def summarize(values) -> dict:
    """Median, high percentile and sample count of a list of numbers."""
    vals = [float(v) for v in values]
    if not vals:
        return {"median": math.nan, "high_label": "max", "high": math.nan, "n": 0}
    label, high = high_percentile(vals)
    return {"median": statistics.median(vals), "high_label": label, "high": high,
            "n": len(vals)}


# ---------------------------------------------------------------------------
# provenance


def _command_output(cmd) -> str | None:
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        sha = _command_output(["git", "rev-parse", "HEAD"])
    llc = None
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        val = _command_output(["getconf", name])
        if val and val.isdigit() and int(val) > 0:
            llc = {"level": name[5], "bytes": int(val)}
            break
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": sys.version.split()[0],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc": llc or "unknown",
    }


# ---------------------------------------------------------------------------
# samples


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its resource usage; kill it at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _spawn(args, cdir: Path, deadline: float):
    with open(cdir / "stdout.txt", "w") as so, open(cdir / "stderr.txt", "w") as se:
        launched = time.monotonic()
        proc = subprocess.Popen(args, cwd=ROOT, stdout=so, stderr=se)
        try:
            rc, usage = _wait(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
    return launched, rc, usage


def run_sample(wl, cfg_path: Path, seed: int, cdir: Path, traced: bool,
               deadline: float) -> dict:
    shutil.rmtree(cdir, ignore_errors=True)
    cdir.mkdir(parents=True)
    spec = {"scenario": wl.scenario, "config": str(cfg_path), "out": str(cdir / "out"),
            "seed": seed, "src": str(SRC), "trace": traced,
            "result": str(cdir / "result.json")}
    spec_path = cdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    launched, rc, usage = _spawn([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                 cdir, deadline)
    sample = {"traced": traced, "exit_code": rc,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    result = {}
    if (cdir / "result.json").is_file():
        result = json.loads((cdir / "result.json").read_text())
    ok = rc == 0 and result.get("rc") == 0 and "enter" in result and "exit" in result
    summary_path = cdir / "out" / wl.summary_file
    summary = json.loads(summary_path.read_text()) if ok and summary_path.is_file() else None
    sample["ok"] = ok and summary is not None
    if sample["ok"]:
        sample["setup_s"] = result["enter"] - launched
        sample["wall_s"] = result["exit"] - result["enter"]
    sample["checks"] = [{"name": name, "passed": bool(passed), "value": value}
                        for name, passed, value in wl.checks(summary)]
    if not sample["ok"]:
        for c in sample["checks"]:
            c["passed"] = False
        sample["error"] = result.get("error") or (cdir / "stderr.txt").read_text()[-2000:]
    sample["accuracy"] = wl.accuracy(summary)
    sample["provenance"] = result.get("provenance", {})
    if traced and sample["ok"]:
        sample["layers"] = layer_metrics(result["spans"], result["counters"])
        sample["top_self_s"] = top_self_times(result["spans"])
    return sample


def prepare(wl, seed: int, wdir: Path) -> tuple[Path, Path]:
    """Write the run's config and tiny-grid smoke config (and, for
    virial-n2048, the seeded profile both of them read)."""
    profile = ""
    if wl.make_profile:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from qnls6.grid import RadialGrid
        path = wdir / "profile.csv"
        write_profile(path, seed, RadialGrid(**PROFILE_GRID).nodes)
        profile = path.relative_to(ROOT).as_posix()
    cfg, smoke = wdir / "scenario.ini", wdir / "smoke.ini"
    cfg.write_text(wl.config.format(profile=profile))
    smoke.write_text(wl.smoke_config.format(profile=profile))
    return cfg, smoke


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    wdir = OUT / wl.name / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    cfg_path, smoke_path = prepare(wl, seed, wdir)
    # untimed tiny-grid sample: byte-compiles the package and warms the page
    # cache for every module the scenario loads, lazily imported ones too
    run_sample(wl, smoke_path, seed, wdir / "warm-up", False, deadline)
    samples = []
    t0 = time.monotonic()
    while True:
        traced = trace and len(samples) % 2 == 1
        samples.append(run_sample(wl, cfg_path, seed, wdir / f"sample{len(samples)}",
                                  traced, deadline))
        elapsed = time.monotonic() - t0
        plain = sum(not s["traced"] for s in samples)
        enough = (plain >= 1 and plain < len(samples)) if trace else plain >= MIN_SAMPLES
        next_end = elapsed * (len(samples) + 1) / len(samples)
        if (enough and next_end > seconds) or elapsed > LAUNCH_LIMIT_S:
            break
    return report(wl, seed, trace, samples, wdir)


# ---------------------------------------------------------------------------
# results


def report(wl, seed: int, trace: bool, samples: list, wdir: Path) -> dict:
    plain = [s for s in samples if s["ok"] and not s["traced"]]
    traced = [s for s in samples if s["ok"] and s["traced"]]
    e2e = {name: {"unit": unit, **summarize([s[name] for s in plain])}
           for name, unit in END_TO_END}
    accuracy = {k: summarize([s["accuracy"][k] for s in samples if s["ok"]])
                for k in samples[0]["accuracy"]}
    checks = [c for s in samples for c in s["checks"]]
    failed = sum(not c["passed"] for c in checks)
    prov = provenance()
    prov.update(next((s["provenance"] for s in samples if s["provenance"]), {}))
    layers = {}
    if trace and traced:
        layers = {name: {"unit": unit, **summarize([s["layers"][name] for s in traced])}
                  for name, unit in PER_LAYER if name != "trace.overhead_s"}
        overhead = (statistics.median(s["wall_s"] for s in traced)
                    - statistics.median(s["wall_s"] for s in plain)) if plain else math.nan
        layers["trace.overhead_s"] = {"unit": "s", **summarize([overhead])}
        prov["tracing_overhead_s"] = overhead
    record = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "fail_ratio": failed / len(checks) if checks else math.nan,
        "end_to_end": e2e, "accuracy": accuracy, "per_layer": layers,
        "provenance": prov, "samples": samples,
    }
    (wdir / "result.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"checks {rec['attempted'] - rec['failed']}/{rec['attempted']} passed  "
          f"fail_ratio {rec['fail_ratio']:.3g}")
    rows = list(rec["end_to_end"].items())
    if rec["trace"]:
        rows += list(rec["per_layer"].items())
    for name, st in rows:
        print(f"  {name:36s} {st['unit']:7s} median {st['median']:<14.6g} "
              f"{st['high_label']} {st['high']:<14.6g} n={st['n']}")
    for name, st in rec["accuracy"].items():
        print(f"  {name:36s} {'':7s} median {st['median']:<14.6g} n={st['n']}")
    for s in rec["samples"]:
        for c in s["checks"]:
            if not c["passed"]:
                print(f"  FAILED check: {c['name']} (value {c['value']})")
        if "top_self_s" in s:
            print("  largest self times: " +
                  ", ".join(f"{n} {t:.3f}s" for n, t in s["top_self_s"]))
    print("  provenance: " + json.dumps(rec["provenance"], default=str))


def result_line(records: list, trace: bool) -> dict:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        table = r["per_layer"] if trace else r["end_to_end"]
        prefix = "" if len(records) == 1 else r["workload"] + "/"
        for name, st in table.items():
            metrics[prefix + name] = {"value": st["median"], "unit": st["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qnls6" / "cli.py").is_file():
        print(f"benchmark: no qnls6 sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        rec = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_record(rec)
        records.append(rec)
    line = result_line(records, bool(args.trace))
    values = [m["value"] for m in line["metrics"].values()]
    if not values or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        print("benchmark: no successful sample to report", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
