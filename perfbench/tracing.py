"""Span tracing of qnls6 from outside the package, and the per-layer metrics.

``install`` wraps the public functions at each module boundary of an
imported ``qnls6``.  Because ``from .x import f`` copies the reference, a
function is replaced in every ``qnls6`` module that holds it.  A span is
``[name, start, end, parent]`` (perf_counter seconds, parent index or -1);
spans are kept in memory and written once the traced run ends.  A call whose
span would have the same name as its immediate parent is folded into the
parent (``discrete_E`` calls ``discrete_H``, ``h1dot_norm`` calls
``h1dot_inner``), so ``calls`` counts outermost calls.

``layer_metrics`` turns one run's spans and counters into the per-layer
metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import warnings
import weakref


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def keep_max(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def keep_min(self, key: str, value) -> None:
        self.counters[key] = min(self.counters.get(key, value), value)

    def wrap(self, name: str, fn, on_exit=None, on_error=None):
        """``fn`` inside a span; ``on_exit(args, kwargs, result)`` and
        ``on_error(exc)`` run after the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx][2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            spans[idx][2] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return traced


def _replace(modules, orig, new) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _array_bytes(obj, depth: int = 2) -> dict:
    """id -> nbytes of the numpy arrays in obj, or inside its tuples, lists
    and dict values down to ``depth`` levels."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return {id(obj): int(obj.nbytes)}
    out = {}
    if depth > 0 and isinstance(obj, (tuple, list, dict)):
        for item in (obj.values() if isinstance(obj, dict) else obj):
            out.update(_array_bytes(item, depth - 1))
    return out


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the imported ``qnls6`` package.

    A boundary the package no longer has is skipped, so a refactored
    program still runs traced and the metrics of that boundary read 0.
    """
    import qnls6.cli  # noqa: F401  (imports every module)
    mods = {name: m for name, m in sys.modules.items()
            if name == "qnls6" or name.startswith("qnls6.")}
    ev, gs, fn, sp, lo, md, special, grid, cli = (
        mods.get(f"qnls6.{name}") for name in (
            "evolution", "groundstate", "functionals", "spectrum", "linops",
            "modulation", "special", "grid", "cli"))
    everywhere = list(mods.values())

    def func(module, attr, span, inner=None, only=None, **hooks):
        """Replace module.attr (in every module holding it, or only in
        ``only``) by a span around ``inner`` (default: the original), or by
        ``inner(original)`` itself when ``span`` is None."""
        orig = getattr(module, attr, None)
        if not callable(orig):
            return
        target = inner(orig) if inner else orig
        new = tracer.wrap(span, target, **hooks) if span else target
        _replace(only or everywhere, orig, new)

    def method(cls, attr, span, **hooks):
        if cls is not None and callable(vars(cls).get(attr)):
            setattr(cls, attr, tracer.wrap(span, vars(cls)[attr], **hooks))

    def counted(key):
        def make(orig):
            def counting(*a, **k):
                tracer.count(key)
                return orig(*a, **k)
            return counting
        return make

    # evolution ------------------------------------------------------------
    Prop = getattr(ev, "RadialPropagator", None)
    live = weakref.WeakKeyDictionary()   # propagator -> cache length last seen

    def cache_bytes():
        arrays = {}
        for val in vars(Prop).values():              # class-level memo
            arrays.update(_array_bytes(val, 3))
        for prop in list(live.keys()):
            arrays.update(_array_bytes(list(vars(prop).values()), 4))
        tracer.keep_max("evolution.cache_bytes", sum(arrays.values()))

    def after_init(args, kwargs, result):
        live[args[0]] = 0
        cache_bytes()

    def after_linear(args, kwargs, result):
        # operand bytes of the eigenbasis propagator: two complex n x n
        # matrices on the cached dense path, else four passes over the real
        # n x n eigenvectors; plus u and v read and written
        prop, u = args[0], args[1]
        dt = args[3] if len(args) > 3 else kwargs.get("dt", 0.0)
        n = len(u)
        cache = getattr(prop, "_cache", None) or {}
        vecs = getattr(prop, "vecs", None)
        if round(dt, 18) in cache:
            matrix = 2 * 16 * n * n
        elif getattr(vecs, "ndim", 0) == 2:
            matrix = 4 * 8 * n * n
        else:
            matrix = 0
        tracer.count("evolution.linear.bytes_computed", matrix + 4 * 16 * n)
        if live.get(prop) != len(cache):
            live[prop] = len(cache)
            cache_bytes()

    def after_run(args, kwargs, rec):
        tracer.count("evolution.steps", getattr(rec, "steps", 0))
        tracer.keep_min("evolution.min_dt", getattr(rec, "min_dt", 0.0))

    method(Prop, "__init__", "evolution.propagator", on_exit=after_init)
    method(Prop, "apply_linear", "evolution.linear", on_exit=after_linear)
    for attr in ("discrete_H", "discrete_P", "discrete_E", "discrete_mass"):
        method(Prop, attr, "evolution.monitor")
    func(ev, "pair_from_arrays", "evolution.monitor", only=[ev])
    func(ev, "_rk4", "evolution.nonlinear")
    func(ev, "run", "evolution.run", on_exit=after_run)
    func(ev, "eigh_tridiagonal", None, inner=counted("evolution.propagator.eig_builds"),
         only=[ev])

    # functionals ----------------------------------------------------------
    for attr in ("virial_I", "virial_F", "mass_type_vr"):
        func(fn, attr, "functionals.virial")
    for attr in ("hamiltonian", "energy", "gap_delta"):
        func(fn, attr, "functionals.hamiltonian")

    # special --------------------------------------------------------------
    func(special, "shoot_w", "special.shoot")
    func(special, "control_leg", "special.control")
    func(special, "approx_profiles", "special.approx_profiles")
    func(special, "residual_eps_k", "special.residual_fit")
    func(special, "construct_g", "special.construct_g")

    # groundstate ----------------------------------------------------------
    def refine_counted(orig):
        def refine(*a, **k):
            cache = getattr(gs, "_REFINE_CACHE", None)
            before = len(cache) if cache is not None else None
            out = orig(*a, **k)
            if before is not None and len(cache) == before:
                tracer.count("groundstate.refine.cache_hits")
            return out
        return refine

    func(gs, "refine_discrete", "groundstate.refine", inner=refine_counted)
    func(gs, "_bordered_tridiag_solve", None, inner=counted("groundstate.refine.newton_steps"),
         only=[gs])
    func(gs, "build_bundle", "groundstate.build_bundle")
    func(gs, "apply_symmetry", "groundstate.apply_symmetry")

    # linops ---------------------------------------------------------------
    for attr in ("build_block_E", "assemble_L", "assemble_E"):
        func(lo, attr, "linops.assemble")
    method(getattr(lo, "PairOperator", None), "symmetric_dense", "linops.assemble")
    func(lo, "bilinear_N", "linops.bilinear_N")

    # spectrum -------------------------------------------------------------
    def after_coercivity(args, kwargs, res):
        trials = args[1] if len(args) > 1 else kwargs.get("trials", 0)
        tracer.count("spectrum.coercivity.requested", trials)
        tracer.count("spectrum.coercivity.kept", res.get("trials", 0))

    func(sp, "sqrt_ei", "spectrum.sqrt_ei")
    func(sp, "negative_eigenpair_tt", "spectrum.tt_eig")
    func(sp, "eigenpair_e", "spectrum.eigenpair")
    func(sp, "lambda1_inverse_iteration", "spectrum.inverse_iteration")
    func(sp, "dense_cross_check", "spectrum.dense_check")
    func(sp, "shifted_solve_conditioning", "spectrum.conditioning")
    func(sp, "coercivity_sample", "spectrum.coercivity", on_exit=after_coercivity)

    # grid -----------------------------------------------------------------
    func(grid, "h1dot_inner", "grid.h1dot")
    func(grid, "h1dot_norm", "grid.h1dot")

    # modulation -----------------------------------------------------------
    def after_decompose(args, kwargs, result):
        if getattr(result[0], "converged", False):
            tracer.count("modulation.converged")

    def decompose_failed(exc):
        if "outside the modulation region" in str(exc):
            tracer.count("modulation.gate_refusals")

    func(md, "decompose", "modulation.decompose", on_exit=after_decompose,
         on_error=decompose_failed)
    for attr in ("lambda_guess", "theta_guess"):
        method(getattr(md, "ModulationFrame", None), attr, "modulation.guess")

    # cli ------------------------------------------------------------------
    def after_write(args, kwargs, result):
        if args and isinstance(args[0], str) and os.path.isfile(args[0]):
            tracer.count("cli.write.bytes", os.path.getsize(args[0]))

    for attr in ("write_csv", "write_json", "write_checkpoint", "export_profile_csv"):
        func(cli, attr, "cli.write", on_exit=after_write)
    func(cli, "parse_config", "cli.parse")

    # every RuntimeWarning is counted (and still shown), not only the first
    # one per source line
    warnings.simplefilter("always", RuntimeWarning)
    show = warnings.showwarning

    def counted_show(message, category, *rest, **kw):
        if issubclass(category, RuntimeWarning):
            tracer.count("cli.runtime_warnings")
        return show(message, category, *rest, **kw)
    warnings.showwarning = counted_show


# ---------------------------------------------------------------------------
# span arithmetic


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children[sp[3]].append(i)
    out = []
    for i, (_, s, e, _) in enumerate(spans):
        kids = ((max(spans[c][1], s), min(spans[c][2], e)) for c in children[i])
        out.append((e - s) - covered_length(kids))
    return out


def group_stats(spans) -> dict:
    """name -> {'calls', 's' (inclusive), 'self_s'}."""
    out: dict = {}
    for sp, own in zip(spans, self_times(spans)):
        g = out.setdefault(sp[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        g["calls"] += 1
        g["s"] += sp[2] - sp[1]
        g["self_s"] += own
    return out


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False


LAYERS = ("evolution", "functionals", "special", "groundstate", "linops",
          "spectrum", "grid", "modulation", "cli")

SCENARIO_SPAN = "cli.main"   # the wall-time window; its self time is uncovered time

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("evolution.linear.calls", "count"),
    ("evolution.linear.s", "s"),
    ("evolution.linear.us_per_call", "us"),
    ("evolution.linear.bytes_computed", "bytes"),
    ("evolution.nonlinear.calls", "count"),
    ("evolution.nonlinear.s", "s"),
    ("evolution.monitor.calls", "count"),
    ("evolution.monitor.s", "s"),
    ("evolution.run.calls", "count"),
    ("evolution.run.s", "s"),
    ("evolution.steps", "count"),
    ("evolution.attempts", "count"),
    ("evolution.accept_ratio", "ratio"),
    ("evolution.min_dt", "t_unit"),
    ("evolution.propagator.calls", "count"),
    ("evolution.propagator.s", "s"),
    ("evolution.propagator.eig_builds", "count"),
    ("evolution.cache_bytes", "bytes"),
    ("functionals.virial.calls", "count"),
    ("functionals.virial.s", "s"),
    ("functionals.hamiltonian.calls", "count"),
    ("functionals.hamiltonian.s", "s"),
    ("special.legs", "count"),
    ("special.leg.s", "s"),
    ("special.approx_profiles.calls", "count"),
    ("special.approx_profiles.s", "s"),
    ("special.diagnostics.s", "s"),
    ("special.residual_fit.s", "s"),
    ("special.construct_g.s", "s"),
    ("groundstate.refine.calls", "count"),
    ("groundstate.refine.s", "s"),
    ("groundstate.refine.newton_steps", "count"),
    ("groundstate.refine.cache_hit_ratio", "ratio"),
    ("groundstate.build_bundle.s", "s"),
    ("groundstate.apply_symmetry.calls", "count"),
    ("groundstate.apply_symmetry.s", "s"),
    ("linops.assemble.s", "s"),
    ("linops.bilinear_N.calls", "count"),
    ("linops.bilinear_N.s", "s"),
    ("spectrum.sqrt_ei.s", "s"),
    ("spectrum.tt_eig.s", "s"),
    ("spectrum.polish.s", "s"),
    ("spectrum.inverse_iteration.s", "s"),
    ("spectrum.dense_check.s", "s"),
    ("spectrum.conditioning.s", "s"),
    ("spectrum.coercivity.s", "s"),
    ("spectrum.coercivity.kept_ratio", "ratio"),
    ("grid.h1dot.calls", "count"),
    ("grid.h1dot.s", "s"),
    ("modulation.decompose.calls", "count"),
    ("modulation.decompose.s", "s"),
    ("modulation.converged_ratio", "ratio"),
    ("modulation.gate_refusals", "count"),
    ("modulation.newton_iters", "count"),
    ("cli.parse.s", "s"),
    ("cli.write.s", "s"),
    ("cli.write.bytes", "bytes"),
    ("cli.runtime_warnings", "count"),
] + [(f"{layer}.self.s", "s") for layer in LAYERS] + [
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one traced run (all of PER_LAYER except
    trace.overhead_s, which needs the untraced runs too).  A layer that did
    no work reports 0."""
    g = group_stats(spans)
    c = counters

    def calls(name):
        return g.get(name, {}).get("calls", 0)

    def secs(name):
        return g.get(name, {}).get("s", 0.0)

    def own(name):
        return g.get(name, {}).get("self_s", 0.0)

    legs = [i for i, sp in enumerate(spans) if sp[0] == "evolution.run"
            and _has_ancestor(spans, i, ("special.shoot", "special.control"))]
    runs = {i for i, sp in enumerate(spans) if sp[0] == "evolution.run"}
    attempts = sum(1 for sp in spans if sp[0] == "evolution.nonlinear" and sp[3] in runs)
    decomposes = {i for i, sp in enumerate(spans) if sp[0] == "modulation.decompose"}
    m = {
        "evolution.linear.calls": calls("evolution.linear"),
        "evolution.linear.s": secs("evolution.linear"),
        "evolution.linear.us_per_call": 1e6 * _ratio(secs("evolution.linear"),
                                                     calls("evolution.linear")),
        "evolution.linear.bytes_computed": c.get("evolution.linear.bytes_computed", 0),
        "evolution.nonlinear.calls": calls("evolution.nonlinear"),
        "evolution.nonlinear.s": secs("evolution.nonlinear"),
        "evolution.monitor.calls": calls("evolution.monitor"),
        "evolution.monitor.s": secs("evolution.monitor"),
        "evolution.run.calls": calls("evolution.run"),
        "evolution.run.s": secs("evolution.run"),
        "evolution.steps": c.get("evolution.steps", 0),
        "evolution.attempts": attempts,
        "evolution.accept_ratio": _ratio(c.get("evolution.steps", 0), attempts),
        "evolution.min_dt": c.get("evolution.min_dt", 0.0),
        "evolution.propagator.calls": calls("evolution.propagator"),
        "evolution.propagator.s": secs("evolution.propagator"),
        "evolution.propagator.eig_builds": c.get("evolution.propagator.eig_builds", 0),
        "evolution.cache_bytes": c.get("evolution.cache_bytes", 0),
        "functionals.virial.calls": calls("functionals.virial"),
        "functionals.virial.s": secs("functionals.virial"),
        "functionals.hamiltonian.calls": calls("functionals.hamiltonian"),
        "functionals.hamiltonian.s": secs("functionals.hamiltonian"),
        "special.legs": len(legs),
        "special.leg.s": sum(spans[i][2] - spans[i][1] for i in legs),
        "special.approx_profiles.calls": calls("special.approx_profiles"),
        "special.approx_profiles.s": secs("special.approx_profiles"),
        "special.diagnostics.s": own("special.shoot"),
        "special.residual_fit.s": secs("special.residual_fit"),
        "special.construct_g.s": secs("special.construct_g"),
        "groundstate.refine.calls": calls("groundstate.refine"),
        "groundstate.refine.s": secs("groundstate.refine"),
        "groundstate.refine.newton_steps": c.get("groundstate.refine.newton_steps", 0),
        "groundstate.refine.cache_hit_ratio": _ratio(c.get("groundstate.refine.cache_hits", 0),
                                                     calls("groundstate.refine")),
        "groundstate.build_bundle.s": secs("groundstate.build_bundle"),
        "groundstate.apply_symmetry.calls": calls("groundstate.apply_symmetry"),
        "groundstate.apply_symmetry.s": secs("groundstate.apply_symmetry"),
        "linops.assemble.s": secs("linops.assemble"),
        "linops.bilinear_N.calls": calls("linops.bilinear_N"),
        "linops.bilinear_N.s": secs("linops.bilinear_N"),
        "spectrum.sqrt_ei.s": secs("spectrum.sqrt_ei"),
        "spectrum.tt_eig.s": secs("spectrum.tt_eig"),
        "spectrum.polish.s": own("spectrum.eigenpair"),
        "spectrum.inverse_iteration.s": secs("spectrum.inverse_iteration"),
        "spectrum.dense_check.s": secs("spectrum.dense_check"),
        "spectrum.conditioning.s": secs("spectrum.conditioning"),
        "spectrum.coercivity.s": secs("spectrum.coercivity"),
        "spectrum.coercivity.kept_ratio": _ratio(c.get("spectrum.coercivity.kept", 0),
                                                 c.get("spectrum.coercivity.requested", 0)),
        "grid.h1dot.calls": calls("grid.h1dot"),
        "grid.h1dot.s": secs("grid.h1dot"),
        "modulation.decompose.calls": calls("modulation.decompose"),
        "modulation.decompose.s": secs("modulation.decompose"),
        "modulation.converged_ratio": _ratio(c.get("modulation.converged", 0),
                                             calls("modulation.decompose")),
        "modulation.gate_refusals": c.get("modulation.gate_refusals", 0),
        "modulation.newton_iters": sum(1 for sp in spans if sp[0] == "groundstate.apply_symmetry"
                                       and sp[3] in decomposes),
        "cli.parse.s": secs("cli.parse"),
        "cli.write.s": secs("cli.write"),
        "cli.write.bytes": c.get("cli.write.bytes", 0),
        "cli.runtime_warnings": c.get("cli.runtime_warnings", 0),
        "trace.wall_s": secs(SCENARIO_SPAN),
        "trace.uncovered_s": own(SCENARIO_SPAN),
    }
    for layer in LAYERS:
        m[f"{layer}.self.s"] = sum(v["self_s"] for k, v in g.items()
                                   if k.startswith(layer + ".") and k != SCENARIO_SPAN)
    return m


def top_self_times(spans, k: int = 5) -> list:
    """The k span groups with the largest self time, largest first."""
    g = group_stats(spans)
    ranked = sorted(((v["self_s"], name) for name, v in g.items() if name != SCENARIO_SPAN),
                    reverse=True)
    return [(name, s) for s, name in ranked[:k]]
