"""Scenario configuration: sectioned key=value files (JSON accepted too).

The format is deliberately flat: top-level ``scenario``, ``seed`` and
``output_dir`` keys followed by [grid], [physics], [evolution], [spectrum],
[special] and [sweep] sections of key = value lines.  '#' and ';' start
comments.  Both formats become one stream of (where, section, key, value)
entries, applied by one loop: unknown keys or sections are rejected with
their line number (JSON: their section); parse(print(cfg)) round-trips
exactly (floats are emitted with 17 significant digits).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

from .evolution import EvolutionConfig
from .grid import GridError, RadialGrid


class ConfigError(ValueError):
    pass


SCENARIOS = ("ground-state", "spectrum", "special", "evolve", "modulate",
             "dichotomy", "report")


@dataclass
class GridBlock:
    n: int = 2048
    r_max: float = 200.0
    mapping: str = "algebraic"
    stretch: float = 29.0


@dataclass
class PhysicsBlock:
    kappa: float = -1.0  # required; negative sentinel triggers the validator


@dataclass
class EvolutionBlock:
    dt: float = 1e-3
    t_end: float = 10.0
    scheme: str = "strang-split"
    system: str = "original"
    blowup_H_factor: float = 50.0
    monitor_stride: int = 20
    snapshot_stride: int = 0
    adapt: bool = False
    sponge: bool = False
    sponge_strength: float = 5.0
    virial_radii: str = ""           # comma list, 'inf' allowed
    n: int = 0                       # 0 = inherit grid.n

    def config(self, **overrides) -> EvolutionConfig:
        """The EvolutionConfig of every key but ``n``, with overrides."""
        base = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "n"}
        base["virial_radii"] = parse_radii(self.virial_radii)
        return EvolutionConfig(**{**base, **overrides})


@dataclass
class SpectrumBlock:
    n: int = 1024
    clip_rel: float = 1e-10
    refine_check: bool = True
    cross_check_n: int = 256
    cross_check_r_max: float = 60.0
    cross_check_stretch: float = 9.0
    coercivity_trials: int = 100


@dataclass
class SpecialBlock:
    a_values: str = "1, -1"
    order: int = 3
    dt: float = 1e-3
    data_eps: float = 1e-2
    n: int = 512
    n_snapshots: int = 60
    window_lo: float = 0.05
    window_hi: float = 0.3
    window1_lo: float = 0.02
    window1_hi: float = 0.12


@dataclass
class SweepBlock:
    recipes: tuple = ()


@dataclass
class ScenarioConfig:
    scenario: str = ""
    seed: int = 0
    output_dir: str = "out"
    grid: GridBlock = field(default_factory=GridBlock)
    physics: PhysicsBlock = field(default_factory=PhysicsBlock)
    evolution: EvolutionBlock = field(default_factory=EvolutionBlock)
    spectrum: SpectrumBlock = field(default_factory=SpectrumBlock)
    special: SpecialBlock = field(default_factory=SpecialBlock)
    sweep: SweepBlock = field(default_factory=SweepBlock)

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if not self.physics.kappa > 0:
            raise ConfigError("kappa must be positive")
        g, sp = self.grid, self.spectrum
        grids = {"[grid] n, r_max, mapping, stretch": (g.n, g.r_max, g.mapping, g.stretch),
                 "[spectrum] n": (sp.n, g.r_max, g.mapping, g.stretch),
                 "[special] n": (self.special.n, g.r_max, g.mapping, g.stretch),
                 "[spectrum] cross_check_n, cross_check_r_max, cross_check_stretch":
                     (sp.cross_check_n, sp.cross_check_r_max, "algebraic", sp.cross_check_stretch)}
        if self.evolution.n != 0:
            grids["[evolution] n"] = (self.evolution.n, g.r_max, g.mapping, g.stretch)
        for keys, (n, r_max, mapping, stretch) in grids.items():
            try:
                RadialGrid(n=n, r_max=r_max, mapping=mapping, stretch=stretch)
            except GridError as exc:
                raise ConfigError(f"{keys}: {exc}") from None
        try:
            self.evolution.config()
        except ValueError as exc:   # a bad field, or a virial radius that is no number
            raise ConfigError(f"[evolution] {exc}") from None
        try:
            EvolutionConfig(dt=self.special.dt, t_end=0.0)   # the legs step by [special] dt
        except ValueError as exc:
            raise ConfigError(f"[special] {exc}") from None
        if self.special.order < 1:
            raise ConfigError(f"[special] order = {self.special.order} must be >= 1")
        if not 0 < sp.clip_rel < math.inf:
            raise ConfigError(f"[spectrum] clip_rel = {sp.clip_rel:g} must be positive and finite")
        for rec in self.sweep.recipes:
            parse_recipe(rec)
        parse_a_values(self.special.a_values)
        return self


_SECTION_TYPES = {
    "grid": GridBlock,
    "physics": PhysicsBlock,
    "evolution": EvolutionBlock,
    "spectrum": SpectrumBlock,
    "special": SpecialBlock,
    "sweep": SweepBlock,
}

_TOP_KEYS = ("scenario", "seed", "output_dir")


def _coerce(value, target_type):
    """A key's value (text, or a JSON scalar) as the type of its default."""
    value = str(value)
    if target_type is bool:
        low = value.strip().lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if target_type is int:
        return int(value.strip())
    if target_type is float:
        return float(value.strip())
    return value.strip()


def parse_config(text: str) -> ScenarioConfig:
    """Parse sectioned key=value text (or a JSON object) into a config."""
    if text.lstrip().startswith("{"):
        return _apply(_json_entries(json.loads(text)))
    return _apply(_text_entries(text))


def _text_entries(text: str):
    """(where, section or None, key, value) of each key = value line."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_TYPES:
                raise ConfigError(f"{where}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        yield where, section, key.strip(), value.strip()


def _json_entries(obj: dict):
    """(where, section or None, key, value) of each JSON key; a section is an
    object, and ``sweep`` a list of recipe strings (or {"recipes": [...]},
    with no other key)."""
    for key, val in obj.items():
        where = f"section {key!r}"
        if key == "sweep":
            if isinstance(val, dict):
                unknown = [k2 for k2 in val if k2 != "recipes"]
                if unknown:
                    raise ConfigError(f"{where}: unknown key {unknown[0]!r} in section [sweep]")
                val = val.get("recipes", ())
            if not (isinstance(val, (list, tuple)) and all(isinstance(r, str) for r in val)):
                raise ConfigError(f"{where}: recipes must be a list of strings")
            yield from ((where, key, "recipe", rec) for rec in val)
        elif key in _SECTION_TYPES:
            if not isinstance(val, dict):
                raise ConfigError(f"{where}: must be an object")
            yield from ((where, key, k2, v2) for k2, v2 in val.items())
        else:
            yield "top level", None, key, val


def _apply(entries) -> ScenarioConfig:
    """The validated config of a stream of (where, section or None, key, value)."""
    cfg = ScenarioConfig()
    recipes = []
    for where, section, key, value in entries:
        if section == "sweep":
            if key != "recipe":
                raise ConfigError(f"{where}: unknown key {key!r} in section [sweep], "
                                  "which takes only 'recipe'")
            recipes.append(value)
            continue
        if section is None and key not in _TOP_KEYS:
            raise ConfigError(f"{where}: unknown top-level key {key!r}")
        obj = cfg if section is None else getattr(cfg, section)
        if key not in {f.name for f in fields(obj)}:
            raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
        try:
            setattr(obj, key, _coerce(value, type(getattr(obj, key))))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc
    cfg.sweep = SweepBlock(recipes=tuple(recipes))
    return cfg.validate()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def print_config(cfg: ScenarioConfig) -> str:
    """The text of cfg; an oracle: test_config_round_trip checks parse(print(cfg)) == cfg."""
    out = [f"scenario = {cfg.scenario}", f"seed = {cfg.seed}",
           f"output_dir = {cfg.output_dir}", ""]
    for section in ("grid", "physics", "evolution", "spectrum", "special"):
        block = getattr(cfg, section)
        out.append(f"[{section}]")
        for f in fields(block):
            out.append(f"{f.name} = {_fmt(getattr(block, f.name))}")
        out.append("")
    out.append("[sweep]")
    for rec in cfg.sweep.recipes:
        out.append(f"recipe = {rec}")
    out.append("")
    return "\n".join(out)


def _number(token: str, where: str) -> float:
    """float(token); a ConfigError naming ``where`` when it is no number."""
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{where}: {token.strip()!r} is not a number") from None


def parse_recipe(text: str) -> dict:
    """Initial-data recipes: qscale:<s>[:theta=<v>][:lambda=<v>], gplus, gminus,
    wa:<a>, file:<path> (a profile CSV) and chk:<path> (a checkpoint of the
    [evolution] grid and [physics] kappa, run from t = 0)."""
    where = f"recipe {text!r}"
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "qscale":
        if len(parts) < 2:
            raise ConfigError(f"{where}: qscale needs a scale")
        out = {"kind": "qscale", "scale": _number(parts[1], where), "theta": 0.0, "lam": 1.0}
        for extra in parts[2:]:
            k, _, v = extra.partition("=")
            if k == "theta":
                out["theta"] = _number(v, where)
            elif k == "lambda":
                out["lam"] = _number(v, where)
            else:
                raise ConfigError(f"{where}: unknown modifier {k!r}")
        return out
    if kind in ("gplus", "gminus"):
        if len(parts) > 1:
            raise ConfigError(f"{where}: no modifiers allowed")
        return {"kind": kind}
    if kind == "wa":
        if len(parts) != 2:
            raise ConfigError(f"{where}: wa needs an amplitude")
        return {"kind": "wa", "a": _number(parts[1], where)}
    if kind in ("file", "chk"):
        if len(parts) < 2:
            raise ConfigError(f"{where}: {kind} needs a path")
        return {"kind": kind, "path": ":".join(parts[1:])}
    raise ConfigError(f"unknown recipe kind {kind!r}")


def parse_radii(spec: str) -> tuple:
    """Comma list of virial radii; 'inf' is the unlocalized sentinel."""
    if not spec.strip():
        return ()
    return tuple(_number(tok, f"virial_radii = {spec}") for tok in spec.split(","))


def parse_a_values(spec: str) -> tuple:
    return tuple(_number(tok, f"[special] a_values = {spec}") for tok in spec.split(",")
                 if tok.strip())
