"""Scenario configuration: sectioned key=value files (JSON accepted too).

The format is deliberately flat: top-level ``scenario``, ``seed`` and
``output_dir`` keys followed by [grid], [physics], [evolution], [spectrum],
[special] and [sweep] sections of key = value lines.  '#' and ';' start
comments.  Unknown keys or sections are rejected with their line number;
parse(print(cfg)) round-trips exactly (floats are emitted with 17 significant
digits).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields


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
        if self.grid.n < 5:
            raise ConfigError("grid n too small")
        if self.grid.mapping not in ("uniform", "algebraic"):
            raise ConfigError(f"unknown grid mapping {self.grid.mapping!r}")
        if not self.evolution.dt > 0:
            raise ConfigError("dt must be positive")
        if not self.evolution.blowup_H_factor > 1:
            raise ConfigError("blowup_H_factor must exceed 1")
        if self.evolution.scheme not in ("strang-split", "crank-nicolson"):
            raise ConfigError(f"unknown scheme {self.evolution.scheme!r}")
        if self.evolution.system not in ("original", "transformed"):
            raise ConfigError(f"unknown system {self.evolution.system!r}")
        for rec in self.sweep.recipes:
            parse_recipe(rec)
        parse_radii(self.evolution.virial_radii)
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
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(json.loads(text))
    cfg = ScenarioConfig()
    recipes = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTION_TYPES:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            if key not in _TOP_KEYS:
                raise ConfigError(f"line {lineno}: unknown top-level key {key!r}")
            _set(cfg, key, value, f"line {lineno}")
            continue
        if section == "sweep":
            if key != "recipe":
                raise ConfigError(f"line {lineno}: [sweep] accepts only 'recipe' entries")
            recipes.append(value)
            continue
        block = getattr(cfg, section)
        if key not in {f.name for f in fields(block)}:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        _set(block, key, value, f"line {lineno}")
    cfg.sweep = SweepBlock(recipes=tuple(recipes))
    return cfg.validate()


def _set(obj, key: str, value, where: str) -> None:
    try:
        setattr(obj, key, _coerce(value, type(getattr(obj, key))))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def _from_json(obj: dict) -> ScenarioConfig:
    cfg = ScenarioConfig()
    for key, val in obj.items():
        if key in _TOP_KEYS:
            _set(cfg, key, val, "top level")
        elif key == "sweep":
            recipes = val.get("recipes", ()) if isinstance(val, dict) else val
            if not (isinstance(recipes, (list, tuple)) and all(isinstance(r, str) for r in recipes)):
                raise ConfigError("sweep recipes must be a list of strings")
            cfg.sweep = SweepBlock(recipes=tuple(recipes))
        elif key in _SECTION_TYPES:
            if not isinstance(val, dict):
                raise ConfigError(f"section {key!r} must be an object")
            block = getattr(cfg, key)
            valid = {f.name for f in fields(block)}
            for k2, v2 in val.items():
                if k2 not in valid:
                    raise ConfigError(f"unknown key {k2!r} in section {key!r}")
                _set(block, k2, v2, f"section {key!r}")
        else:
            raise ConfigError(f"unknown top-level key {key!r}")
    return cfg.validate()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def print_config(cfg: ScenarioConfig) -> str:
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


def parse_recipe(text: str) -> dict:
    """Initial-data recipes: qscale:<s>[:theta=<v>][:lambda=<v>], gplus, gminus,
    wa:<a>, file:<path>."""
    parts = text.strip().split(":")
    kind = parts[0]
    if kind == "qscale":
        if len(parts) < 2:
            raise ConfigError(f"recipe {text!r}: qscale needs a scale")
        out = {"kind": "qscale", "scale": float(parts[1]), "theta": 0.0, "lam": 1.0}
        for extra in parts[2:]:
            k, _, v = extra.partition("=")
            if k == "theta":
                out["theta"] = float(v)
            elif k == "lambda":
                out["lam"] = float(v)
            else:
                raise ConfigError(f"recipe {text!r}: unknown modifier {k!r}")
        return out
    if kind in ("gplus", "gminus"):
        if len(parts) > 1:
            raise ConfigError(f"recipe {text!r}: no modifiers allowed")
        return {"kind": kind}
    if kind == "wa":
        if len(parts) != 2:
            raise ConfigError(f"recipe {text!r}: wa needs an amplitude")
        return {"kind": "wa", "a": float(parts[1])}
    if kind == "file":
        if len(parts) < 2:
            raise ConfigError(f"recipe {text!r}: file needs a path")
        return {"kind": "file", "path": ":".join(parts[1:])}
    raise ConfigError(f"unknown recipe kind {kind!r}")


def parse_radii(spec: str) -> tuple:
    """Comma list of virial radii; 'inf' is the unlocalized sentinel."""
    if not spec.strip():
        return ()
    out = []
    for token in spec.split(","):
        token = token.strip()
        out.append(math.inf if token in ("inf", "infinity") else float(token))
    return tuple(out)


def parse_a_values(spec: str) -> tuple:
    return tuple(float(tok) for tok in spec.split(",") if tok.strip())
