"""Property tests: the config and checkpoint formats round-trip exactly."""

import json
import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls6.config import (SCENARIOS, EvolutionBlock, GridBlock, PhysicsBlock, ScenarioConfig,
                          SpecialBlock, SpectrumBlock, SweepBlock, parse_config, print_config)
from qnls6.evolution import read_checkpoint, write_checkpoint
from qnls6.grid import GridError, RadialGrid, pair_from_arrays

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
# text that survives a key = value line: no comment characters, no edge blanks
word = st.text(st.sampled_from("abcXYZ019_-./"), min_size=1, max_size=12)
sizes = st.integers(min_value=5, max_value=4096)


def number_list(elements):
    return st.lists(elements, min_size=1, max_size=4).map(
        lambda xs: ", ".join(x if isinstance(x, str) else repr(x) for x in xs))


recipes = st.one_of(
    st.tuples(finite, st.none() | finite, st.none() | finite).map(
        lambda p: f"qscale:{p[0]!r}" + (f":theta={p[1]!r}" if p[1] is not None else "")
        + (f":lambda={p[2]!r}" if p[2] is not None else "")),
    st.sampled_from(["gplus", "gminus"]),
    finite.map(lambda a: f"wa:{a!r}"),
    word.map(lambda path: f"file:{path}"),
)

configs = st.builds(
    ScenarioConfig,
    scenario=st.sampled_from(SCENARIOS),
    seed=st.integers(min_value=-2 ** 31, max_value=2 ** 31),
    output_dir=word,
    grid=st.builds(GridBlock, n=sizes, r_max=positive,
                   mapping=st.sampled_from(["uniform", "algebraic"]), stretch=positive),
    physics=st.builds(PhysicsBlock, kappa=positive),
    evolution=st.builds(
        EvolutionBlock, dt=positive, t_end=finite,
        scheme=st.sampled_from(["strang-split", "crank-nicolson"]),
        system=st.sampled_from(["original", "transformed"]),
        blowup_H_factor=st.floats(min_value=1.5, max_value=1e6),
        monitor_stride=st.integers(1, 1000), snapshot_stride=st.integers(0, 100),
        adapt=st.booleans(), sponge=st.booleans(),
        sponge_strength=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
        virial_radii=st.just("") | number_list(positive | st.just("inf")),
        n=st.just(0) | sizes),
    spectrum=st.builds(
        SpectrumBlock, n=sizes, clip_rel=positive, refine_check=st.booleans(),
        cross_check_n=sizes, cross_check_r_max=positive, cross_check_stretch=positive,
        coercivity_trials=st.integers(0, 1000)),
    special=st.builds(
        SpecialBlock, a_values=number_list(finite), order=st.integers(1, 6), dt=positive,
        data_eps=positive, n=sizes, n_snapshots=st.integers(2, 200), window_lo=positive,
        window_hi=positive, window1_lo=positive, window1_hi=positive),
    sweep=st.builds(SweepBlock, recipes=st.lists(recipes, max_size=4).map(tuple)),
)


def as_json(cfg: ScenarioConfig) -> str:
    obj = {"scenario": cfg.scenario, "seed": cfg.seed, "output_dir": cfg.output_dir,
           "sweep": {"recipes": list(cfg.sweep.recipes)}}
    for section in ("grid", "physics", "evolution", "spectrum", "special"):
        block = getattr(cfg, section)
        obj[section] = {f.name: getattr(block, f.name) for f in fields(block)}
    return json.dumps(obj)


@settings(max_examples=60, deadline=None)
@given(configs)
def test_config_round_trip(cfg):
    text = print_config(cfg)
    assert parse_config(text) == cfg
    assert parse_config(as_json(cfg)) == parse_config(text)


grids = st.builds(RadialGrid, n=st.integers(5, 16), r_max=positive,
                  mapping=st.sampled_from(["uniform", "algebraic"]), stretch=positive)


@settings(max_examples=20, deadline=None)
@given(grid=grids, data=st.data())
def test_checkpoint_round_trip(grid, data):
    comp = st.lists(finite, min_size=2 * grid.n, max_size=2 * grid.n).map(
        lambda xs: np.array(xs[0::2]) + 1j * np.array(xs[1::2]))
    u, v = data.draw(comp), data.draw(comp)
    kappa, t = data.draw(positive), data.draw(finite)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.chk")
        write_checkpoint(path, pair_from_arrays(grid, u, v, kappa), t)
        loaded, t_read = read_checkpoint(path, grid)
        assert np.array_equal(loaded.u, u) and np.array_equal(loaded.v, v)
        assert loaded.kappa == kappa and t_read == t
        with open(path, "rb") as fh:
            blob = fh.read()
        for keep in range(len(blob)):
            with open(path, "wb") as fh:
                fh.write(blob[:keep])
            with pytest.raises(GridError, match="truncated"):
                read_checkpoint(path, grid)
