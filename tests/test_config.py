"""Scenario configuration: each invalid field or section is one problem line.

The other config tests are ``TestConfig`` in ``test_harness.py``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from chirpsounder import (
    PRESETS,
    ConfigError,
    ConstraintViolationError,
    derive_rng,
    from_dict,
    synthesize_channels,
)
from chirpsounder.cli import main


@pytest.mark.parametrize("data", [[], None, "?", 3.5], ids=["list", "null", "string", "number"])
def test_document_not_an_object(data):
    with pytest.raises(ConfigError) as exc:
        from_dict(data)
    assert str(exc.value).splitlines()[1:] == ["  config: expected an object"]


WRONG_TYPED = [None, "?", {}, [], True, 3.5]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def test_one_line_per_wrong_typed_field():
    # every top-level and section key of every preset, set to a value of another JSON
    # type, is one fault: exactly one problem line, and it names the key
    cases, failures = 0, []
    for name, make in PRESETS.items():
        keys = [(key,) for key in make()]
        keys += [(key, sub) for key, section in make().items() if isinstance(section, dict)
                 for sub in section]
        for path in keys:
            for value in WRONG_TYPED:
                data = make()
                parent = data if len(path) == 1 else data[path[0]]
                if _json_type(parent[path[-1]]) == _json_type(value):
                    continue
                parent[path[-1]] = value
                cases += 1
                try:
                    from_dict(data)
                    lines = []  # accepted without a word
                except ConfigError as exc:
                    lines = str(exc).splitlines()[1:]
                if len(lines) != 1 or path[-1] not in lines[0]:
                    failures.append((name, path, value, lines))
    assert cases == 745
    assert failures == []


def scenario(tx_node, rx_node, rates, N, L, active, offsets, *, mu=None, topology="independent",
             M=4, rolloff=0.25, flags=(True, False), snr_db=25.0, trials=1, seed=0):
    """A config dict from its sizes: ``active`` is the (nt, nr) grid, ``offsets`` the
    (mt, mr) one, and ``mu`` None for integer offsets, else 'uniform', a number or a grid."""
    return {
        "name": "property",
        "nodes": {"tx": max(tx_node) + 1, "rx": max(rx_node) + 1},
        "antennas": {"tx_node": list(tx_node), "rx_node": list(rx_node)},
        "channel": {"total_length": L, "active_taps": active, "integer_offsets": offsets,
                    "normalize_taps": flags[0], "redraw_per_trial": flags[1]},
        "fractional": {"enabled": False} if mu is None else {"enabled": True, "mu": mu},
        "waveform": {"length": N, "chirp_rates": list(rates)},
        "pulse": {"kind": "raised-cosine", "rolloff": rolloff, "half_support": M},
        "snr_db": snr_db,
        "lo_topology": topology,
        "capacity": {"rho_db": [0.0, 10.0], "bins": 256},
        "trials": trials,
        "seed": seed,
    }


def node_grid(draw, values, topology, mt, mr):
    """An (mt, mr) grid of node-pair values that the LO topology allows."""
    if topology == "tx-shared":  # one value per rx node
        return [draw(st.lists(values, min_size=mr, max_size=mr))] * mt
    if topology == "rx-shared":  # one value per tx node
        return [[v] * mr for v in draw(st.lists(values, min_size=mt, max_size=mt))]
    return [draw(st.lists(values, min_size=mr, max_size=mr)) for _ in range(mt)]


@st.composite
def small_scenarios(draw):
    """Valid config dicts with N <= 256, nt <= 3 and 1-3 trials, the design bound within
    a column or two of N, and zero active taps, node sharing and mu = 1/2 all in reach."""
    nt, nr = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mt, mr = draw(st.integers(1, nt)), draw(st.integers(1, nr))
    tx_node = list(range(mt)) + draw(st.lists(st.integers(0, mt - 1), min_size=nt - mt,
                                              max_size=nt - mt))
    rx_node = list(range(mr)) + draw(st.lists(st.integers(0, mr - 1), min_size=nr - mr,
                                              max_size=nr - mr))
    n = draw(st.integers(nt + 1, 8))
    rates = [2**e for e in draw(st.lists(st.integers(0, n - 2), min_size=nt, max_size=nt,
                                         unique=True))]
    fractional, M = draw(st.booleans()), draw(st.integers(1, 4))
    half = 2**n // (2 * max(rates))  # the window that puts N on the bound
    window = half + draw(st.sampled_from([-1, 0, 0, 1]) | st.integers(-half, half))
    L = max(window - 2 * M + 1 if fractional else window, 1)
    topology = draw(st.sampled_from(["independent", "tx-shared", "rx-shared"]))
    offsets = node_grid(draw, st.integers(0, L), topology, mt, mr)
    active = [[draw(st.integers(0, L - offsets[tx_node[i]][rx_node[m]])) for m in range(nr)]
              for i in range(nt)]
    fixed, mu = st.just(0.5) | st.floats(0.01, 0.5), None
    if fractional:
        mu = draw(st.sampled_from(["uniform", "number", "grid"]))
        if mu == "number":
            mu = draw(fixed)
        elif mu == "grid":
            mu = node_grid(draw, fixed, topology, mt, mr)
    rolloff = draw(st.sampled_from([0.0, 0.25, 1.0]))
    flags = (draw(st.booleans()), draw(st.booleans()))
    snr_db, trials = draw(st.sampled_from([0.0, 25.0])), draw(st.integers(1, 3))
    return scenario(tx_node, rx_node, rates, 2**n, L, active, offsets, mu=mu,
                    topology=topology, M=M, rolloff=rolloff, flags=flags, snr_db=snr_db,
                    trials=trials, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=60)
@given(data=small_scenarios())
@example(data=scenario([0], [0], [1], 16, 4, 3, [[1]]))  # a single antenna
@example(data=scenario([0, 1], [0, 1], [1, 2], 64, 8, [[0, 0], [3, 0]], [[0, 5], [0, 5]],
                       topology="tx-shared"))  # zero active taps on three links
@example(data=scenario([0, 1], [0, 0], [1, 2], 128, 8, 2, [[1], [6]], mu=0.5, M=2,
                       topology="rx-shared"))
@example(data=scenario([0, 1], [0], [1, 2], 32, 8, 4, [[0], [4]]))  # N = 2*pmax*L
@example(data=scenario([0], [0], [2], 64, 1, 1, [[0]], mu=0.5))  # N = 2*pmax*(2M + L - 1)
def test_small_valid_configs(data, tmp_path_factory):
    # the canonical dict reads back as the same config, and check passes exactly
    # when synthesis does: the bound has one statement
    cfg = from_dict(data)
    assert from_dict(cfg.to_dict()) == cfg
    path = tmp_path_factory.mktemp("cfg") / "scenario.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["check", "--config", str(path)]) == 0
    try:
        synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        synthesized = True
    except ConstraintViolationError:
        synthesized = False
    assert out.getvalue().startswith("PASS") == synthesized
