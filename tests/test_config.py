"""Scenario configuration, and the properties every small valid config holds.

Each invalid field or section is one problem line, whether its value has the
wrong JSON type or is out of range.  Over ``small_scenarios`` the canonical
dict reads back, ``check`` agrees with synthesis, synthesis draws bit for bit
what a loop over the links draws, the redraw's one pass over a block of trial
draws gives each trial its synthesis bit for bit, noiseless sounding returns
the taps (and mu, where the taps span the whole window), and reruns write the
same bytes.  The other config tests are ``TestConfig`` in ``test_harness.py``.
"""

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chirpsounder import (
    PRESETS,
    ConfigError,
    ConstraintViolationError,
    derive_rng,
    emit_results,
    from_dict,
    joint_estimate,
    matched_filter_fractional,
    matched_filter_integer,
    preset,
    receive_fractional,
    run_capacity_experiment,
    run_mse_experiment,
    run_sounding,
    synthesize_channels,
)
from chirpsounder.channel import _channel_block, _draw_shapes
from chirpsounder.cli import main
from chirpsounder.harness import _received, _setup
from tests.test_channel import draw_fractional_offsets, noise_variance_for_snr


@pytest.mark.parametrize("data", [[], None, "?", 3.5], ids=["list", "null", "string", "number"])
def test_document_not_an_object(data):
    with pytest.raises(ConfigError) as exc:
        from_dict(data)
    assert str(exc.value).splitlines()[1:] == ["  config: expected an object"]


WRONG_TYPED = [None, "?", {}, [], True, 3.5]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _problem_lines(data):
    """The problem lines of ``from_dict(data)``: none if it accepts ``data``."""
    try:
        from_dict(data)
    except ConfigError as exc:
        return str(exc).splitlines()[1:]
    return []


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
                lines = _problem_lines(data)
                if len(lines) != 1 or path[-1] not in lines[0]:
                    failures.append((name, path, value, lines))
    assert cases == 745
    assert failures == []


# values of the right JSON type that each field rejects; a key a preset lacks is not probed
OUT_OF_RANGE = {
    ("nodes", "tx"): [0, -1],
    ("nodes", "rx"): [0, -1],
    ("channel", "total_length"): [0, -1],
    ("channel", "active_taps"): [-1],
    ("channel", "integer_offsets"): [-1],
    ("fractional", "mu"): [0.0, 0.75, -1e9, 1e9],
    ("waveform", "length"): [0, -1, 96],
    ("waveform", "chirp_rates"): [  # of the preset's rates: one not a power of 2, a
        lambda rates: [3, *rates[1:]],  # repeated one, one too many
        lambda rates: rates[:1] * len(rates),
        lambda rates: [*rates, 2 * max(rates)],
    ],
    ("pulse", "rolloff"): [-0.5, 1.5, -1e9, 1e9],
    ("pulse", "half_support"): [0, -1],
    ("snr_db",): [-1e9],  # a noise power past any float
    ("capacity", "rho_db"): [[0.0, 1e9]],
    ("capacity", "bins"): [0, -1, 8],  # 8 is below every preset's total_length
    ("trials",): [0, -1, 2**32 + 1],  # a cap on run length, not on the stream counter
    ("seed",): [-1],
}


def test_one_line_per_out_of_range_field():
    # every rejected value is one fault: exactly one problem line, and it names the key
    cases, failures = 0, []
    for name, make in PRESETS.items():
        for path, values in OUT_OF_RANGE.items():
            for value in values:
                data = make()
                parent = data if len(path) == 1 else data[path[0]]
                if path[-1] not in parent:
                    continue
                parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
                cases += 1
                lines = _problem_lines(data)
                if len(lines) != 1 or path[-1] not in lines[0]:
                    failures.append((name, path, value, lines))
    assert cases == 161
    assert failures == []


@pytest.mark.parametrize("name", list(PRESETS))
def test_edge_values_that_config_accepts(name):
    # no seed and no active tap are valid configs; an SNR whose noise level underflows
    # passes config too, and mse, which needs a noise level for its bound, rejects it
    data = PRESETS[name]()
    assert _problem_lines({**data, "seed": 0}) == []
    assert _problem_lines({**data, "channel": {**data["channel"], "active_taps": 0}}) == []
    cfg = from_dict({**data, "snr_db": 1e9})
    with pytest.raises(ConfigError, match="zero noise variance"):
        run_mse_experiment(cfg)
    assert _problem_lines({**data, "trials": 2**32}) == []  # the last t is 2**32 - 1


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


def _soundable(data, fractional=None):
    """The config of ``data``, with ``fractional`` as its fractional section if given, and its
    period doubled until the design bound holds (as drawn, where it already does)."""
    cfg = from_dict({**data, "fractional": fractional or data["fractional"]})
    while not cfg.design_report().passed:
        cfg = cfg.replace(waveform_length=2 * cfg.waveform_length)
    return cfg


def _noiseless(cfg):
    """The stream-(0,) channel, pulse and matrices of ``cfg``, and its noiseless reception."""
    _, channel, pulse, matrices = _setup(cfg, derive_rng(cfg.seed, 0))
    return channel, pulse, matrices, _received(cfg, channel, matrices, pulse)


def _synthesized_link_by_link(cfg, rng):
    """The taps and noise levels of ``synthesize_channels``, one draw per link: each
    link with active taps takes its real parts, then its imaginary parts, in (tx, rx)
    order, after the uniform offsets.  Design-bound and ``MimoScenario`` checks aside."""
    if cfg.fractional and cfg.mu_values is None:
        draw_fractional_offsets(cfg, rng)
    d = cfg.per_link(cfg.integer_offsets)
    taps = np.zeros((cfg.nt, cfg.nr, cfg.total_length), dtype=complex)
    for i in range(cfg.nt):
        for m in range(cfg.nr):
            active = cfg.active_taps[i][m]
            if active:
                draws = rng.standard_normal((2, active))
                block = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
                if cfg.normalize_taps:
                    block = block / np.linalg.norm(block)
                taps[i, m, d[i, m] : d[i, m] + active] = block
    power = np.sum(np.abs(taps) ** 2, axis=2).sum(axis=0) / cfg.waveform_length
    return taps, np.array([noise_variance_for_snr(p, s) for p, s in zip(power, cfg.snr_db)])


@settings(max_examples=60)
@given(data=small_scenarios())
@example(data=scenario([0, 1], [0, 1], [1, 2], 64, 8, 0, [[0, 5], [0, 5]]))  # no active tap
@example(data=scenario([0, 1, 1], [0, 0, 1], [1, 2, 4], 256, 8, [[8, 3, 0], [3, 8, 1], [1, 0, 3]],
                       [[0, 0], [0, 5]], mu="uniform"))  # active counts 0, 1, 3 and 8
def test_synthesis_equals_the_link_by_link_draws(data):
    # bit for bit, taps and sigma2 alike, and the stream ends where the per-link draws end
    for normalize in (False, True):
        cfg = _soundable(data).replace(normalize_taps=normalize)
        ours, oracle = derive_rng(cfg.seed, 0), derive_rng(cfg.seed, 0)
        channel = synthesize_channels(cfg, ours)
        taps, sigma2 = _synthesized_link_by_link(cfg, oracle)
        assert channel.taps.tobytes() == taps.tobytes()
        assert channel.sigma2.tobytes() == sigma2.tobytes()
        assert ours.random() == oracle.random()


@settings(max_examples=60)
@given(data=small_scenarios(), block=st.integers(1, 9))
@example(data=scenario([0, 1, 2], [0], [1, 2, 4], 256, 8, 3, [[0], [2], [4]]), block=5)  # nr = 1
@example(data=scenario([0, 1], [0, 1, 1], [1, 2], 256, 8, 2, [[1, 3]] * 2, mu="uniform",
                       topology="tx-shared"), block=4)
def test_a_block_of_trial_draws_gives_each_trials_synthesis(data, block):
    # the redraw's one pass over a block of stream-(2, t) draws gives trial t the offsets,
    # taps and noise levels that synthesis draws from stream (2, t), byte for byte
    for normalize in (False, True):
        cfg = _soundable(data).replace(normalize_taps=normalize)
        u_shape, n_draws = _draw_shapes(cfg)
        u = None if u_shape is None else np.empty((block, *u_shape))
        draws = np.empty((block, n_draws))
        for t in range(block):
            rng = derive_rng(cfg.seed, 2, t)
            if u is not None:
                rng.random(out=u[t])
            rng.standard_normal(out=draws[t])
        mu, taps, sigma2 = _channel_block(cfg, u, draws)
        assert (mu.shape, taps.shape, sigma2.shape) == (
            (block, cfg.nt, cfg.nr), (block, cfg.nt, cfg.nr, cfg.total_length), (block, cfg.nr)
        )
        assert not taps.flags.writeable and not sigma2.flags.writeable
        for t in range(block):
            channel = synthesize_channels(cfg, derive_rng(cfg.seed, 2, t))
            assert mu[t].tobytes() == channel.mu.tobytes()
            assert taps[t].tobytes() == channel.taps.tobytes()
            assert sigma2[t].tobytes() == channel.sigma2.tobytes()


@settings(max_examples=60)
@given(data=small_scenarios())
def test_noiseless_integer_sounding_returns_the_taps(data):
    cfg = _soundable(data, {"enabled": False})
    channel, _, matrices, r = _noiseless(cfg)
    for i, m in np.ndindex(cfg.nt, cfg.nr):
        h = matched_filter_integer(matrices[i], r[m])
        assert np.abs(h - channel.taps[i, m]).max() <= 1e-12


@settings(max_examples=60)
@given(data=small_scenarios())
def test_noiseless_joint_estimate_recovers_mu_over_a_full_span(data):
    # a link whose taps leave lag 0 or lag L-1 zero has spare lags in which a shifted
    # pulse can absorb the offset, so mu is identifiable only where its nonzero taps
    # span lags 0 .. L-1 (see test_noiseless_estimate_finds_the_global_minimum)
    uniform = {"enabled": True, "mu": "uniform"}
    cfg = _soundable(data, data["fractional"] if data["fractional"]["enabled"] else uniform)
    channel, pulse, matrices, r = _noiseless(cfg)
    for i, m in np.ndindex(cfg.nt, cfg.nr):
        if channel.taps[i, m, 0] and channel.taps[i, m, -1]:
            hF = matched_filter_fractional(matrices[i], r[m])
            rep = joint_estimate(hF, pulse, cfg.total_length)
            assert abs(rep.mu_hat - channel.mu[i, m]) <= 1e-6


def test_noiseless_paper_sec5_fractional_recovers_mu():
    # the preset's links leave five zero lags at one end of the span, yet each offset
    # redrawn from the trial streams is recovered
    cfg = preset("paper-sec5-fractional")
    channel, pulse, matrices, _ = _noiseless(cfg)
    for t in range(20):
        mu = cfg.per_link(draw_fractional_offsets(cfg, derive_rng(cfg.seed, 2, t)))
        r = receive_fractional(replace(channel, mu=mu), matrices, pulse)
        for i, m in np.ndindex(cfg.nt, cfg.nr):
            hF = matched_filter_fractional(matrices[i], r[m])
            assert abs(joint_estimate(hF, pulse, cfg.total_length).mu_hat - mu[i, m]) <= 1e-6


@pytest.mark.xfail(strict=True, reason="the 65-point scan misses a basin narrower than a step")
def test_noiseless_estimate_finds_the_global_minimum():
    # one tap at lag 1 of L = 4, M = 2, rolloff 1: the true mu 0.48654 leaves a relative
    # residual of about 1e-30, but the 65-point scan scores the grid point nearest it at 2e-5
    # and mu = 0.0078 at 2.5e-7, and the polish stops at mu = 0.00598, residual 1.9e-8,
    # flagged converged
    cfg = from_dict(scenario([0], [0, 1, 1], [1], 16, 4, [[0, 0, 1]], [[0, 1]], mu="uniform",
                             M=2, rolloff=1.0, flags=(False, False), snr_db=0.0))
    channel, pulse, matrices, r = _noiseless(cfg)
    rep = joint_estimate(matched_filter_fractional(matrices[0], r[2]), pulse, cfg.total_length)
    assert abs(rep.mu_hat - channel.mu[0, 2]) <= 1e-6
    assert rep.residual <= 1e-10


@settings(max_examples=10)
@given(data=small_scenarios())
def test_reruns_are_byte_identical(data, tmp_path_factory):
    cfg = _soundable(data)
    runs = [run_sounding, run_capacity_experiment]
    if all(any(row[m] for row in cfg.active_taps) for m in range(cfg.nr)):
        runs.append(run_mse_experiment)  # every rx antenna has noise, so a bound
    root = tmp_path_factory.mktemp("reruns")
    for run in runs:
        for fmt in ("csv", "record"):
            a, b = (root / f"{run.__name__}-{fmt}-{k}" for k in "ab")
            names = [os.path.basename(p) for p in emit_results(run(cfg), a, fmt)]
            emit_results(run(cfg), b, fmt)
            names.remove("run_meta.json")  # the one file that holds the time
            assert len(names) >= 2
            assert [n for n in names if (a / n).read_bytes() != (b / n).read_bytes()] == []
