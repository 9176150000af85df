"""Experiment orchestration: configs, determinism, output formats."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chirpsounder import (
    PRESETS,
    ConfigError,
    ConstraintViolationError,
    awgn,
    build_pulse,
    build_sounding_matrix,
    crb,
    derive_rng,
    emit_results,
    from_dict,
    from_json,
    generate_chirp,
    preset,
    receive_fractional,
    receive_integer,
    run_capacity_experiment,
    run_mse_experiment,
    run_sounding,
    synthesize_channels,
)
from chirpsounder import harness
from chirpsounder.harness import write_table


def test_traced_entry_points_are_plain_functions():
    # the benchmark's tracer wraps only objects for which inspect.isfunction holds, so a
    # cache decorator on any of these would drop it from the trace without an error;
    # every name the package, harness and cli bind to one of them is that same object
    import inspect

    import chirpsounder
    from chirpsounder import channel, cli, estimator, waveform

    traced = [
        waveform.generate_chirp,
        estimator.build_sounding_matrix,
        estimator.matched_filter_integer,
        estimator.matched_filter_fractional,
        estimator.joint_estimate,
        channel.receive_integer,
        channel.receive_fractional,
        channel.awgn,
        harness.run_mse_experiment,
    ]
    for fn in traced:
        assert inspect.isfunction(fn), fn
        for namespace in (chirpsounder, harness, cli):
            assert getattr(namespace, fn.__name__, fn) is fn, (namespace.__name__, fn)
    assert harness.generate_chirp is cli.generate_chirp is waveform.generate_chirp
    assert cli.run_mse_experiment is harness.run_mse_experiment


def small_config(**overrides):
    data = {
        "name": "small",
        "nodes": {"tx": 2, "rx": 2},
        "antennas": {"tx_node": [0, 1], "rx_node": [0, 1]},
        "channel": {
            "total_length": 8,
            "active_taps": 5,
            "integer_offsets": [[0, 0], [3, 3]],
        },
        "fractional": {"enabled": False},
        "waveform": {"length": 128, "chirp_rates": [1, 2]},
        "pulse": {"rolloff": 0.25, "half_support": 4},
        "snr_db": 25.0,
        "capacity": {"rho_db": [0.0, 10.0], "bins": 64},
        "trials": 50,
        "seed": 11,
    }
    data.update(overrides)
    return from_dict(data)


class TestConfig:
    def test_round_trip(self):
        cfg = preset("paper-sec5")
        again = from_json(cfg.canonical_json())
        assert again == cfg
        # a per-antenna snr_db stays a list; a constant one collapses to a scalar
        cfg = small_config(snr_db=[20.0, 25.0])
        assert cfg.to_dict()["snr_db"] == [20.0, 25.0]
        assert from_json(cfg.canonical_json()) == cfg

    def test_round_trip_all_presets(self):
        for name in (
            "paper-sec5",
            "paper-sec5-fractional",
            "capacity-tx-shared",
            "capacity-rx-shared",
            "capacity-multi-lo",
        ):
            cfg = preset(name)
            assert from_json(cfg.canonical_json()) == cfg

    def test_unknown_keys_rejected(self):
        data = json.loads(preset("paper-sec5").canonical_json())
        data["mystery"] = 1
        with pytest.raises(ConfigError, match="unknown key 'mystery'"):
            from_dict(data)
        data = json.loads(preset("paper-sec5").canonical_json())
        data["waveform"]["extra"] = True
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            from_dict(data)

    def test_missing_keys_rejected(self):
        data = json.loads(preset("paper-sec5").canonical_json())
        del data["trials"]
        with pytest.raises(ConfigError, match="missing key 'trials'"):
            from_dict(data)

    def test_duplicate_rates_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            small_config(waveform={"length": 128, "chirp_rates": [2, 2]})

    def test_boolean_rate_rejected(self):
        # a JSON true is not the chirp rate 1
        with pytest.raises(ConfigError, match="power of 2"):
            small_config(waveform={"length": 128, "chirp_rates": [True, 2]})
        with pytest.raises(ConstraintViolationError):
            generate_chirp(True, 128)

    def test_snr_length_checked(self):
        with pytest.raises(ConfigError, match="one value per rx antenna"):
            small_config(snr_db=[25.0, 25.0, 25.0])

    def test_topology_consistency(self):
        with pytest.raises(ConfigError, match="rows must be identical"):
            small_config(
                channel={
                    "total_length": 8,
                    "active_taps": 5,
                    "integer_offsets": [[0, 0], [3, 3]],
                },
                lo_topology="tx-shared",
            )

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("nope")

    def test_bad_mu_rejected(self):
        with pytest.raises(ConfigError, match="fixed offsets"):
            small_config(fractional={"enabled": True, "mu": 0.75})

    def test_unsupported_pulse_kind_rejected(self):
        with pytest.raises(ConfigError, match="pulse.kind: unsupported kind"):
            small_config(pulse={"kind": "sinc", "rolloff": 0.25, "half_support": 4})

    def test_negative_infinity_rho_parses(self):
        cfg = small_config(capacity={"rho_db": [-np.inf, 10.0], "bins": 64})
        assert cfg.rho_db[0] == -np.inf

    @pytest.mark.parametrize(
        "field",
        [
            {"snr_db": np.nan},
            {"snr_db": -np.inf},
            {"snr_db": np.inf},
            {"capacity": {"rho_db": [np.nan], "bins": 64}},
            {"capacity": {"rho_db": [0.0, np.inf], "bins": 64}},
            # JSON integers too large for a float
            {"snr_db": 10**400},
            {"pulse": {"rolloff": -(10**400), "half_support": 4}},
            {"capacity": {"rho_db": [0.0, 10**400], "bins": 64}},
            {"fractional": {"enabled": True, "mu": [[0.1, 0.1], [0.2, 10**400]]}},
        ],
        ids=[
            "snr-nan", "snr-neg-inf", "snr-inf", "rho-nan", "rho-inf",
            "snr-huge-int", "rolloff-huge-int", "rho-huge-int", "mu-huge-int",
        ],
    )
    def test_non_finite_numbers_rejected(self, field):
        with pytest.raises(ConfigError, match="expected a finite number"):
            small_config(**field)

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"nodes": 3}, "nodes: expected an object"),
            ({"name": 5}, "'name' must be a string"),
            (
                {"antennas": {"tx_node": [0, 0], "rx_node": [0, 1]}},
                "antennas.tx_node: every node in [0, 2) needs an antenna",
            ),
            (
                {"channel": {"total_length": 8, "active_taps": -1, "integer_offsets": 0}},
                "channel.active_taps: counts must be >= 0",
            ),
            (
                {"channel": {"total_length": 8, "active_taps": 5,
                             "integer_offsets": [[0, 0], [-1, 3]]}},
                "channel.integer_offsets: offsets must be >= 0",
            ),
            (
                {"fractional": {"enabled": True, "mu": "fixed"}},
                "fractional.mu: expected 'uniform', a number, or a per-pair grid",
            ),
            (
                {"waveform": {"length": 96, "chirp_rates": [1, 2]}},
                "waveform.length: must be a power of 2 exceeding twice the largest rate",
            ),
            (
                {"waveform": {"length": 4, "chirp_rates": [1, 2]}},
                "waveform.length: must be a power of 2 exceeding twice the largest rate",
            ),
            (
                {"pulse": {"rolloff": 1.5, "half_support": 4}},
                "pulse.rolloff: must lie in [0, 1]",
            ),
            ({"lo_topology": "star"}, "lo_topology: expected one of"),
            (
                {"capacity": {"rho_db": [0.0], "bins": 4}},
                "capacity.bins: must be >= channel.total_length (8)",
            ),
            (
                {"channel": {"total_length": 8, "active_taps": 5,
                             "integer_offsets": [[0, 3], [0, 3]]},
                 "fractional": {"enabled": True, "mu": [[0.1, 0.2], [0.3, 0.2]]},
                 "lo_topology": "tx-shared"},
                "tx-shared: fractional.mu rows must be identical",
            ),
            (
                {"channel": {"total_length": 8, "active_taps": 5,
                             "integer_offsets": [[0, 3], [3, 3]]},
                 "lo_topology": "rx-shared"},
                "rx-shared: each integer_offsets row must be constant",
            ),
            (
                {"fractional": {"enabled": True, "mu": [[0.1, 0.2], [0.3, 0.3]]},
                 "lo_topology": "rx-shared"},
                "rx-shared: each fractional.mu row must be constant",
            ),
        ],
        ids=[
            "section-not-object", "name-not-string", "node-without-antenna",
            "negative-active-taps", "negative-offsets", "mu-wrong-type",
            "length-not-pow2", "length-too-short", "rolloff-range", "unknown-topology",
            "bins-below-length", "tx-shared-mu-rows", "rx-shared-offset-rows",
            "rx-shared-mu-rows",
        ],
    )
    def test_field_checks_name_the_field(self, overrides, message):
        with pytest.raises(ConfigError) as exc:
            small_config(**overrides)
        assert message in str(exc.value)

    @pytest.mark.parametrize(
        "mu", [[[0.1, "a"], [0.2, 0.2]], [[0.1, float("nan")], [0.2, 0.2]]],
        ids=["non-number", "nan"],
    )
    def test_rejected_mu_grid_reported_once(self, mu):
        # a grid that fails parsing is not range-checked as well
        with pytest.raises(ConfigError) as exc:
            small_config(fractional={"enabled": True, "mu": mu})
        lines = str(exc.value).splitlines()[1:]
        assert [line for line in lines if "fractional.mu" in line] == [
            "  fractional.mu: expected a finite number or a 2x2 grid of them"
        ]

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            (
                {"capacity": {"rho_db": [0.0], "bins": 0}},
                ["capacity.bins: must be >= 1, got 0"],
            ),
            (
                {"channel": {"total_length": 0, "active_taps": 5,
                             "integer_offsets": [[0, 0], [3, 3]]}},
                ["channel.total_length: must be >= 1, got 0"],
            ),
            (
                {"waveform": {"length": 0, "chirp_rates": [1, 2]}},
                ["waveform.length: must be >= 1, got 0"],
            ),
            (  # a rejected bins leaves the link checks running
                {"capacity": {"rho_db": [0.0], "bins": 0},
                 "channel": {"total_length": 8, "active_taps": 6,
                             "integer_offsets": [[0, 0], [3, 3]]}},
                [
                    "capacity.bins: must be >= 1, got 0",
                    "link (tx 1, rx 0): active_taps + offset = 6 + 3 exceeds total_length 8",
                    "link (tx 1, rx 1): active_taps + offset = 6 + 3 exceeds total_length 8",
                ],
            ),
            (  # the link checks never index offsets with a rejected node
                {"antennas": {"tx_node": [0, 5], "rx_node": [0, 1]}},
                ["antennas.tx_node: node indices must lie in [0, 2)"],
            ),
        ],
        ids=[
            "bins-zero", "total-length-zero", "length-zero", "bins-zero-and-links",
            "node-out-of-range",
        ],
    )
    def test_cross_field_checks_skip_rejected_fields(self, overrides, expected):
        # a rejected field reads as None, and no check across fields reads it
        with pytest.raises(ConfigError) as exc:
            small_config(**overrides)
        assert str(exc.value).splitlines()[1:] == ["  " + line for line in expected]

    @pytest.mark.parametrize(
        "edit,expected",
        [
            (lambda d: d.pop("seed"), ["config: missing key 'seed'"]),
            (lambda d: d.pop("name"), ["config: missing key 'name'"]),
            (lambda d: d.pop("waveform"), ["config: missing key 'waveform'"]),
            (lambda d: d["waveform"].pop("chirp_rates"), ["waveform: missing key 'chirp_rates'"]),
            (lambda d: d["antennas"].pop("tx_node"), ["antennas: missing key 'tx_node'"]),
            (
                lambda d: d["antennas"].update(tx_node=[]),
                ["antennas.tx_node: expected a nonempty list"],
            ),
            # without node counts, node indices and per-pair grids are not checked
            (lambda d: d.pop("nodes"), ["config: missing key 'nodes'"]),
            (lambda d: d["nodes"].update(tx="2"), ["nodes.tx: expected an integer, got '2'"]),
            (
                lambda d: (d.pop("nodes"), d["channel"].update(integer_offsets=[[1, 2]]),
                           d["antennas"].update(rx_node=[0, 0, "a"])),
                ["config: missing key 'nodes'"],
            ),
            # a section that is not an object is one fault, not its keys' faults or defaults
            (lambda d: d.update(nodes=3), ["nodes: expected an object"]),
            (lambda d: d.update(pulse=None), ["pulse: expected an object"]),
            (lambda d: d.update(pulse=[]), ["pulse: expected an object"]),
            (lambda d: d.update(capacity=[]), ["capacity: expected an object"]),
            (  # as in paper-sec5-fractional: mu is not unknown while enabled is rejected
                lambda d: d.update(fractional={"enabled": None, "mu": "uniform"}),
                ["fractional.enabled: expected true or false, got None"],
            ),
            (
                lambda d: d["waveform"].update(chirp_rates=3),
                ["waveform.chirp_rates: expected a nonempty list"],
            ),
            (  # a count no antenna list covers sizes no per-pair grid
                lambda d: d["nodes"].update(tx=10**12),
                ["antennas.tx_node: every node in [0, 1000000000000) needs an antenna"],
            ),
        ],
        ids=[
            "no-seed", "no-name", "no-waveform", "no-rates", "no-tx-node", "empty-tx-node",
            "no-nodes", "rejected-node-count", "no-nodes-any-grid", "nodes-not-object",
            "pulse-null", "pulse-list", "capacity-list", "enabled-null", "rates-not-list",
            "huge-node-count",
        ],
    )
    def test_one_problem_line_per_fault(self, edit, expected):
        # a missing key and a rejected field or section read as None, which no check reads
        data = json.loads(preset("paper-sec5").canonical_json())
        edit(data)
        with pytest.raises(ConfigError) as exc:
            from_dict(data)
        assert str(exc.value).splitlines()[1:] == ["  " + line for line in expected]

    def test_unparseable_text_rejected(self):
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            from_json("{'name': 'single quotes'}")
        # an integer past the interpreter's digit limit fails inside the decoder
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            from_json('{"seed": ' + "7" * 5000 + "}")

    def test_replace_validates(self):
        with pytest.raises(ConfigError, match="trials: must be >= 1"):
            preset("paper-sec5").replace(trials=0)
        cfg = preset("paper-sec5")
        assert cfg.replace(seed=7) == from_dict({**cfg.to_dict(), "seed": 7})

    @staticmethod
    def channel(**fields):
        base = {"total_length": 8, "active_taps": 5, "integer_offsets": [[0, 0], [3, 3]]}
        return {**base, **fields}

    def test_normalize_taps_must_be_boolean(self):
        with pytest.raises(ConfigError, match="normalize_taps: expected true or false"):
            small_config(channel=self.channel(normalize_taps="false"))

    def test_redraw_per_trial_must_be_boolean(self):
        with pytest.raises(ConfigError, match="redraw_per_trial: expected true or false"):
            small_config(channel=self.channel(redraw_per_trial="no"))

    def test_fractional_enabled_must_be_boolean(self):
        with pytest.raises(ConfigError, match="fractional.enabled: expected true or"):
            small_config(fractional={"enabled": 0})

    def test_active_taps_must_be_integers(self):
        with pytest.raises(ConfigError, match="active_taps: expected an integer"):
            small_config(channel=self.channel(active_taps=2.5))

    def test_integer_offsets_must_be_integers(self):
        with pytest.raises(ConfigError, match="integer_offsets: expected an integer"):
            small_config(channel=self.channel(integer_offsets=[[0, 0], [4.7, 4.7]]))

    def test_node_index_rejects_booleans(self):
        with pytest.raises(ConfigError, match="tx_node: node indices must lie"):
            small_config(antennas={"tx_node": [0, True], "rx_node": [0, 1]})

    def test_out_of_range_node_index_is_a_config_error(self):
        with pytest.raises(ConfigError, match="tx_node: node indices must lie"):
            small_config(antennas={"tx_node": [0, 5], "rx_node": [0, 1]})

    def test_invalid_node_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match="nodes.tx: must be >= 1"):
            small_config(nodes={"tx": 0, "rx": 2})


class TestMseExperiment:
    def test_zero_noise_single_trial(self):
        cfg = small_config(snr_db=1000.0, trials=1)
        result = run_mse_experiment(cfg)
        assert all(row.mse < 1e-20 for row in result.links)

    def test_integer_ratio_near_one(self):
        cfg = small_config(trials=400)
        result = run_mse_experiment(cfg)
        for row in result.antennas:
            assert 0.9 < row.ratio < 1.1
        assert all(abs(v - 1.0) < 1e-12 for _, v in result.papr)

    def test_deterministic(self):
        cfg = small_config(trials=20)
        a = run_mse_experiment(cfg)
        b = run_mse_experiment(cfg)
        assert a.run_id == b.run_id
        assert a.links == b.links and a.antennas == b.antennas

    def test_constraint_abort_before_trials(self):
        cfg = small_config(
            waveform={"length": 32, "chirp_rates": [1, 2]},
            channel={
                "total_length": 8,
                "active_taps": 5,
                "integer_offsets": [[0, 0], [3, 3]],
            },
            trials=10_000_000,  # must abort long before consuming this
        )
        with pytest.raises(ConstraintViolationError, match="design constraint"):
            run_mse_experiment(cfg)

    def test_fractional_small_run(self):
        cfg = small_config(
            fractional={"enabled": True, "mu": "uniform"},
            trials=5,
            snr_db=60.0,
        )
        result = run_mse_experiment(cfg)
        assert result.nonconverged == 0
        assert all(np.isfinite(row.mse) for row in result.links)

    def test_redraw_per_trial_changes_nothing_statistically(self):
        cfg = small_config(
            trials=40,
            channel={
                "total_length": 8,
                "active_taps": 5,
                "integer_offsets": [[0, 0], [3, 3]],
                "redraw_per_trial": True,
            },
        )
        result = run_mse_experiment(cfg)
        for row in result.antennas:
            assert 0.7 < row.ratio < 1.4

    def test_redraw_bound_is_trial_mean(self):
        # unnormalized taps give every redraw its own sigma2; the bound is the
        # trial mean of 2*L*sigma2_t, not the bound of the last draw
        cfg = small_config(
            trials=400,
            channel={
                "total_length": 8,
                "active_taps": 5,
                "integer_offsets": [[0, 0], [3, 3]],
                "normalize_taps": False,
                "redraw_per_trial": True,
            },
        )
        result = run_mse_experiment(cfg)
        sigma2 = np.mean(
            [
                synthesize_channels(cfg, derive_rng(cfg.seed, 2, t)).sigma2
                for t in range(cfg.trials)
            ],
            axis=0,
        )
        for row in result.antennas:
            assert row.crb == pytest.approx(crb(cfg.total_length, sigma2[row.rx]), rel=1e-12)
            assert 0.9 < row.ratio < 1.1

    def test_redrawn_taps_keep_each_trials_offsets_and_noise(self, monkeypatch):
        # common random numbers: trial t hands reception the same offsets and the block
        # pass the same noise draws whether or not its taps are redrawn
        runs = []
        received, noisy = harness._received, harness._noisy

        def spy_received(cfg, scenario, *args):
            runs[-1]["channel"].append((scenario.mu.tobytes(), scenario.taps.tobytes()))
            return received(cfg, scenario, *args)

        def spy_noisy(sigma2, draws, out):
            runs[-1]["noise"] += [row.tobytes() for row in draws]
            noisy(sigma2, draws, out)

        monkeypatch.setattr(harness, "_received", spy_received)
        monkeypatch.setattr(harness, "_noisy", spy_noisy)
        monkeypatch.setattr(harness, "_TRIAL_BLOCK", 2)  # three blocks, the last one short
        for redraw in (False, True):
            data = PRESETS["paper-sec5-fractional"]()
            data["channel"]["redraw_per_trial"] = redraw
            runs.append({"channel": [], "noise": []})
            run_mse_experiment(from_dict({**data, "trials": 5}))
        fixed, redrawn = runs
        assert len(fixed["channel"]) == len(redrawn["channel"]) == 5
        assert len(fixed["noise"]) == len(redrawn["noise"]) == 5
        assert fixed["noise"] == redrawn["noise"]
        cfg = from_dict({**data, "trials": 5})
        for t, noise in enumerate(fixed["noise"]):  # trial t's noise is stream (1, t)'s
            shape = (cfg.nr, 2, cfg.waveform_length)
            assert noise == derive_rng(cfg.seed, 1, t).standard_normal(shape).tobytes()
        for (mu, taps), (mu_r, taps_r) in zip(fixed["channel"], redrawn["channel"]):
            assert mu == mu_r
            assert taps != taps_r  # the taps were redrawn


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(1, 5).flatmap(lambda words: st.integers(0, 2 ** (32 * words) - 1)),
    streams=st.lists(st.sampled_from([0, 1, 2, 2**33]), min_size=1, max_size=3),
    drawn=st.integers(0, 5),
)
@example(seed=0, streams=[1], drawn=0)
@example(seed=2**96 + 1, streams=[2, 1], drawn=1)  # 4 words: the last with no padding
@example(seed=2**160 - 1, streams=[2**33, 0], drawn=3)  # 5 words, and a 2-word stream
def test_trial_keys_are_derive_rngs(seed, streams, drawn):
    # trial t of stream s is numpy's Philox of (s,) jumped t times, up to the last trial
    # index config allows, and a generator re-keyed after a partial uint32 draw draws
    # the same as that reference and as derive_rng
    trials = [0, 1, 63, 64, 65, 2**32 - 2, 2**32 - 1]
    used = derive_rng(seed + 1, 9)
    for s in streams:
        key = harness._key(seed, s)
        for t in trials:
            used.integers(0, 2**32, size=drawn, dtype=np.uint32)  # odd sizes leave a half word
            seq = np.random.SeedSequence(seed, spawn_key=(s,))
            ref = np.random.Generator(np.random.Philox(seq).jumped(t))
            rngs = [harness._rekeyed(used, key, t), derive_rng(seed, s, t)]
            words = ref.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
            uniforms, normals = ref.random(3).tolist(), ref.standard_normal(5).tolist()
            for rng in rngs:
                assert rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == words, (s, t)
                assert rng.random(3).tolist() == uniforms, (s, t)
                assert rng.standard_normal(5).tolist() == normals, (s, t)


@pytest.mark.parametrize(
    "redraw,streams", [(False, [(0,), (1,)]), (True, [(0,), (2,), (1,)])], ids=["fixed", "redrawn"]
)
def test_a_run_seeds_only_its_synthesis_stream(monkeypatch, redraw, streams):
    # one SeedSequence per stream per run: the synthesis stream's, then the key of each
    # per-trial stream the run uses, and none per trial or per block of trials (three
    # blocks here); trial t only sets the counter of (s,)
    built, seed_sequence = [], np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs.get("spawn_key"))
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    data = PRESETS["paper-sec5"]()
    data["channel"]["redraw_per_trial"] = redraw
    run_mse_experiment(from_dict({**data, "trials": 150}))
    assert built == streams


BLOCK_RUNS = {  # T = 200 is no multiple of 7 or 64; the fractional run has T < B; at N = 512
    # the byte rule, not _TRIAL_BLOCK or T, sets the redrawn run's B = 6, and 20 is no multiple
    "integer": ("paper-sec5", {"trials": 200}),
    "redrawn-taps": (
        "paper-sec5", {"trials": 20, "redraw_per_trial": True, "normalize_taps": False}
    ),
    "fractional": ("paper-sec5-fractional", {"trials": 3}),
    "fractional-redrawn-taps": (
        "paper-sec5-fractional", {"trials": 9, "redraw_per_trial": True, "normalize_taps": False}
    ),
    "tx-shared-redrawn-taps": ("capacity-tx-shared", {"trials": 9, "redraw_per_trial": True}),
    "redrawn-taps-long-period": (
        "paper-sec5", {"trials": 20, "redraw_per_trial": True, "waveform_length": 512}
    ),
}


@pytest.mark.parametrize("name", list(BLOCK_RUNS))
def test_trial_blocks_do_not_change_the_outputs(tmp_path, monkeypatch, name):
    # errors are folded a block at a time in trial order, so any block size gives the same bytes
    preset_name, fields = BLOCK_RUNS[name]
    cfg = preset(preset_name).replace(**fields)
    outputs = []
    for block in (1, 7, harness._TRIAL_BLOCK):
        monkeypatch.setattr(harness, "_TRIAL_BLOCK", block)
        result = run_mse_experiment(cfg)
        emit_results(result, tmp_path / str(block))
        emit_results(result, tmp_path / str(block), "record")
        files = ("mse.csv", "antenna_mse.csv", "result.json")
        outputs.append([(tmp_path / str(block) / f).read_bytes() for f in files])
    assert outputs[0] == outputs[1] == outputs[2]


RECEIVED_RUNS = {  # T is no multiple of 7 or of the default B: 24, 36 and 12 by preset
    "integer": ("paper-sec5", {"trials": 25}),
    "redrawn-taps": ("paper-sec5", {"trials": 25, "redraw_per_trial": True}),
    "fixed-offsets": ("capacity-tx-shared", {"trials": 37}),
    "drawn-offsets": ("paper-sec5-fractional", {"trials": 13}),
    "drawn-offsets-redrawn-taps": (
        "paper-sec5-fractional", {"trials": 13, "redraw_per_trial": True, "normalize_taps": False}
    ),
}


@pytest.mark.parametrize("name", list(RECEIVED_RUNS))
def test_each_trial_receives_awgn_of_its_own_channel(monkeypatch, name):
    # the row that every matched filter of trial t reads is, bit for bit, awgn on stream
    # (1, t) of trial t's noiseless period: the base channel's, with the offsets and, if
    # redrawn, the taps that stream (2, t) draws, at any block size
    preset_name, fields = RECEIVED_RUNS[name]
    cfg = preset(preset_name).replace(**fields)
    base = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
    waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
    matrices = [build_sounding_matrix(w, cfg.total_length, cfg.lead) for w in waveforms]
    expected = []
    for t in range(cfg.trials):
        drawn = synthesize_channels(cfg, derive_rng(cfg.seed, 2, t))
        scenario = drawn if cfg.redraw_per_trial else dataclasses.replace(base, mu=drawn.mu)
        if cfg.fractional:
            r0 = receive_fractional(scenario, matrices, pulse)
        else:
            r0 = receive_integer(scenario, matrices)
        r = awgn(r0, scenario.sigma2, derive_rng(cfg.seed, 1, t))
        expected += [r[m].tobytes() for m in range(cfg.nr) for _ in range(cfg.nt)]

    rows = []
    for fn in ("matched_filter_integer", "matched_filter_fractional"):
        def spy(S, row, _fn=getattr(harness, fn)):
            rows.append(row.tobytes())
            return _fn(S, row)

        monkeypatch.setattr(harness, fn, spy)
    for block in (1, 7, harness._TRIAL_BLOCK):
        monkeypatch.setattr(harness, "_TRIAL_BLOCK", block)
        rows.clear()
        run_mse_experiment(cfg)
        assert rows == expected, block


@pytest.mark.parametrize(
    "name,redraw", [("paper-sec5", False), ("paper-sec5", True), ("paper-sec5-fractional", False)]
)
def test_a_trial_makes_one_public_call_per_link(monkeypatch, name, redraw):
    # no awgn call (the noise is one pass per block of trials), and the counts the
    # benchmark's traced runs expect: one matched-filter (and, fractional, joint_estimate)
    # call per link per trial, and receive_integer once per run or, redrawn, once per trial
    public = ["awgn", "matched_filter_integer", "matched_filter_fractional", "joint_estimate"]
    calls = dict.fromkeys([*public, "receive_integer"], 0)
    for fn in calls:
        def spy(*args, _fn=getattr(harness, fn), _name=fn):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(harness, fn, spy)
    cfg = preset(name).replace(trials=12, redraw_per_trial=redraw)
    run_mse_experiment(cfg)
    per_trial = cfg.nt * cfg.nr * 12
    assert calls == {
        "awgn": 0,
        "matched_filter_integer": 0 if cfg.fractional else per_trial,
        "matched_filter_fractional": per_trial if cfg.fractional else 0,
        "joint_estimate": per_trial if cfg.fractional else 0,
        "receive_integer": 0 if cfg.fractional else 12 if redraw else 1,
    }


def redrawn_config(nr, trials):
    """small_config with ``nr`` rx antennas, one per node, and unnormalized redrawn taps."""
    return small_config(
        nodes={"tx": 2, "rx": nr},
        antennas={"tx_node": [0, 1], "rx_node": list(range(nr))},
        channel={
            "total_length": 8,
            "active_taps": 5,
            "integer_offsets": [[0] * nr, [3] * nr],
            "normalize_taps": False,
            "redraw_per_trial": True,
        },
        trials=trials,
    )


@pytest.mark.parametrize("nr", [1, 2, 5])
def test_redrawn_noise_levels_are_summed_in_trial_order(nr):
    cfg = redrawn_config(nr, 300)
    drawn = [synthesize_channels(cfg, derive_rng(cfg.seed, 2, t)).sigma2 for t in range(300)]
    total = np.zeros(nr)
    for sigma2 in drawn:
        total += sigma2
    mean = total / 300
    if nr > 1:  # numpy reduces a (T, nr) array row by row; a (T, 1) one it sums pairwise
        assert mean.tobytes() == np.mean(drawn, axis=0).tobytes()
    result = run_mse_experiment(cfg)
    assert [row.crb for row in result.antennas] == [crb(cfg.total_length, s) for s in mean]


def test_redrawn_runs_keep_memory_bounded_in_trials():
    # the redrawn noise levels are folded as they come, not kept per trial, and no
    # trial keeps a key: each re-keys the run's one generator to its counter
    import tracemalloc

    run_mse_experiment(redrawn_config(2, 10))  # the per-process caches, outside the trace
    peaks = []
    for trials in (400, 4000):
        tracemalloc.start()
        try:
            run_mse_experiment(redrawn_config(2, trials))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


@pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redrawn"])
@pytest.mark.parametrize("name,trials", [("paper-sec5", 100), ("paper-sec5-fractional", 50)])
def test_a_block_stays_within_its_byte_budget(monkeypatch, name, trials, redraw):
    # at a period where _BLOCK_BYTES sets B, what a run holds over a few blocks of trials,
    # temporaries included, exceeds what it holds at T = 1 by at most _BLOCK_BYTES, and by
    # at most 4.5 B P: a trial holds its noise draws and its received row, P = 16*nr*N
    # bytes each, and arrays the size of its taps, but no block of noiseless periods
    import tracemalloc

    blocks, noisy = [], harness._noisy

    def spy_noisy(sigma2, draws, out):
        blocks.append(len(draws))
        noisy(sigma2, draws, out)

    monkeypatch.setattr(harness, "_noisy", spy_noisy)
    cfg = preset(name).replace(trials=trials, redraw_per_trial=redraw)
    run_mse_experiment(cfg)  # the per-process caches, outside the trace
    assert 1 < blocks[0] < min(harness._TRIAL_BLOCK, trials) and len(blocks) > 1, blocks
    monkeypatch.setattr(harness, "_noisy", noisy)
    peaks = []
    for run in (cfg.replace(trials=1), cfg):
        tracemalloc.start()
        try:
            run_mse_experiment(run)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= harness._BLOCK_BYTES, peaks
    B, P = blocks[0], 16 * cfg.nr * cfg.waveform_length
    assert peaks[1] - peaks[0] <= 4.5 * B * P, (peaks, B * P)


class TestCapacityExperiment:
    def test_shared_topologies_equal(self):
        for name in ("capacity-tx-shared", "capacity-rx-shared"):
            result = run_capacity_experiment(preset(name))
            assert all(row.equal for row in result.capacity)

    def test_multi_lo_differs(self):
        result = run_capacity_experiment(preset("capacity-multi-lo"))
        assert all(not row.equal for row in result.capacity if row.rho_db > 0)
        assert max(row.max_bin_gap for row in result.capacity) > 1e-3

    def test_zero_linear_snr(self):
        cfg = small_config(capacity={"rho_db": [-np.inf], "bins": 64})
        result = run_capacity_experiment(cfg)
        assert result.trials == 1  # one channel draw, whatever cfg.trials says
        assert result.capacity[0].c_syn == 0.0
        assert result.capacity[0].c_asyn == 0.0


class TestEmit:
    def test_mse_csv_schema(self, tmp_path):
        result = run_mse_experiment(small_config(trials=5))
        paths = emit_results(result, tmp_path / "out")
        names = {p.split("/")[-1] for p in map(str, paths)}
        assert {"run_meta.json", "config_echo.json", "mse.csv", "antenna_mse.csv"} <= names
        lines = (tmp_path / "out" / "mse.csv").read_text().splitlines()
        assert lines[0] == "link_tx,link_rx,mse,crb,ratio"
        assert len(lines) == 1 + 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert "e" in first[2]  # %.12e: 13 significant digits

    def test_capacity_csv_schema(self, tmp_path):
        result = run_capacity_experiment(preset("capacity-multi-lo"))
        emit_results(result, tmp_path / "out")
        lines = (tmp_path / "out" / "capacity.csv").read_text().splitlines()
        assert lines[0] == "rho_db,c_syn,c_asyn,max_bin_gap"
        assert len(lines) == 1 + 4

    def test_record_mirrors_result(self, tmp_path):
        result = run_mse_experiment(small_config(trials=5))
        emit_results(result, tmp_path / "out", fmt="record")
        record = json.loads((tmp_path / "out" / "result.json").read_text())
        assert record["kind"] == "mse"
        assert record["run_id"] == result.run_id
        assert record["config_echo"] == result.config_echo
        assert len(record["links"]) == 4

    def test_config_echo_round_trip(self, tmp_path):
        cfg = small_config(trials=5)
        result = run_mse_experiment(cfg)
        emit_results(result, tmp_path / "out")
        echoed = (tmp_path / "out" / "config_echo.json").read_text()
        assert from_json(echoed) == cfg
        assert echoed == cfg.canonical_json()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(trials=10)
        emit_results(run_mse_experiment(cfg), tmp_path / "a")
        emit_results(run_mse_experiment(cfg), tmp_path / "b")
        for name in ("mse.csv", "antenna_mse.csv", "config_echo.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_record_byte_identical_reruns(self, tmp_path):
        # the record payload carries no timing; the wall clock lives in run_meta.json
        cfg = small_config(trials=10)
        for side in ("a", "b"):
            emit_results(run_mse_experiment(cfg), tmp_path / side, fmt="record")
        record = (tmp_path / "a" / "result.json").read_bytes()
        assert record == (tmp_path / "b" / "result.json").read_bytes()
        meta = json.loads((tmp_path / "a" / "run_meta.json").read_text())
        assert "wall_clock_s" in meta and b"wall_clock_s" not in record

    def test_run_meta_records_numpy_and_blas_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        emit_results(run_mse_experiment(small_config(trials=2)), tmp_path)
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert meta["numpy"] == np.__version__
        assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}

    def test_sound_traces(self, tmp_path):
        cfg = small_config(trials=1)
        result = run_sounding(cfg)
        emit_results(result, tmp_path / "out")
        trace = (tmp_path / "out" / "trace_tx1_rx0.csv").read_text().splitlines()
        assert trace[0] == "n,magnitude"
        assert len(trace) == 1 + cfg.waveform_length

    def test_unwritable_target_raises_oserror(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        result = run_sounding(small_config(trials=1))
        with pytest.raises(OSError):
            emit_results(result, blocker / "sub")


def _reference_fmt(value):
    # reference: the per-value rule that write_table must reproduce byte for byte
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{float(value):.12e}"


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1.7976931348623157e308)
_KINDS = (  # one kind of value per column; Python ints in the range numpy gives int64
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.floats(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.sampled_from(_EDGE_FLOATS),
)


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(_KINDS), max_size=5))
    return [draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds]


@settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=_columns())
@example(columns=[[1, 2], [2.0, -0.0], [True, False], [np.float32(0.1), np.float32(3)]])
@example(columns=[[np.uint8(7)], [np.float64(math.nan)], [np.int64(-3)], [5e-324]])
def test_write_table_matches_per_value_rule(tmp_path, columns):
    # one %-format for the table, each column's values of one type
    path = write_table(str(tmp_path / "t.csv"), "h", columns)
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    want = "".join(",".join(map(_reference_fmt, row)) + "\n" for row in zip(*columns))
    assert text == "h\n" + want


@pytest.mark.parametrize(
    "columns",
    [[[1, 2], [1.0]], [[], [0.5]], [[1.0 + 2.0j]], [[2**64]], [["a"]]],
    ids=["ragged", "ragged-empty", "complex", "beyond-int64", "text"],
)
def test_write_table_rejects_columns_before_writing(tmp_path, columns):
    # ragged or non-real columns would be cut short by zip, or written as another type
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_table(str(path), "h", columns)
    assert not path.exists()


@pytest.mark.parametrize("columns", [[], [[], []], [np.arange(0), np.empty(0)]])
def test_write_table_of_no_rows_is_its_header(tmp_path, columns):
    path = write_table(str(tmp_path / "t.csv"), "a,b", columns)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == "a,b\n"
