"""Experiment orchestration: configs, determinism, output formats."""

import json

import numpy as np
import pytest

from chirpsounder import (
    ConfigError,
    ConstraintViolationError,
    crb,
    derive_rng,
    emit_results,
    from_dict,
    from_json,
    preset,
    run_capacity_experiment,
    run_mse_experiment,
    run_sounding,
    synthesize_channels,
)


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
        ],
        ids=["snr-nan", "snr-neg-inf", "snr-inf", "rho-nan", "rho-inf"],
    )
    def test_non_finite_numbers_rejected(self, field):
        with pytest.raises(ConfigError, match="expected a finite number"):
            small_config(**field)

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
                synthesize_channels(cfg, derive_rng(cfg.seed, 3, t)).sigma2
                for t in range(cfg.trials)
            ],
            axis=0,
        )
        for row in result.antennas:
            assert row.crb == pytest.approx(crb(cfg.total_length, sigma2[row.rx]), rel=1e-12)
            assert 0.9 < row.ratio < 1.1


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
        assert "e" in first[2]  # 12-significant-digit scientific notation

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
