"""Command line interface: commands, flags, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chirpsounder
from chirpsounder import preset
from chirpsounder.cli import build_parser, main


def small_config_file(tmp_path, **overrides):
    data = {
        "name": "cli-test",
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
        "trials": 20,
        "seed": 11,
    }
    data.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_check_reports_pass(capsys):
    assert main(["check", "--preset", "paper-sec5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "slack: 8" in out


def test_check_reports_fail_without_error(tmp_path, capsys):
    path = small_config_file(
        tmp_path, waveform={"length": 32, "chirp_rates": [1, 2]}
    )
    assert main(["check", "--config", path]) == 0
    assert "FAIL" in capsys.readouterr().out


def test_generate_writes_waveforms(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--preset", "paper-sec5", "--out", str(out)]) == 0
    for p in (1, 2, 4):
        lines = (out / f"waveform_p{p}_N128.csv").read_text().splitlines()
        assert lines[0] == "n,re,im" and len(lines) == 129


def test_correlate_writes_tables(tmp_path):
    path = small_config_file(tmp_path)
    out = tmp_path / "corr"
    assert main(["correlate", "--config", path, "--out", str(out)]) == 0
    auto = (out / "autocorrelation.csv").read_text().splitlines()
    cross = (out / "crosscorrelation.csv").read_text().splitlines()
    assert auto[0] == "p,tau,re,im" and len(auto) == 1 + 2 * 128
    assert cross[0] == "p,q,tau,re,im" and len(cross) == 1 + 128


def test_mse_run_writes_csv(tmp_path):
    path = small_config_file(tmp_path)
    out = tmp_path / "mse"
    assert main(["mse", "--config", path, "--out", str(out)]) == 0
    assert (out / "mse.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["kind"] == "mse"


def test_seed_and_trials_overrides(tmp_path):
    path = small_config_file(tmp_path)
    out = tmp_path / "mse"
    assert (
        main(["mse", "--config", path, "--out", str(out), "--seed", "99", "--trials", "5"])
        == 0
    )
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["seed"] == 99 and echo["trials"] == 5


def test_capacity_command(tmp_path, capsys):
    out = tmp_path / "cap"
    assert main(["capacity", "--preset", "capacity-rx-shared", "--out", str(out)]) == 0
    assert "equal" in capsys.readouterr().out
    assert (out / "capacity.csv").exists()


def test_sound_traces_show_segments(tmp_path):
    out = tmp_path / "sound"
    assert main(["sound", "--preset", "paper-sec5", "--out", str(out)]) == 0
    lines = (out / "trace_tx2_rx0.csv").read_text().splitlines()
    assert len(lines) == 129  # header + one magnitude per output index


def test_record_format(tmp_path):
    path = small_config_file(tmp_path)
    out = tmp_path / "rec"
    assert main(["mse", "--config", path, "--out", str(out), "--format", "record"]) == 0
    record = json.loads((out / "result.json").read_text())
    assert record["kind"] == "mse" and len(record["links"]) == 4
    assert not (out / "mse.csv").exists()


def test_byte_identical_csv_across_runs(tmp_path):
    path = small_config_file(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["mse", "--config", path, "--out", str(a)]) == 0
    assert main(["mse", "--config", path, "--out", str(b)]) == 0
    assert (a / "mse.csv").read_bytes() == (b / "mse.csv").read_bytes()
    assert (a / "antenna_mse.csv").read_bytes() == (b / "antenna_mse.csv").read_bytes()


def test_config_and_preset_conflict(tmp_path, capsys):
    path = small_config_file(tmp_path)
    assert main(["check", "--config", path, "--preset", "paper-sec5"]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x", "bogus": 1}')
    assert main(["mse", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{bad")
    assert main(["check", "--config", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_constraint_violation_exits_2(tmp_path, capsys):
    path = small_config_file(tmp_path, waveform={"length": 32, "chirp_rates": [1, 2]})
    assert main(["mse", "--config", str(path)]) == 2
    assert "design constraint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,rx",
    [
        # no link reaches rx 1, so its noise variance and its bound are 0
        ({"channel": {"total_length": 8, "active_taps": [[5, 0], [5, 0]],
                      "integer_offsets": 0}}, 1),
        # 10**(-4000/10) underflows to 0, so the noise variance is 0
        ({"snr_db": 4000}, 0),
    ],
    ids=["antenna-without-taps", "underflowing-noise"],
)
def test_mse_zero_noise_antenna_exits_2(tmp_path, capsys, overrides, rx):
    path = small_config_file(tmp_path, **overrides)
    out = str(tmp_path / "out")
    assert main(["check", "--config", path]) == 0
    assert main(["capacity", "--config", path, "--out", out]) == 0
    assert main(["mse", "--config", path, "--out", out]) == 2
    assert f"rx antenna {rx} has zero noise variance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,field",
    [
        # 10**(4000/10) overflows a float, so sigma^2 or rho cannot be formed
        ({"snr_db": -4000}, "snr_db"),
        ({"capacity": {"rho_db": [0.0, 4000], "bins": 64}}, "capacity.rho_db"),
    ],
    ids=["snr", "rho"],
)
def test_overflowing_db_exits_2(tmp_path, capsys, overrides, field):
    path = small_config_file(tmp_path, **overrides)
    for command in ("check", "capacity", "mse"):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{field}: " in err and "dB overflows" in err


def test_integer_beyond_float_range_exits_2(tmp_path, capsys):
    path = small_config_file(tmp_path, snr_db=10**400)
    assert main(["check", "--config", path]) == 2
    assert "snr_db: expected a finite number" in capsys.readouterr().err


def test_io_failure_exits_4(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    path = small_config_file(tmp_path)
    code = main(["mse", "--config", path, "--out", str(blocker / "nested")])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "correlate", "sound", "mse", "capacity"])
def test_out_naming_a_file_exits_4_naming_the_directory(tmp_path, capsys, command):
    # every writing command creates --out the one way, and says which directory it could not
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    path = small_config_file(tmp_path)
    assert main([command, "--config", path, "--out", str(blocker)]) == 4
    assert f"i/o error: cannot create output directory {blocker}" in capsys.readouterr().err
    assert blocker.read_text() == "x"


def test_missing_config_file_exits_4(tmp_path, capsys):
    code = main(["check", "--config", str(tmp_path / "absent.json")])
    assert code == 4


def test_nonconvergence_exits_3(tmp_path, capsys, monkeypatch):
    import chirpsounder.cli as cli_mod

    path = small_config_file(tmp_path)
    real = cli_mod.run_mse_experiment

    def flagged(cfg):
        result = real(cfg)
        return type(result)(**{**vars(result), "nonconverged": 3})

    monkeypatch.setattr(cli_mod, "run_mse_experiment", flagged)
    code = main(["mse", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_exhausted_polish_budget_exits_3(tmp_path, capsys, monkeypatch):
    from chirpsounder import estimator

    monkeypatch.setattr(estimator, "_POLISH_STEPS", 1)
    monkeypatch.setattr(estimator, "_POLISH_TOL", 0.0)  # one step may converge
    path = small_config_file(tmp_path, fractional={"enabled": True, "mu": "uniform"}, trials=2)
    code = main(["mse", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_numerical_error_exits_3(tmp_path, capsys, monkeypatch):
    import chirpsounder.cli as cli_mod
    from chirpsounder import IllConditionedError

    def boom(cfg):
        raise IllConditionedError("G^H G is numerically singular", 1e18)

    monkeypatch.setattr(cli_mod, "run_mse_experiment", boom)
    path = small_config_file(tmp_path)
    code = main(["mse", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,field",
    [
        (["--trials", "0"], "trials"),
        (["--trials", "-3"], "trials"),
        (["--seed", "-1"], "seed"),
    ],
)
def test_invalid_overrides_exit_2(tmp_path, capsys, override, field):
    argv = ["mse", "--preset", "paper-sec5", "--out", str(tmp_path / "o")] + override
    assert main(argv) == 2
    assert f"{field}: must be >= " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_trials_override_past_one_stream_word_exits_2(tmp_path, capsys):
    # config caps a run at 2**32 trials, though trial t's counter word would take 2**64
    argv = ["mse", "--preset", "paper-sec5", "--out", str(tmp_path / "o"), "--trials", "4294967297"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "trials: must be <= 4294967296, got 4294967297" in err
    assert len([line for line in err.splitlines() if line.startswith("  ")]) == 1
    assert not (tmp_path / "o").exists()


_NO_EXPERIMENT = ("generate", "correlate", "check")


@pytest.mark.parametrize(
    "command,flag",
    [pytest.param(c, ["--format", "record"], id=c) for c in _NO_EXPERIMENT]
    + [
        pytest.param(c, [flag, "5"], id=f"{c}-{flag[2:]}")
        for c in _NO_EXPERIMENT
        for flag in ("--seed", "--trials")
    ]
    # sound and capacity run one trial whatever the config says
    + [pytest.param(c, ["--trials", "5"], id=f"{c}-trials") for c in ("sound", "capacity")],
)
def test_format_only_on_experiment_commands(tmp_path, capsys, command, flag):
    # --format, --seed and --trials would change nothing these commands write
    argv = [command, "--preset", "paper-sec5", "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_reused_parser_carries_no_state(tmp_path, capsys):
    # main builds the parser once per process; each call must see only its own argv
    assert build_parser() is build_parser()
    path = small_config_file(tmp_path)
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["mse", "--config", path, "--format", "record"]
    assert main(argv + ["--out", str(first), "--trials", "3", "--seed", "5"]) == 0
    assert main(["mse", "--config", path, "--out", str(second)]) == 0
    echo = json.loads((second / "config_echo.json").read_text())
    assert (echo["seed"], echo["trials"]) == (11, 20)
    assert (second / "mse.csv").exists()  # --format fell back to its default
    capsys.readouterr()
    for bad in (["check", "--bogus"], ["check", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(bad + ["--preset", "paper-sec5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: chirpsounder ")
        assert f"unrecognized arguments: {bad[1]}" in err


LAZY_IMPORT_PROBE = """
import sys
from chirpsounder.cli import main
for argv in (
    ["check", "--preset", "paper-sec5"],
    ["generate", "--preset", "paper-sec5"],
    ["correlate", "--preset", "paper-sec5"],
    ["sound", "--preset", "paper-sec5-fractional"],
    ["capacity", "--preset", "capacity-multi-lo"],
    ["mse", "--preset", "paper-sec5", "--trials", "2"],
    ["mse", "--preset", "paper-sec5-fractional", "--trials", "1"],
):
    assert main([*argv, "--out", sys.argv[1]]) == 0, argv
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_commands_leave_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma on first use (np.unique is one user); every run would pay its
    # import time and resident memory, so no command may reach it
    src = str(Path(chirpsounder.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", LAZY_IMPORT_PROBE, str(tmp_path)]
    done = subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[-1] == "[]"
