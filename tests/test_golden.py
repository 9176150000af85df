"""Golden digests of the deterministic result files.

Identical config and seed must give byte-identical ``mse.csv``,
``antenna_mse.csv``, ``capacity.csv`` and ``result.json``; the trace,
waveform and correlation tables and ``config_echo.json`` are pinned too.
These sha256 digests were taken with numpy 2.4.6 on x86-64; a change that
alters the bytes fails here and has to say why in CHANGES.md.  The
``paper-sec5-fractional`` digests depend on the estimator's polish
iteration, which stops within 1e-10 of the minimizer, so a different
iteration moves the last printed digits.  Every digest downstream of
reception (the ``mse`` files, ``result.json`` and the ``sound`` traces) also
depends on the order in which reception sums its terms: it is one
sounding-matrix product per waveform, so a different summation order moves
the last bits of the received stream and, through the estimator, the last
printed digits.  The ``generate``, ``correlate`` and ``capacity`` digests
and ``config_echo.json`` do not pass through reception.
"""

import hashlib

import pytest

from chirpsounder.cli import main

GOLDEN = {
    ("mse", "paper-sec5", 200): {
        "mse.csv": "df2d215151b878a0e4b090cfae057bccedcc5f5fb3261f33ebe8003af689de42",
        "antenna_mse.csv": "d0c3f18193af0eb1373dcab001e07c5ce9869fdada3a8b0a50c486dfe4871527",
    },
    ("mse", "paper-sec5-fractional", 3): {
        "mse.csv": "b6cbe2b1cb1e2827fa7002b9eeef545528cbbc6eadf000f0078f9d750df16d99",
        "antenna_mse.csv": "791673823c1bc30048dd2fa4e15bf3a8897bd4bc838cea2689995228e15c963d",
    },
    ("capacity", "capacity-tx-shared", None): {
        "capacity.csv": "625be9a0ffea6157ddf94c71b308d1485a40fa392665c1fb6717eb0d4636173d",
    },
    ("capacity", "capacity-rx-shared", None): {
        "capacity.csv": "47ddb236870c31b98745d264c2628cf08cd0317bee6cf211a440594362a2aa9e",
    },
    ("capacity", "capacity-multi-lo", None): {
        "capacity.csv": "1e9cdeb1ef0098d8fb92fe9a9ee4ebaacaf1985a1b8dd785aa89d4dd63653f79",
    },
    ("mse", "paper-sec5", 20): {  # record format
        "result.json": "144728ea6fbc75cf60e3cd095c41bdcefcfbda27dae928ab3d3733c773895d78",
        "config_echo.json": "1cfc64d74ac686d224f3abb136bedbd5a39d4d0c9891f0b502ab9d552be51463",
    },
    ("sound", "paper-sec5", None): {
        "trace_tx2_rx0.csv": "960241b98ea1f352a48d6857ffac010a64cf2d20a9d2c30ea0d7672cfe6d68b7",
    },
    ("sound", "paper-sec5-fractional", None): {
        "trace_tx2_rx0.csv": "21737aadd85b47ae2f3d260375f95dc2efc8148687710107f5a4bc1859d65187",
    },
    ("generate", "paper-sec5", None): {
        "waveform_p4_N128.csv": "2fc8ea996d22ea56b8ce2334ca408966c467d46278437f269d8a8860add7ba4b",
    },
    ("correlate", "paper-sec5", None): {
        "autocorrelation.csv": "a560e67784eb5d644c1a85c593e687ac185f542bc250b1ab0718f080914e972b",
        "crosscorrelation.csv": "2fb71ebbb89b5e7e5eb4d6bdfb5326496cecf6d473c9e602fb0858db70fbda04",
    },
}


@pytest.mark.parametrize("command,preset,trials", list(GOLDEN))
def test_output_digests(tmp_path, command, preset, trials):
    argv = [command, "--preset", preset, "--out", str(tmp_path)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    if "result.json" in GOLDEN[command, preset, trials]:  # only records write it
        argv += ["--format", "record"]
    assert main(argv) == 0
    for name, digest in GOLDEN[command, preset, trials].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
