"""Golden digests of the deterministic result files.

Identical config and seed must give byte-identical ``mse.csv``,
``antenna_mse.csv``, ``capacity.csv`` and ``result.json``; the trace,
waveform and correlation tables and ``config_echo.json`` are pinned too.
These sha256 digests were taken with numpy 2.4.6 on x86-64; a change that
alters the bytes fails here and has to say why in CHANGES.md.  What each
digest depends on:

* pulse arithmetic: the ``paper-sec5-fractional`` digests (the ``mse`` CSVs
  and the ``sound`` trace) pass through G(mu) and G'(mu), which reception
  and the estimator take from one cached polynomial fit of the raised cosine
  per support lag (exact at mu = 0 and 1/2), so another fit or another
  evaluation of it moves their last printed digits;
* polish tolerance: the ``paper-sec5-fractional`` ``mse`` CSVs also hold
  estimates that the polish stops within 1e-10 of the minimizer, so a
  different iteration moves their last printed digits;
* the polish's ``h`` solve: each polish step solves for ``h`` by the normal
  equations where the scan's flag for the nearest offset certifies ``G(mu)``
  well conditioned on the whole half step, else by an SVD.  All 65 flags of
  ``paper-sec5-fractional`` hold, and its ``mse`` CSVs hold the estimates of
  the last step, so a different solver, or a cruder bound that sends a step
  to the SVD, moves their last printed digits;
* scan makers: the polish starts from the scan's values and exact slopes, taken
  in the left null space of each scan ``G`` (its complete QR), so another
  basis or another product order moves the last printed digits of their
  ``mse.csv`` (the ``antenna_mse.csv`` digits held when the makers changed);
* reception summation order: every digest downstream of reception (the
  ``mse`` and ``sound`` files, records included) depends on the order in
  which reception sums its terms, one sounding-matrix product per waveform;
* matched-filter layout: the ``mse`` digests depend on the stored S^H, a
  contiguous D x N array, which makes these bytes the same at every BLAS
  thread count tested (1 and 2);
* synthesis draw layout: every digest downstream of synthesis depends on the
  order in which it takes its draws (uniform offsets, then all active taps
  link by link, real parts before imaginary ones).  The redraw digests take it
  through every trial stream (2, t) as well as stream (0,), but ``REDRAWN``
  (normalized taps, integer offsets) cannot see the taps: its error is
  S^H z whatever they are, and its sigma2 is the same to the printed digits.
  The ``REDRAWN_TAPS`` digests can: unnormalized taps set sigma2 and so the
  ``crb`` column, and fractional offsets feed the taps through the estimator.

The ``generate``, ``correlate`` and ``capacity`` digests and
``config_echo.json`` do not pass through reception.  Each of the three run
kinds (``mse``, ``sound``, ``capacity``) has its record ``result.json``
pinned, since one ``RunResult.to_dict`` writes them all.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chirpsounder
from chirpsounder import PRESETS
from chirpsounder.cli import main

GOLDEN = {
    ("mse", "paper-sec5", 200, "csv"): {
        "mse.csv": "df2d215151b878a0e4b090cfae057bccedcc5f5fb3261f33ebe8003af689de42",
        "antenna_mse.csv": "d0c3f18193af0eb1373dcab001e07c5ce9869fdada3a8b0a50c486dfe4871527",
    },
    ("mse", "paper-sec5-fractional", 3, "csv"): {
        "mse.csv": "74f96d2365a12d40bacd828c255c0fda347ceef08ad383a628cb8ba3163e3297",
        "antenna_mse.csv": "4319395e8356bfce8961f13fd562947ae277ab601418fbf6803f40bbe5ca2f0e",
    },
    ("capacity", "capacity-tx-shared", None, "csv"): {
        "capacity.csv": "625be9a0ffea6157ddf94c71b308d1485a40fa392665c1fb6717eb0d4636173d",
    },
    ("capacity", "capacity-rx-shared", None, "csv"): {
        "capacity.csv": "47ddb236870c31b98745d264c2628cf08cd0317bee6cf211a440594362a2aa9e",
    },
    ("capacity", "capacity-multi-lo", None, "csv"): {
        "capacity.csv": "1e9cdeb1ef0098d8fb92fe9a9ee4ebaacaf1985a1b8dd785aa89d4dd63653f79",
    },
    ("capacity", "capacity-multi-lo", None, "record"): {
        "result.json": "ded9961dbe4b477d51b5c10d585cd6522a1f140c5b73acb8c9e10e15a93e11e5",
    },
    ("mse", "paper-sec5", 20, "record"): {
        "result.json": "c1c8ff181e1188aa8718e1ed7e27deb3fefd042bcd86e24b40fc32e4a2385690",
        "config_echo.json": "1cfc64d74ac686d224f3abb136bedbd5a39d4d0c9891f0b502ab9d552be51463",
    },
    ("sound", "paper-sec5", None, "csv"): {
        "trace_tx2_rx0.csv": "960241b98ea1f352a48d6857ffac010a64cf2d20a9d2c30ea0d7672cfe6d68b7",
    },
    ("sound", "paper-sec5", None, "record"): {
        "result.json": "21b76d7168ff2d398d0ddcf82d75ac631b52fa1c920ae2084bd40cf8f75d42ff",
    },
    ("sound", "paper-sec5-fractional", None, "csv"): {
        "trace_tx2_rx0.csv": "21737aadd85b47ae2f3d260375f95dc2efc8148687710107f5a4bc1859d65187",
    },
    ("generate", "paper-sec5", None, "csv"): {
        "waveform_p4_N128.csv": "2fc8ea996d22ea56b8ce2334ca408966c467d46278437f269d8a8860add7ba4b",
    },
    ("correlate", "paper-sec5", None, "csv"): {
        "autocorrelation.csv": "a560e67784eb5d644c1a85c593e687ac185f542bc250b1ab0718f080914e972b",
        "crosscorrelation.csv": "2fb71ebbb89b5e7e5eb4d6bdfb5326496cecf6d473c9e602fb0858db70fbda04",
    },
}


@pytest.mark.parametrize(
    "command,preset,trials,fmt",
    list(GOLDEN),
    ids=["-".join(str(v) for v in key if v != "csv") for key in GOLDEN],  # csv is the default
)
def test_output_digests(tmp_path, command, preset, trials, fmt):
    argv = [command, "--preset", preset, "--out", str(tmp_path)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    if fmt != "csv":  # generate and correlate take no --format
        argv += ["--format", fmt]
    assert main(argv) == 0
    for name, digest in GOLDEN[command, preset, trials, fmt].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


REDRAWN = {  # paper-sec5 with redraw_per_trial, 20 trials
    "mse.csv": "2ad2368a5c5ff2ea3cfbb0bb86cecf7243ac62a2488a5c419fa7d75a94e5062f",
    "antenna_mse.csv": "accdd4c0613ed6102be451c46f866f19ec6b38c24cded8e23d9ec7b44c1dd69f",
}


def test_redrawn_taps_digests(tmp_path):
    data = PRESETS["paper-sec5"]()
    data["channel"]["redraw_per_trial"] = True
    config = tmp_path / "redraw.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["mse", "--config", str(config), "--trials", "20", "--out", str(out)]) == 0
    for name, digest in REDRAWN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


REDRAWN_TAPS = {  # redraw_per_trial runs whose outputs depend on the drawn taps
    ("paper-sec5", 20, False): {
        "mse.csv": "462b7897fef008597963724aad1769627b5cf4c050b14440b530c4b7b9f98b98",
        "antenna_mse.csv": "733a5100d6bbba0b16d79b65744ef35f59a1c3e5125a3aec4a781f4c3f8215e7",
    },
    ("paper-sec5-fractional", 3, True): {
        "mse.csv": "87e105a13d44ce1d327e043fcdbe60480030e8c71b47cd92aff748ada2ea724a",
        "antenna_mse.csv": "81938a7f928e129e933b8b6b047f2c0bceb86803dc00404acad7c051dfc26489",
    },
}


@pytest.mark.parametrize(
    "name,trials,normalize", list(REDRAWN_TAPS), ids=[key[0] for key in REDRAWN_TAPS]
)
def test_redrawn_taps_stream_digests(tmp_path, name, trials, normalize):
    data = PRESETS[name]()
    data["channel"].update(redraw_per_trial=True, normalize_taps=normalize)
    config = tmp_path / "redraw.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["mse", "--config", str(config), "--trials", str(trials), "--out", str(out)]) == 0
    for file, digest in REDRAWN_TAPS[name, trials, normalize].items():
        assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest, file


THREADED = {  # N = 256 runs, where a BLAS product could split across threads
    "mse-csv": ["mse", "--preset", "paper-sec5-fractional", "--trials", "3"],
    "mse-record": [
        "mse", "--preset", "paper-sec5-fractional", "--trials", "3", "--format", "record"
    ],
    "sound": ["sound", "--preset", "paper-sec5-fractional"],
}


@pytest.mark.parametrize("name", list(THREADED))
def test_outputs_do_not_depend_on_blas_threads(tmp_path, name):
    # the thread count is read when numpy loads, so each run is its own process
    src = str(Path(chirpsounder.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": path,
        }
        argv = [sys.executable, "-m", "chirpsounder", *THREADED[name], "--out", str(out)]
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
        outputs.append(
            {f.name: f.read_bytes() for f in out.iterdir() if f.name != "run_meta.json"}
        )
    one, two = outputs
    assert sorted(one) == sorted(two) and len(one) >= 2
    assert [f for f in sorted(one) if one[f] != two[f]] == []
