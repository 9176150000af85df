"""Golden digests of the deterministic result files.

Identical config and seed must give byte-identical ``mse.csv``,
``antenna_mse.csv``, ``capacity.csv`` and ``result.json``; the trace,
waveform and correlation tables and ``config_echo.json`` are pinned too.
These sha256 digests were taken with numpy 2.4.6 on x86-64; a change that
alters the bytes fails here and has to say why in CHANGES.md.  What each
digest depends on:

* pulse arithmetic: the ``paper-sec5-fractional`` digests pass through G(mu)
  (the ``mse`` CSVs and the ``sound`` trace) and G'(mu) (the ``mse`` CSVs),
  which reception and the estimator take from one cached polynomial fit of the
  raised cosine per support lag (exact at mu = 0 and 1/2), so another fit or
  another evaluation of it moves their last printed digits;
* polish tolerance: the ``paper-sec5-fractional`` ``mse`` CSVs also hold
  estimates that the polish stops within 1e-10 of the minimizer, so a
  different iteration moves their last printed digits;
* the polish's ``h`` solve: each polish step solves for ``h`` by the normal
  equations where the scan's flag for the nearest offset certifies ``G(mu)``
  well conditioned on the whole half step, else by an SVD.  All 65 flags of
  ``paper-sec5-fractional`` hold, and its ``mse`` CSVs hold the estimates of
  the last step, so a different solver, or a cruder bound that sends a step
  to the SVD, moves their last printed digits;
* polish start: the polish starts at the minimum of the degree-9 Hermite model
  of the scan's values and exact slopes at five offsets, and most estimates of
  ``paper-sec5-fractional`` stop after that one step, so another model or
  another count of its Newton steps moves the last printed digits of its
  ``mse`` CSVs;
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
  ``crb`` column, and fractional offsets feed the taps through the estimator;
* trial streams: every digest that draws noise or a redrawn channel (the
  ``mse`` and ``sound`` files, records included, and the redraw digests)
  depends on stream (s, t) being counter word 2 set to t of the Philox keyed
  by stream (s,), numpy's ``jumped(t)``.  Synthesis is stream (0,) at t = 0,
  so what is drawn from it alone holds when only the trial streams change.

The ``generate``, ``correlate`` and ``capacity`` digests and
``config_echo.json`` do not pass through reception.  Each of the three run
kinds (``mse``, ``sound``, ``capacity``) has its record ``result.json``
pinned, since one ``RunResult.to_dict`` writes them all.  ``TABLES`` pins
every CSV that ``generate`` and ``sound`` write on ``paper-sec5``, and that
``generate``, ``correlate`` and ``sound`` write at N = 1024, one digest per
command, so a change to the table writer shows in every table it writes.
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
        "mse.csv": "d81275206987e2ecb2a5c9925700855b9f0afc2aea7eedbd9615d830ffc19a06",
        "antenna_mse.csv": "78312c46bc12d72e69a0dd4b08f3b74f29d99ed55be83a72e56dd2ebbba9b922",
    },
    ("mse", "paper-sec5-fractional", 3, "csv"): {
        "mse.csv": "351968ad906d73271c86eb7b20408e0ec26cbf92c8a9131356d5bd141769fa7e",
        "antenna_mse.csv": "5d620fe24fb259c13be3cfb7ce17edb9730daa06feab1221089f8c2ab655c5e8",
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
        "result.json": "dd0f2ee308928ad2e4af4b0d03d8c623244d5178b24d2755600b7d4d7c0ab447",
        "config_echo.json": "1cfc64d74ac686d224f3abb136bedbd5a39d4d0c9891f0b502ab9d552be51463",
    },
    ("sound", "paper-sec5", None, "csv"): {
        "trace_tx2_rx0.csv": "2dd207ef2f97f302c1e5479540d0615089f5ee7eadc62af8ce1292796116df5e",
    },
    ("sound", "paper-sec5", None, "record"): {
        "result.json": "f58523b73e5f0696a1ae7be28fbaf0c9b5f4f261e5e95abb76c55ee985e482ad",
    },
    ("sound", "paper-sec5-fractional", None, "csv"): {
        "trace_tx2_rx0.csv": "36a30b28ee7dc7ff6867f7b98557b9fe8fefd2a9415015a10454f03f7014b7f1",
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
    "mse.csv": "516bfcf4ae9f5b150ae819273db96bea20343693276f294319cdec46e6c56147",
    "antenna_mse.csv": "cc668d577e777e2e07494b0ac120cc9ee2c68383394cc6d081f0af4c251d57c4",
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
        "mse.csv": "2435bcc0297a9367c747735d1da8c9c1424849233285452ed827f43b302fe7cc",
        "antenna_mse.csv": "4862e1f0cbf21e851818e40415b0881ad31b6abdbe30b57d4d88f357bdc6ffda",
    },
    ("paper-sec5-fractional", 3, True): {
        "mse.csv": "921336995a0d09c11f1904090e8522ea370d5ebdd3cbe870f021d425fde342f1",
        "antenna_mse.csv": "0dcbbc1dadee3c63b4cb02d53186a50af205daf0f62bbc1bbea734f372518bf9",
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


TABLES = {  # one sha256 over every CSV a command writes: name, NUL, bytes, in name order
    ("generate", "paper-sec5"): "bddbf5dd515c48cb224ea9b07733a2357d1b2b0ae8db3d066cf9107ebe1622a0",
    ("sound", "paper-sec5"): "37f3c9f1fccf24892fab45a4f03f23dfd94231b4e64bf77db680d6cc02d27583",
    ("generate", 1024): "a0302a624a2ecd1a79f3580d7c28739504f76a1e3e10fede4453f7801e8f3015",
    ("correlate", 1024): "296f063c4b04a58f086186fc612beed549143a024854e176855c4a3889498ac1",
    ("sound", 1024): "0c9f5495b06bbb3e970dc8997348cffdd7d98e5c241e697faf61a0beca97c9ea",
}


@pytest.mark.parametrize(
    "command,scenario", list(TABLES), ids=[f"{c}-{s}" for c, s in TABLES]
)
def test_table_digests(tmp_path, command, scenario):
    # a preset by name, or paper-sec5 with waveforms of that length
    if isinstance(scenario, str):
        source = ["--preset", scenario]
    else:
        data = PRESETS["paper-sec5"]()
        data["waveform"]["length"] = scenario
        config = tmp_path / f"n{scenario}.json"
        config.write_text(json.dumps(data))
        source = ["--config", str(config)]
    out = tmp_path / "out"
    assert main([command, *source, "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for table in sorted(out.glob("*.csv")):
        digest.update(table.name.encode() + b"\0" + table.read_bytes())
    assert digest.hexdigest() == TABLES[command, scenario]


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
