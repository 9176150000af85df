"""Golden digests of the deterministic result files.

Identical config and seed must give byte-identical ``mse.csv``,
``antenna_mse.csv`` and ``capacity.csv``.  These sha256 digests were taken
with numpy 2.4.6 on x86-64; a change that alters the bytes fails here and
has to say why in CHANGES.md.  The ``paper-sec5-fractional`` digests depend
on the estimator's polish iteration, which stops within 1e-10 of the
minimizer, so a different iteration moves the last printed digits.
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
        "mse.csv": "2f1b2e0bae0dc11444f17bbac644333438838df25dfb9e97d86577488cb26c1f",
        "antenna_mse.csv": "217bddca3905531af38cef249a71f72183f42c830bd43edc57115df243d9c10d",
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
}


@pytest.mark.parametrize("command,preset,trials", list(GOLDEN))
def test_output_digests(tmp_path, command, preset, trials):
    argv = [command, "--preset", preset, "--out", str(tmp_path)]
    if trials is not None:
        argv += ["--trials", str(trials)]
    assert main(argv) == 0
    for name, digest in GOLDEN[command, preset, trials].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
