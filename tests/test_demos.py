"""Smoke test: every demo runs end to end against the current API."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_waveform_family.py",
        "02_sounding_and_segments.py",
        "03_mse_meets_bound.py",
        "04_fractional_offset_estimation.py",
        "05_capacity_equivalence.py",
    ],
)
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
