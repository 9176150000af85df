"""What a run pays outside its trials: the shared design report, the PAPR of a shared chirp,
and reception's G sampled alone."""

import numpy as np
import pytest

from chirpsounder import (
    ConfigError,
    ConstraintViolationError,
    DimensionMismatchError,
    build_pulse,
    build_shaping_matrix,
    build_sounding_matrix,
    check_design_constraints,
    from_dict,
    generate_chirp,
    preset,
    run_mse_experiment,
)
from chirpsounder import estimator, harness, waveform
from chirpsounder.config import PRESETS


def test_numpy_integer_rates_are_one_problem_line():
    data = PRESETS["paper-sec5"]()
    data["waveform"]["chirp_rates"] = [np.int64(1), np.int64(2), np.int64(4)]
    with pytest.raises(ConfigError) as exc:
        from_dict(data)
    lines = str(exc.value).splitlines()[1:]
    assert len(lines) == 1 and "waveform.chirp_rates" in lines[0]


def test_cached_design_report_keeps_every_check():
    for cached, rejected in (((4, 256, 1), (4, 256, True)), ((4, 256, 15), (4, 256, 15.0))):
        check_design_constraints(*cached)
        with pytest.raises(ConstraintViolationError):
            check_design_constraints(*rejected)
    for args in ((4, 256, 15), (4, 256, 15, 4), (np.int64(4), 256, np.int64(15))):
        fresh = waveform._design_report.__wrapped__(*map(int, args + (0,) * (4 - len(args))))
        assert check_design_constraints(*args) == fresh
        assert check_design_constraints(*args) is check_design_constraints(*args)
    with pytest.raises(DimensionMismatchError):
        build_sounding_matrix(generate_chirp(1, 128), 0)
    with pytest.raises(DimensionMismatchError):
        build_sounding_matrix(generate_chirp(1, 128), True)


@pytest.mark.parametrize("name", ["paper-sec5", "paper-sec5-fractional"])
def test_a_second_run_computes_no_papr_and_no_report(monkeypatch, name):
    cfg = preset(name).replace(trials=1)
    first = run_mse_experiment(cfg)
    calls = []
    papr, misses = waveform.papr, waveform._design_report.cache_info().misses
    monkeypatch.setattr(waveform, "papr", lambda samples: calls.append(1) or papr(samples))
    second = run_mse_experiment(cfg)
    assert second.papr == first.papr
    assert calls == []  # no PAPR computed again
    assert waveform._design_report.cache_info().misses == misses  # and no report built
    assert harness._chirp_papr is waveform._chirp_papr


@pytest.mark.parametrize("shape", [(), (9,), (3, 3), (65,)])
@pytest.mark.parametrize("rolloff, M, L", [(0.25, 4, 15), (1.0, 2, 4), (0.0, 3, 1)])
def test_g_alone_is_the_estimators_g_bit_for_bit(shape, rolloff, M, L):
    pulse = build_pulse(rolloff, M)
    rng = np.random.default_rng(sum(shape) + M)
    mu = rng.uniform(0.0, 0.5, shape)
    if shape:
        mu.flat[0], mu.flat[-1] = 0.0, 0.5
    for offsets in (mu, np.zeros(shape), np.full(shape, 0.5)):
        G = build_shaping_matrix(pulse, offsets, L)
        assert G.tobytes() == estimator._shaping_and_slope(pulse, offsets, L)[0].tobytes()
        assert G.shape == np.shape(offsets) + (2 * M + L - 1, L)
