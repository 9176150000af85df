"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Criterion 4 runs the full 10000-trial preset and takes a couple of
seconds; criterion 6's fractional Monte-Carlo sweep is the slowest item.
"""

import time

import numpy as np
import pytest

from chirpsounder import (
    average_segments,
    awgn,
    build_pulse,
    build_shaping_matrix,
    build_sounding_matrix,
    capacity_equivalence_report,
    closed_form_autocorrelation,
    derive_rng,
    generate_chirp,
    joint_estimate,
    papr,
    preset,
    receive_integer,
    run_capacity_experiment,
    run_mse_experiment,
    segmented_output,
    synthesize_channels,
)
from chirpsounder.cli import main
from tests.test_channel import single_link_scenario


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def literal_periodic_sum(si, sv, tau):
    """Two-part correlation sum, written exactly as defined (no cyclic roll)."""
    N = len(si)
    head = np.sum(si[: N - tau] * np.conj(sv[tau:]))
    tail = np.sum(si[N - tau :] * np.conj(sv[: tau])) if tau else 0.0
    return head + tail


def test_criterion_1_correlation_identities():
    t0 = time.perf_counter()
    N = 128
    rates = (1, 2, 4)
    waveforms = {p: generate_chirp(p, N) for p in rates}
    worst_auto = 0.0
    for p, w in waveforms.items():
        for tau in range(N):
            brute = literal_periodic_sum(w.samples, w.samples, tau)
            predicted = closed_form_autocorrelation(p, N, tau)
            worst_auto = max(worst_auto, abs(brute - predicted))
    assert worst_auto < 1e-10
    worst_cross = 0.0
    for a in range(len(rates)):
        for b in range(a + 1, len(rates)):
            si, sv = waveforms[rates[a]].samples, waveforms[rates[b]].samples
            for tau in range(N):
                worst_cross = max(worst_cross, abs(literal_periodic_sum(si, sv, tau)))
    assert worst_cross < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        1,
        f"auto dev {worst_auto:.2e}, cross dev {worst_cross:.2e} "
        f"over all lags, {elapsed * 1000:.0f} ms",
    )


def test_criterion_2_papr():
    worst = 0.0
    for N in (128, 256):
        for p in (1, 2, 4):
            worst = max(worst, abs(papr(generate_chirp(p, N).samples) - 1.0))
    assert worst < 1e-12
    report(2, f"every chirp PAPR = 1 within {worst:.2e}")


def test_criterion_3_gram_conditions():
    t0 = time.perf_counter()
    N, L, M = 128, 15, 4
    integer = {p: build_sounding_matrix(generate_chirp(p, N), L) for p in (1, 2, 4)}
    worst = 0.0
    for p, S in integer.items():
        worst = max(
            worst, np.max(np.abs(S.entries.conj().T @ S.entries - np.eye(L)))
        )
    for pa, pb in ((1, 2), (1, 4), (2, 4)):
        block = integer[pa].entries.conj().T @ integer[pb].entries
        worst = max(worst, np.max(np.abs(block)))
    # the fractional window 2M+L-1 = 22 only fits rates up to pmax = 1 at N = 128
    SF = build_sounding_matrix(generate_chirp(1, N), L, M=M)
    dim = 2 * M + L - 1
    worst = max(worst, np.max(np.abs(SF.entries.conj().T @ SF.entries - np.eye(dim))))
    assert worst < 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"all Gram blocks within {worst:.2e} of identity/zero, {elapsed * 1000:.0f} ms")


def test_criterion_4_mse_meets_bound():
    cfg = preset("paper-sec5")
    assert cfg.trials == 10000
    result = run_mse_experiment(cfg)
    for row in result.antennas:
        assert 0.98 <= row.ratio <= 1.02, f"rx {row.rx} ratio {row.ratio}"
    ratios = ", ".join(f"{row.ratio:.4f}" for row in result.antennas)
    report(4, f"10000-trial MSE/CRB per rx antenna: {ratios}")


def test_criterion_5_segments_and_averaging():
    # noiseless replica structure for every configured rate
    rng = np.random.default_rng(42)
    worst_dev = 0.0
    for p in (1, 2, 4):
        w = generate_chirp(p, 128)
        block = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        taps = np.zeros(15, dtype=complex)
        taps[5:] = block / np.linalg.norm(block)
        sc = single_link_scenario(taps, N=128)
        segments = segmented_output(w, receive_integer(sc, [w])[0])
        assert segments.shape == (2 * p, 128 // (2 * p))
        for j in range(2 * p):
            sign = 1.0 if j % 2 == 0 else -1.0
            dev = np.max(np.abs(segments[j] - sign * segments[0]))
            worst_dev = max(worst_dev, dev)
            dev_taps = np.max(np.abs(segments[j][:15] - sign * taps))
            worst_dev = max(worst_dev, dev_taps)
    assert worst_dev < 1e-9

    # averaging the sign-corrected replicas must not improve the MSE
    p = 4
    w = generate_chirp(p, 128)
    taps = np.zeros(15, dtype=complex)
    block = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    taps[5:] = block / np.linalg.norm(block)
    sc = single_link_scenario(taps, N=128)
    r0 = receive_integer(sc, [w])
    sigma2 = 1e-3
    gen = derive_rng(4242, 1, 0)
    err_single = err_avg = 0.0
    trials = 5000
    for _ in range(trials):
        r = awgn(r0, np.array([sigma2]), gen)
        segments = segmented_output(w, r[0])
        err_single += float(np.sum(np.abs(segments[0][:15] - taps) ** 2))
        err_avg += float(np.sum(np.abs(average_segments(segments)[:15] - taps) ** 2))
    ratio = err_avg / err_single
    assert abs(ratio - 1.0) < 0.03
    assert ratio > 1.0 / (2 * p) + 0.5  # nowhere near a 1/(2p) reduction
    report(
        5,
        f"replica deviation {worst_dev:.2e}; averaging MSE ratio {ratio:.4f} "
        f"over {trials} trials (no gain)",
    )


def test_criterion_6_fractional_estimator():
    pulse = build_pulse(rolloff=0.25, M=4)
    L, M = 15, 4
    dim = 2 * M + L - 1

    # grid-search oracle: exact h solve at every offset on a 1e-4 grid
    step = 1e-4
    mus = np.arange(0.0, 0.5 + step / 2, step)
    mats = np.stack([build_shaping_matrix(pulse, float(m), L) for m in mus])
    pinvs = np.stack([np.linalg.pinv(G) for G in mats])

    def oracle(hF):
        h = pinvs @ hF
        resid = hF[None, :] - np.einsum("kdc,kc->kd", mats, h)
        return float(mus[int(np.argmin(np.sum(np.abs(resid) ** 2, axis=1)))])

    rng = np.random.default_rng(77)
    worst_mu = worst_h = worst_oracle = 0.0
    for trial in range(100):
        mu_true = 0.5 if trial == 0 else float(rng.uniform(1e-3, 0.5))
        taps = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        taps /= np.linalg.norm(taps)
        hF = build_shaping_matrix(pulse, mu_true, L) @ taps
        rep = joint_estimate(hF, pulse, L)
        assert rep.converged
        worst_mu = max(worst_mu, abs(rep.mu_hat - mu_true))
        worst_h = max(
            worst_h, float(np.linalg.norm(rep.h_hat - taps) / np.linalg.norm(taps))
        )
        worst_oracle = max(worst_oracle, abs(rep.mu_hat - oracle(hF)))
    assert worst_mu < 1e-6
    assert worst_h < 1e-6
    assert worst_oracle <= step

    # at 25 dB with offsets redrawn per trial the MSE sits above the
    # integer-offset bound (no numeric target; the margin is reported)
    cfg = preset("paper-sec5-fractional").replace(trials=200)
    result = run_mse_experiment(cfg)
    ratios = [row.ratio for row in result.antennas]
    assert all(r > 1.0 for r in ratios)
    report(
        6,
        f"noiseless: mu dev {worst_mu:.2e}, h dev {worst_h:.2e}, oracle gap "
        f"{worst_oracle:.2e}; 25 dB fractional MSE/CRB per rx: "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_criterion_7_capacity_equivalence():
    for name in ("capacity-tx-shared", "capacity-rx-shared"):
        result = run_capacity_experiment(preset(name))
        assert [row.rho_db for row in result.capacity] == [0.0, 5.0, 10.0, 20.0]
        for row in result.capacity:
            assert abs(row.c_syn - row.c_asyn) < 1e-9
            assert row.equal
    multi = run_capacity_experiment(preset("capacity-multi-lo"))
    gaps = [abs(row.c_syn - row.c_asyn) for row in multi.capacity if row.rho_db > 0]
    assert max(gaps) > 1e-3
    # same conclusion straight from the library surface
    cfg = preset("capacity-multi-lo")
    sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    (rep,) = capacity_equivalence_report(sc, 256, [10.0])
    assert not rep.equal and rep.max_bin_gap > 1e-3
    report(
        7,
        f"one-sided LO sharing equal to < 1e-9; generic 2x2 multi-LO capacity "
        f"gap {max(gaps):.3e}",
    )


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(preset("paper-sec5").replace(trials=200).canonical_json())
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["mse", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("mse.csv", "antenna_mse.csv", "config_echo.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    cap_out = []
    for sub in ("ca", "cb"):
        out = tmp_path / sub
        assert main(["capacity", "--preset", "capacity-multi-lo", "--out", str(out)]) == 0
        cap_out.append(out)
    assert (cap_out[0] / "capacity.csv").read_bytes() == (
        cap_out[1] / "capacity.csv"
    ).read_bytes()
    report(8, "repeated runs produce byte-identical CSV payloads")
