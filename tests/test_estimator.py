"""Sounding matrices, matched filters, joint estimation, segment analysis."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chirpsounder import (
    ConstraintViolationError,
    DimensionMismatchError,
    average_segments,
    awgn,
    build_pulse,
    build_shaping_matrix,
    build_sounding_matrix,
    check_design_constraints,
    derive_rng,
    generate_chirp,
    joint_estimate,
    matched_filter_fractional,
    matched_filter_integer,
    receive_fractional,
    receive_integer,
    segmented_output,
)
from tests.test_channel import single_link_scenario


def grid_search_oracle(hF, pulse, L, step=1e-4):
    """Exhaustive profile search: exact h solve at every grid offset."""
    mus = np.arange(0.0, 0.5 + step / 2, step)
    best_mu, best_val = 0.0, np.inf
    for mu in mus:
        G = build_shaping_matrix(pulse, mu, L)
        h, *_ = np.linalg.lstsq(G, hF, rcond=None)
        val = float(np.sum(np.abs(hF - G @ h) ** 2))
        if val < best_val:
            best_mu, best_val = float(mu), val
    return best_mu


def toeplitz(w, L, M=0):
    """The sounding-matrix layout s[(M + r - c) mod N], built with no design check."""
    cols = 2 * M + L - 1 if M else L
    return w.samples[(M + np.arange(w.N)[:, None] - np.arange(cols)[None, :]) % w.N]


def random_taps(rng, L):
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


class TestSoundingMatrix:
    def test_toeplitz_layout_integer(self):
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15)
        for r in (0, 1, 14, 127):
            for c in (0, 7, 14):
                assert S.entries[r, c] == w.samples[(r - c) % 128]

    def test_toeplitz_layout_fractional(self):
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15, M=4)
        assert S.entries.shape == (128, 22)
        for r in (0, 3, 127):
            for c in (0, 10, 21):
                assert S.entries[r, c] == w.samples[(4 + r - c) % 128]

    def test_gram_identity(self):
        S = build_sounding_matrix(generate_chirp(1, 128), 15)
        gram = S.entries.conj().T @ S.entries
        assert np.max(np.abs(gram - np.eye(15))) < 1e-10

    def test_cross_gram_zero(self):
        S1 = build_sounding_matrix(generate_chirp(1, 128), 15)
        S2 = build_sounding_matrix(generate_chirp(2, 128), 15)
        assert np.max(np.abs(S1.entries.conj().T @ S2.entries)) < 1e-10

    def test_single_column_is_waveform(self):
        w = generate_chirp(2, 64)
        S = build_sounding_matrix(w, 1)
        np.testing.assert_array_equal(S.entries[:, 0], w.samples)

    def test_dimension_errors(self):
        w = generate_chirp(1, 128)
        with pytest.raises(DimensionMismatchError):
            build_sounding_matrix(w, 0)
        with pytest.raises(DimensionMismatchError):
            build_sounding_matrix(generate_chirp(1, 4), 5)
        with pytest.raises(DimensionMismatchError):
            build_sounding_matrix(w, 5, M=-1)

    def test_design_bound_enforced_and_overridable(self):
        # the bound N > 2pD is sufficient, not necessary: at N = 2pD the Gram
        # matrix is still the identity, so the matrix is built in the test
        w = generate_chirp(4, 128)
        with pytest.raises(ConstraintViolationError):
            build_sounding_matrix(w, 16)
        with pytest.raises(ConstraintViolationError):
            build_sounding_matrix(w, 9, M=4)
        np.testing.assert_array_equal(toeplitz(w, 15), build_sounding_matrix(w, 15).entries)
        S = toeplitz(w, 16)
        assert np.max(np.abs(S.conj().T @ S - np.eye(16))) < 1e-10

    @pytest.mark.parametrize("pa,pb", [(1, 2), (1, 4), (2, 4)])
    def test_gram_blocks_all_pairs(self, pa, pb):
        # integer layout at L = 15 and fractional at 2M+L-1 <= 16
        for L, M in ((15, 0), (9, 4)):
            Sa = toeplitz(generate_chirp(pa, 128), L, M)
            Sb = toeplitz(generate_chirp(pb, 128), L, M)
            D = Sa.shape[1]
            assert np.max(np.abs(Sa.conj().T @ Sa - np.eye(D))) < 1e-10
            assert np.max(np.abs(Sb.conj().T @ Sb - np.eye(D))) < 1e-10
            assert np.max(np.abs(Sa.conj().T @ Sb)) < 1e-10

    def test_passing_constraints_imply_gram_identities(self):
        # whenever the family-level check passes, the Gram blocks are exact
        cases = [
            (rates, N, L, M)
            for rates in ((1,), (1, 2), (1, 2, 4))
            for N in (64, 128)
            for L in (4, 8, 15)
            for M in (0, 2, 4)
        ]
        checked = 0
        for rates, N, L, M in cases:
            if not check_design_constraints(max(rates), N, L, M).passed:
                continue
            mats = [build_sounding_matrix(generate_chirp(p, N), L, M) for p in rates]
            D = mats[0].entries.shape[1]
            for a in range(len(mats)):
                for b in range(len(mats)):
                    block = mats[a].entries.conj().T @ mats[b].entries
                    expected = np.eye(D) if a == b else 0.0
                    assert np.max(np.abs(block - expected)) < 1e-10
            checked += 1
        assert checked > 10


class TestMatchedFilterInteger:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(0)
        taps = random_taps(rng, 15)
        w = generate_chirp(1, 128)
        r = receive_integer(single_link_scenario(taps), [w])
        S = build_sounding_matrix(w, 15)
        h = matched_filter_integer(S, r[0])
        assert np.max(np.abs(h - taps)) < 1e-10

    def test_two_transmitters_no_crosstalk(self):
        from chirpsounder.channel import MimoScenario

        rng = np.random.default_rng(1)
        taps = [random_taps(rng, 15), random_taps(rng, 15)]
        sc = MimoScenario(  # two tx antennas, one rx antenna
            taps=np.stack(taps)[:, None], d=np.zeros((2, 1), dtype=int),
            mu=np.zeros((2, 1)), sigma2=np.zeros(1),
        )
        waveforms = [generate_chirp(1, 128), generate_chirp(2, 128)]
        r = receive_integer(sc, waveforms)
        for i, w in enumerate(waveforms):
            S = build_sounding_matrix(w, 15)
            h = matched_filter_integer(S, r[0])
            assert np.max(np.abs(h - taps[i])) < 1e-10

    def test_dimension_mismatch(self):
        S = build_sounding_matrix(generate_chirp(1, 128), 15)
        with pytest.raises(DimensionMismatchError):
            matched_filter_integer(S, np.zeros(64, dtype=complex))

    def test_kind_checked(self):
        # the lag origin M tells the layouts apart: M = 0 integer, M >= 1 fractional
        w = generate_chirp(1, 128)
        r = np.zeros(128, dtype=complex)
        with pytest.raises(ConstraintViolationError):
            matched_filter_integer(build_sounding_matrix(w, 5, M=2), r)
        with pytest.raises(ConstraintViolationError):
            matched_filter_fractional(build_sounding_matrix(w, 5), r)


class TestMatchedFilterFractional:
    def test_noiseless_output_is_shaped_taps(self):
        rng = np.random.default_rng(2)
        taps = random_taps(rng, 15)
        mu = 0.3
        w = generate_chirp(1, 256)
        pulse = build_pulse(rolloff=0.25, M=4)
        r = receive_fractional(single_link_scenario(taps, mu=mu, N=256), [w], pulse)
        S = build_sounding_matrix(w, 15, M=4)
        hF = matched_filter_fractional(S, r[0])
        G = build_shaping_matrix(pulse, mu, 15)
        assert np.max(np.abs(hF - G @ taps)) < 1e-9

    def test_zero_offset_embeds_taps(self):
        rng = np.random.default_rng(3)
        taps = random_taps(rng, 10)
        w = generate_chirp(1, 128)
        pulse = build_pulse(rolloff=0.25, M=4)
        r = receive_fractional(single_link_scenario(taps, mu=0.0), [w], pulse)
        S = build_sounding_matrix(w, 10, M=4)
        hF = matched_filter_fractional(S, r[0])
        assert np.max(np.abs(hF[4:14] - taps)) < 1e-9
        assert np.max(np.abs(hF[:4])) < 1e-9 and np.max(np.abs(hF[14:])) < 1e-9

    def test_second_waveform_does_not_leak(self):
        from chirpsounder.channel import MimoScenario

        rng = np.random.default_rng(4)
        taps = [random_taps(rng, 15), random_taps(rng, 15)]
        sc = MimoScenario(  # two tx antennas, one rx antenna
            taps=np.stack(taps)[:, None], d=np.zeros((2, 1), dtype=int),
            mu=np.array([[0.3], [0.45]]), sigma2=np.zeros(1),
        )
        waveforms = [generate_chirp(1, 256), generate_chirp(2, 256)]
        pulse = build_pulse(rolloff=0.25, M=4)
        S1 = build_sounding_matrix(waveforms[0], 15, M=4)
        alone = MimoScenario(taps=sc.taps[:1], d=sc.d[:1], mu=sc.mu[:1], sigma2=sc.sigma2)
        hF_alone = matched_filter_fractional(
            S1, receive_fractional(alone, waveforms[:1], pulse)[0]
        )
        hF_both = matched_filter_fractional(
            S1, receive_fractional(sc, waveforms, pulse)[0]
        )
        assert np.max(np.abs(hF_both - hF_alone)) < 1e-9


@st.composite
def array_scenarios(draw):
    """Hand-built (nt, nr, L) scenarios: d up to L (zero active taps), mu on {0, 0.123, 1/2}."""
    from chirpsounder.channel import MimoScenario

    nt, nr, L = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 6))

    def grid(elements):  # one value per (tx, rx) link
        return np.array(draw(st.lists(elements, min_size=nt * nr, max_size=nt * nr)))

    d = grid(st.integers(0, L)).reshape(nt, nr)
    mu = grid(st.sampled_from([0.0, 0.123, 0.5])).reshape(nt, nr)
    taps = random_taps(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), nt * nr * L)
    taps = taps.reshape(nt, nr, L) * (np.arange(L) >= d[..., None])  # zero below d
    return MimoScenario(taps=taps, d=d, mu=mu, sigma2=np.zeros(nr))


@given(sc=array_scenarios())
def test_matched_filters_return_each_link(sc):
    # nt != nr catches a transposed (i, m) index anywhere on the path
    N, M = 256, 4
    waveforms = [generate_chirp(p, N) for p in (1, 2, 4)[: sc.nt]]
    pulse = build_pulse(rolloff=0.25, M=M)
    r_int = receive_integer(sc, waveforms)
    r_frac = receive_fractional(sc, waveforms, pulse)
    for i, w in enumerate(waveforms):
        S, SF = build_sounding_matrix(w, sc.L), build_sounding_matrix(w, sc.L, M)
        for m in range(sc.nr):
            h = matched_filter_integer(S, r_int[m])
            assert np.max(np.abs(h - sc.taps[i, m])) < 1e-12
            hF = matched_filter_fractional(SF, r_frac[m])
            G = build_shaping_matrix(pulse, sc.mu[i, m], sc.L)
            assert np.max(np.abs(hF - G @ sc.taps[i, m])) < 1e-9
    # reference reception: the channel model summed link by link with np.roll,
    # s_i delayed by l (integer) or by y = -M .. M+L-2 through g(y + mu - l)
    ref_int = np.zeros((sc.nr, N), dtype=complex)
    ref_frac = np.zeros((sc.nr, N), dtype=complex)
    y = np.arange(-M, M + sc.L - 1)
    for i, w in enumerate(waveforms):
        for m in range(sc.nr):
            for l, h in enumerate(sc.taps[i, m]):
                ref_int[m] += h * np.roll(w.samples, l)
                for v, g in zip(y, pulse(y + sc.mu[i, m] - l)):
                    ref_frac[m] += g * h * np.roll(w.samples, v)
    for r, ref in ((r_int, ref_int), (r_frac, ref_frac)):
        assert np.max(np.abs(r - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestShapingMatrix:
    def test_zero_offset_is_shifted_identity(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        G = build_shaping_matrix(pulse, 0.0, 10)
        expected = np.zeros((17, 10))
        expected[4:14] = np.eye(10)
        np.testing.assert_allclose(G, expected, atol=1e-15)

    def test_columns_are_shifted_copies(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        G = build_shaping_matrix(pulse, 0.3, 2)
        assert G.shape == (9, 2)
        np.testing.assert_allclose(G[1:, 1], G[:-1, 0], atol=1e-15)

    def test_gram_positive_definite_across_offsets(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        for mu in np.linspace(0.0, 0.5, 26):
            G = build_shaping_matrix(pulse, float(mu), 8)
            eigs = np.linalg.eigvalsh(G.T @ G)
            assert eigs.min() > 0

    def test_mu_out_of_range(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        with pytest.raises(ConstraintViolationError):
            build_shaping_matrix(pulse, 0.7, 8)


class TestJointEstimate:
    def test_noiseless_recovery(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(11)
        L = 15
        for _ in range(10):
            mu_true = float(rng.uniform(0.01, 0.5))
            taps = random_taps(rng, L)
            hF = build_shaping_matrix(pulse, mu_true, L) @ taps
            rep = joint_estimate(hF, pulse, L)
            assert rep.converged
            assert abs(rep.mu_hat - mu_true) < 1e-6
            assert np.linalg.norm(rep.h_hat - taps) / np.linalg.norm(taps) < 1e-6
            assert rep.residual < 1e-18

    def test_oracle_agreement(self):
        pulse = build_pulse(rolloff=0.25, M=3)
        rng = np.random.default_rng(12)
        L = 6
        mu_true = 0.3
        taps = random_taps(rng, L)
        hF = build_shaping_matrix(pulse, mu_true, L) @ taps
        rep = joint_estimate(hF, pulse, L)
        oracle = grid_search_oracle(hF, pulse, L, step=1e-3)
        assert abs(rep.mu_hat - oracle) <= 1e-3

    def test_boundary_offset(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(13)
        taps = random_taps(rng, 15)
        hF = build_shaping_matrix(pulse, 0.5, 15) @ taps
        rep = joint_estimate(hF, pulse, 15)
        assert abs(rep.mu_hat - 0.5) < 1e-6

    def test_zero_input_flagged(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        rep = joint_estimate(np.zeros(22, dtype=complex), pulse, 15)
        assert rep.mu_hat is None
        assert not rep.h_hat.any() and rep.converged

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        from chirpsounder import estimator

        monkeypatch.setattr(estimator, "_POLISH_STEPS", 1)
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(14)
        taps = random_taps(rng, 15)
        hF = build_shaping_matrix(pulse, 0.37, 15) @ taps
        rep = joint_estimate(hF, pulse, 15)
        assert not rep.converged and rep.iterations == 1

    def test_tiny_input_not_undetermined(self):
        # |hF|^2 underflows to 0 below about 1e-162, hence a 1e-170 peak
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(17)
        hF = build_shaping_matrix(pulse, 0.3, 15) @ random_taps(rng, 15)
        ref = joint_estimate(hF, pulse, 15)
        rep = joint_estimate(hF * 1e-170, pulse, 15)
        assert rep.mu_hat is not None and rep.h_hat.any()
        assert abs(rep.mu_hat - ref.mu_hat) < 1e-9

    def test_one_lstsq_per_polish_step(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(1)
            return lstsq(*args, **kwargs)

        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(18)
        hF = build_shaping_matrix(pulse, 0.37, 15) @ random_taps(rng, 15)
        monkeypatch.setattr(np.linalg, "lstsq", counting)
        rep = joint_estimate(hF, pulse, 15)
        assert rep.iterations > 1 and len(calls) == rep.iterations + 1

    @given(
        mu=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-600, 600),
    )
    def test_noiseless_recovery_property(self, mu, seed, k):
        from chirpsounder.estimator import _POLISH_STEPS

        pulse = build_pulse(rolloff=0.25, M=4)
        L = 8
        taps = random_taps(np.random.default_rng(seed), L)
        hF = build_shaping_matrix(pulse, mu, L) @ (taps * 2.0**k)
        rep = joint_estimate(hF, pulse, L)
        assert rep.converged and rep.iterations < _POLISH_STEPS
        assert abs(rep.mu_hat - mu) < 1e-6
        # compared at unit scale: the norms of 2^k-scaled taps under/overflow
        h_hat = rep.h_hat / 2.0**k
        assert np.linalg.norm(h_hat - taps) / np.linalg.norm(taps) < 1e-6

    def test_wrong_length_rejected(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        with pytest.raises(DimensionMismatchError):
            joint_estimate(np.zeros(10, dtype=complex), pulse, 15)

    def test_profile_derivative_small_at_interior_solution(self):
        from chirpsounder.estimator import _profile_derivative

        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(15)
        L = 12
        for _ in range(5):
            mu_true = float(rng.uniform(0.05, 0.45))
            taps = random_taps(rng, L)
            hF = build_shaping_matrix(pulse, mu_true, L) @ taps
            rep = joint_estimate(hF, pulse, L)
            if 0.0 < rep.mu_hat < 0.5:
                assert abs(_profile_derivative(pulse, rep.mu_hat, L, hF)) < 1e-6

    def test_noisy_consistency_with_oracle(self):
        # at 40 dB SNR the estimate stays within one oracle grid step
        pulse = build_pulse(rolloff=0.25, M=3)
        rng = np.random.default_rng(16)
        L, M = 6, 3
        G_dim = 2 * M + L - 1
        sigma = np.sqrt(10 ** (-40 / 10) / 2)
        for _ in range(25):
            mu_true = float(rng.uniform(0.05, 0.5))
            taps = random_taps(rng, L)
            taps /= np.linalg.norm(taps)
            hF = build_shaping_matrix(pulse, mu_true, L) @ taps
            hF = hF + sigma * (rng.standard_normal(G_dim) + 1j * rng.standard_normal(G_dim))
            rep = joint_estimate(hF, pulse, L)
            oracle = grid_search_oracle(hF, pulse, L, step=1e-3)
            assert abs(rep.mu_hat - oracle) <= 1e-3


class TestSegments:
    def test_sign_alternating_replicas(self):
        rng = np.random.default_rng(21)
        taps = random_taps(rng, 12)
        w = generate_chirp(2, 128)
        r = receive_integer(single_link_scenario(taps, N=128, p=2), [w])
        segments = segmented_output(w, r[0])
        assert segments.shape == (4, 32)
        np.testing.assert_allclose(segments[0], segments[2], atol=1e-9)
        np.testing.assert_allclose(segments[1], -segments[0], atol=1e-9)
        np.testing.assert_allclose(segments[3], -segments[2], atol=1e-9)

    def test_segment_leading_entries_are_shaped_taps(self):
        rng = np.random.default_rng(22)
        taps = random_taps(rng, 10)
        mu = 0.3
        M = 4
        w = generate_chirp(2, 256)
        pulse = build_pulse(rolloff=0.25, M=M)
        r = receive_fractional(single_link_scenario(taps, mu=mu, N=256), [w], pulse)
        segments = segmented_output(w, r[0], M=M)
        G = build_shaping_matrix(pulse, mu, 10)
        shaped = G @ taps
        width = len(shaped)
        for j in range(4):
            sign = 1.0 if j % 2 == 0 else -1.0
            np.testing.assert_allclose(segments[j][:width], sign * shaped, atol=1e-9)
            assert np.max(np.abs(segments[j][width:])) < 1e-9

    def test_noise_only_segment_correlation(self):
        # filtered noise is exactly anti-correlated at lag N/(2p) and
        # correlated at lag N/p, both with magnitude 2*sigma^2
        sigma2 = 0.4
        w = generate_chirp(2, 128)
        rng = derive_rng(500, 1, 0)
        draws = 4000
        acc_half, acc_full, acc_var = 0.0, 0.0, 0.0
        for _ in range(draws):
            z = awgn(np.zeros((1, 128), dtype=complex), np.array([sigma2]), rng)[0]
            out = segmented_output(w, z).ravel()
            acc_var += np.mean(np.abs(out) ** 2)
            acc_half += np.mean((out * np.conj(np.roll(out, -32))).real)
            acc_full += np.mean((out * np.conj(np.roll(out, -64))).real)
        assert acc_var / draws == pytest.approx(2 * sigma2, rel=0.05)
        assert acc_half / draws == pytest.approx(-2 * sigma2, rel=0.05)
        assert acc_full / draws == pytest.approx(2 * sigma2, rel=0.05)

    def test_averaging_gives_no_gain(self):
        # sign-corrected averaging of the 2p replicas leaves the MSE unchanged
        sigma2 = 2e-3
        rng_taps = np.random.default_rng(23)
        taps = random_taps(rng_taps, 12)
        taps /= np.linalg.norm(taps)
        w = generate_chirp(4, 128)
        sc = single_link_scenario(taps, N=128)
        r0 = receive_integer(sc, [w])
        rng = derive_rng(501, 1, 0)
        trials = 5000
        err_single, err_avg = 0.0, 0.0
        for _ in range(trials):
            r = awgn(r0, np.array([sigma2]), rng)
            segments = segmented_output(w, r[0])
            single = segments[0][:12]
            averaged = average_segments(segments)[:12]
            err_single += float(np.sum(np.abs(single - taps) ** 2))
            err_avg += float(np.sum(np.abs(averaged - taps) ** 2))
        assert err_avg / err_single == pytest.approx(1.0, abs=0.03)

    @pytest.mark.parametrize("N,p,M", [(128, 1, 0), (256, 2, 4), (1024, 4, 4)])
    def test_matches_dense_matched_filter(self, N, p, M):
        # reference: the N x N matrix whose column c is the waveform shifted
        # by c - M, applied as S^H r
        w = generate_chirp(p, N)
        rng = np.random.default_rng(N + p + M)
        r = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        dense = w.samples[(M + np.arange(N)[:, None] - np.arange(N)[None, :]) % N]
        out = segmented_output(w, r, M=M).ravel()
        np.testing.assert_allclose(out, dense.conj().T @ r, rtol=0, atol=1e-12)

    def test_period_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            segmented_output(generate_chirp(1, 128), np.zeros(64, dtype=complex))
