"""Sounding matrices, matched filters, joint estimation, segment analysis."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    draw_fractional_offsets,
    generate_chirp,
    joint_estimate,
    matched_filter_fractional,
    matched_filter_integer,
    preset,
    receive_fractional,
    receive_integer,
    segmented_output,
    synthesize_channels,
)
from chirpsounder.channel import PulseShape
from chirpsounder.waveform import SoundingWaveform
from tests.test_channel import single_link_scenario, sounding


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
    """The sounding matrix S[r, c] = s[(M + r - c) mod N], built with no design check.

    ``SoundingMatrix.entries`` stores its Hermitian transpose, the matched filter.
    """
    cols = 2 * M + L - 1 if M else L
    return w.samples[(M + np.arange(w.N)[:, None] - np.arange(cols)[None, :]) % w.N]


def direct_shaping_matrix(pulse, mu, L):
    """G(mu)[r, c] = g((r - M - c + mu)T), the pulse taken at all (2M+L-1) x L entries.

    Kept as the reference for ``build_shaping_matrix``, which takes the pulse
    once per support lag of the Toeplitz G and gathers, with the same sums
    lag + mu, so the two agree bit for bit but where lag + mu = M: there
    ``__call__`` holds sinc's rounding and the builder's support an exact 0.
    """
    lags = np.arange(2 * pulse.M + L - 1)[:, None] - pulse.M - np.arange(L)
    return pulse(lags + np.asarray(mu, dtype=float)[..., None, None])


def slope_by_differences(pulse, mu, L):
    """dG/dmu by differences of ``build_shaping_matrix`` at steps of 1e-6, to second order.

    One-sided at 0 and 1/2, where the offset range ends (right-sided at 0, as the
    support cuts the lag M off for mu > 0), central elsewhere.
    """
    delta = 1e-6

    def G(m):
        return build_shaping_matrix(pulse, m, L)

    if mu - delta < 0.0:
        return (-3 * G(mu) + 4 * G(mu + delta) - G(mu + 2 * delta)) / (2 * delta)
    if mu + delta > 0.5:
        return (3 * G(mu) - 4 * G(mu - delta) + G(mu - 2 * delta)) / (2 * delta)
    return (G(mu + delta) - G(mu - delta)) / (2 * delta)


def reference_slope(pulse, mu, L, hF):
    """Profile slope -2 Re <hF - G h, G' h> in complex arithmetic, h by complex least squares.

    G' is a central difference of ``build_shaping_matrix``, half-width 1e-6, cut at 0
    and 1/2: a reference independent of the estimator's closed-form slope.
    """
    delta = 1e-6
    lo, hi = max(mu - delta, 0.0), min(mu + delta, 0.5)
    G = build_shaping_matrix(pulse, mu, L)
    h = np.linalg.lstsq(G.astype(complex), hF, rcond=None)[0]
    Gp = (build_shaping_matrix(pulse, hi, L) - build_shaping_matrix(pulse, lo, L)) / (hi - lo)
    return -2.0 * float(np.real(np.vdot(hF - G @ h, Gp @ h)))


def reference_polish(pulse, L, hF):
    """A bisect-first polish in complex arithmetic: returns ``(mu, steps, converged)``.

    It scans the profile at ``_SCAN_POINTS`` offsets with one complex
    least-squares solve each, starts at the best one, bisects first and
    returns the last update, at which ``reference_estimate`` solves for h
    once more.  Kept as the reference for ``_mu_step``, whose real
    arithmetic, cached slope makers, Hermite start and reused last solve must
    land on the same estimate within the polish tolerance.
    """
    from chirpsounder import estimator

    mus = np.linspace(0.0, 0.5, estimator._SCAN_POINTS)
    phi = []
    for G in build_shaping_matrix(pulse, mus, L).astype(complex):
        phi.append(np.sum(np.abs(hF - G @ np.linalg.lstsq(G, hF, rcond=None)[0]) ** 2))
    k = int(np.argmin(phi))
    lo = mus[max(k - 1, 0)]
    hi = mus[min(k + 1, len(mus) - 1)]
    mu = float(mus[k])
    mu0 = fp0 = None
    for steps in range(1, estimator._POLISH_STEPS + 1):
        fp = reference_slope(pulse, mu, L, hF)
        if fp > 0:
            hi = mu
        else:
            lo = mu
        slope = 0.0 if mu0 is None else (fp - fp0) / (mu - mu0)
        nxt = mu - fp / slope if slope > 0 else np.inf
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) < estimator._POLISH_TOL:
            return float(nxt), steps, True
        mu0, fp0, mu = mu, fp, nxt
    return float(mu), estimator._POLISH_STEPS, False


def reference_estimate(hF, pulse, L):
    """``(mu_hat, h_hat, steps, converged)`` of ``reference_polish`` and a final complex solve."""
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(hF)))[1]))
    mu, steps, converged = reference_polish(pulse, L, hF / scale)
    G = build_shaping_matrix(pulse, mu, L).astype(complex)
    return mu, np.linalg.lstsq(G, hF / scale, rcond=None)[0] * scale, steps, converged


def random_taps(rng, L):
    return (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2)


@pytest.fixture
def fresh_caches():
    """Empty the scan, shaping-layout, chirp and sounding-matrix caches around a test.

    ``lru_cache`` outlives ``monkeypatch``: a scan built from a patched G, or a
    layout cached under a bad key, would otherwise serve every later test.
    """
    from chirpsounder import estimator, waveform

    caches = (
        estimator._scan_grid,
        estimator._shaping_layout,
        estimator._sounding_matrix,
        waveform._chirp,
    )
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def record_solves(monkeypatch):
    """Record ``(name, a.dtype, b.dtype)`` of every ``np.linalg.solve`` and ``lstsq`` call."""
    calls = []
    for name in ("solve", "lstsq"):

        def recording(a, b, *args, _name=name, _run=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.asarray(a).dtype, np.asarray(b).dtype))
            return _run(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


class TestSoundingMatrix:
    # entries hold the matched filter S^H: entries[c, r] = conj(S[r, c])
    def test_toeplitz_layout_integer(self):
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15)
        assert S.entries.shape == (15, 128) and S.entries.flags.c_contiguous
        for r in (0, 1, 14, 127):
            for c in (0, 7, 14):
                assert S.entries[c, r] == np.conj(w.samples[(r - c) % 128])

    def test_toeplitz_layout_fractional(self):
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15, M=4)
        assert S.entries.shape == (22, 128) and S.entries.flags.c_contiguous
        for r in (0, 3, 127):
            for c in (0, 10, 21):
                assert S.entries[c, r] == np.conj(w.samples[(4 + r - c) % 128])

    def test_gram_identity(self):
        S = build_sounding_matrix(generate_chirp(1, 128), 15)
        gram = S.entries @ S.entries.conj().T
        assert np.max(np.abs(gram - np.eye(15))) < 1e-10

    def test_cross_gram_zero(self):
        S1 = build_sounding_matrix(generate_chirp(1, 128), 15)
        S2 = build_sounding_matrix(generate_chirp(2, 128), 15)
        assert np.max(np.abs(S1.entries @ S2.entries.conj().T)) < 1e-10

    def test_cached_matrix_is_shared_and_read_only(self, fresh_caches):
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15, M=4)
        assert build_sounding_matrix(w, np.int64(15), np.int32(4)) is S
        assert type(S.M) is int
        with pytest.raises(ValueError):
            S.entries[0, 0] = 0.0

    def test_hand_built_waveform_gets_its_own_matrix(self, fresh_caches):
        # SoundingWaveform compares by identity, so equal (p, N) with other samples
        # does not reach the chirp's cached matrix
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15)
        other = SoundingWaveform(p=1, N=128, samples=w.samples[::-1].copy())
        T = build_sounding_matrix(other, 15)
        assert T is not S and build_sounding_matrix(w, 15) is S
        assert T.entries.tobytes() == toeplitz(other, 15).conj().T.tobytes()

    def test_editable_waveform_matrix_follows_its_samples(self, fresh_caches):
        # writable samples are built per call, so an edit between calls is seen;
        # the same samples made read-only are taken as unchanging and shared
        samples = generate_chirp(1, 128).samples[::-1].copy()
        w = SoundingWaveform(p=1, N=128, samples=samples)
        S = build_sounding_matrix(w, 15)
        samples[3] = 0.5
        T = build_sounding_matrix(w, 15)
        assert T is not S and T.entries.tobytes() == toeplitz(w, 15).conj().T.tobytes()
        assert S.entries.tobytes() != T.entries.tobytes()
        samples.flags.writeable = False
        assert build_sounding_matrix(w, 15) is build_sounding_matrix(w, 15)

    def test_large_matrix_is_built_per_call(self, fresh_caches):
        # D N = 15 * 8192 entries is above the shared bound: nothing outlives the call
        from chirpsounder import estimator

        w = generate_chirp(1, 8192)
        S = build_sounding_matrix(w, 15)
        T = build_sounding_matrix(w, 15)
        assert T is not S and T.entries.tobytes() == S.entries.tobytes()
        assert not T.entries.flags.writeable
        assert estimator._sounding_matrix.cache_info().currsize == 0

    @pytest.mark.parametrize("N", [128, 1024])
    @pytest.mark.parametrize("M", [0, 4])
    def test_strided_build_matches_the_definition(self, N, M, fresh_caches):
        w = generate_chirp(2, N)
        S = build_sounding_matrix(w, 15, M)
        c, r = np.indices(S.entries.shape)
        assert S.entries.shape == (2 * M + 14 if M else 15, N) and S.entries.flags.c_contiguous
        assert S.entries.tobytes() == np.conj(w.samples[(M + r - c) % N]).tobytes()

    def test_single_column_is_waveform(self):
        w = generate_chirp(2, 64)
        S = build_sounding_matrix(w, 1)
        np.testing.assert_array_equal(S.entries[0], np.conj(w.samples))

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
        S = build_sounding_matrix(w, 15)
        np.testing.assert_array_equal(toeplitz(w, 15).conj().T, S.entries)
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

    @settings(max_examples=60)
    @given(
        st.integers(0, 6), st.integers(0, 6), st.integers(2, 9), st.sampled_from([0, 1, 2, 4]),
        st.integers(-2, 2) | st.integers(-64, 64),
    )
    @example(2, 0, 7, 0, 0)  # N = 128, rate 4, L = 16: on the bound
    @example(2, 1, 8, 4, 0)  # N = 256, rate 4, L = 25 at M = 4: on the bound
    @example(2, 1, 8, 4, 1)  # one column past it
    def test_gram_identity_exactly_from_the_bound(self, a, b, n, M, step):
        # S^H S = I iff N >= 2pD; the strict check asks for one column more
        p, q, N = 2**a, 2**b, 2**n
        assume(N > 2 * p)
        D = max(N // (2 * p) + step, 2 * M, 1)  # columns near the bound, 2M + L - 1 if M
        L = D - 2 * M + 1 if M else D
        Sp = toeplitz(generate_chirp(p, N), L, M)
        exact = np.max(np.abs(Sp.conj().T @ Sp - np.eye(D))) <= 1e-9
        report = check_design_constraints(p, N, L, M)
        assert exact == (N >= 2 * p * D) == (report.slack >= 0)
        assert report.passed == (report.slack > 0)
        if q != p and N > 2 * q:  # zero cross-correlation at every lag, so at every D
            Sq = toeplitz(generate_chirp(q, N), L, M)
            assert np.max(np.abs(Sp.conj().T @ Sq)) <= 1e-9

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
            D = mats[0].entries.shape[0]
            for a in range(len(mats)):
                for b in range(len(mats)):
                    block = mats[a].entries @ mats[b].entries.conj().T
                    expected = np.eye(D) if a == b else 0.0
                    assert np.max(np.abs(block - expected)) < 1e-10
            checked += 1
        assert checked > 10


class TestMatchedFilterInteger:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(0)
        taps = random_taps(rng, 15)
        w = generate_chirp(1, 128)
        S = build_sounding_matrix(w, 15)
        r = receive_integer(single_link_scenario(taps), [S])
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
        matrices = sounding(waveforms, 15)
        r = receive_integer(sc, matrices)
        for i, S in enumerate(matrices):
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
        S = build_sounding_matrix(w, 15, M=4)
        r = receive_fractional(single_link_scenario(taps, mu=mu), [S], pulse)
        hF = matched_filter_fractional(S, r[0])
        G = build_shaping_matrix(pulse, mu, 15)
        assert np.max(np.abs(hF - G @ taps)) < 1e-9

    def test_zero_offset_embeds_taps(self):
        rng = np.random.default_rng(3)
        taps = random_taps(rng, 10)
        w = generate_chirp(1, 128)
        pulse = build_pulse(rolloff=0.25, M=4)
        S = build_sounding_matrix(w, 10, M=4)
        r = receive_fractional(single_link_scenario(taps, mu=0.0), [S], pulse)
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
        matrices = sounding(waveforms, 15, M=4)
        S1 = matrices[0]
        alone = MimoScenario(taps=sc.taps[:1], d=sc.d[:1], mu=sc.mu[:1], sigma2=sc.sigma2)
        hF_alone = matched_filter_fractional(
            S1, receive_fractional(alone, matrices[:1], pulse)[0]
        )
        hF_both = matched_filter_fractional(
            S1, receive_fractional(sc, matrices, pulse)[0]
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
    matrices, fractional = sounding(waveforms, sc.L), sounding(waveforms, sc.L, M)
    r_int = receive_integer(sc, matrices)
    r_frac = receive_fractional(sc, fractional, pulse)
    for i, (S, SF) in enumerate(zip(matrices, fractional)):
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
        for mu in (0.7, -0.1, np.nan, [0.0, 0.5, 0.7], [0.2, np.nan], [[0.1], [-1e-9]]):
            with pytest.raises(ConstraintViolationError):
                build_shaping_matrix(pulse, mu, 8)

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 1.0])
    def test_stacked_build_matches_per_offset_builds(self, rolloff):
        pulse = build_pulse(rolloff=rolloff, M=4)
        mus = np.concatenate([[0.0, 0.5], np.random.default_rng(5).uniform(0.0, 0.5, 40)])
        for L in (1, 15):
            stack = build_shaping_matrix(pulse, mus, L)
            assert stack.shape == (len(mus), 2 * 4 + L - 1, L)
            for G, mu in zip(stack, mus.tolist()):
                np.testing.assert_array_equal(G, build_shaping_matrix(pulse, mu, L))
            grid = build_shaping_matrix(pulse, mus.reshape(6, 7), L)
            np.testing.assert_array_equal(grid.reshape(stack.shape), stack)

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("M", [1, 4])
    @pytest.mark.parametrize("L", [1, 2, 15])
    def test_gather_matches_direct_evaluation(self, rolloff, M, L):
        pulse = build_pulse(rolloff=rolloff, M=M)
        grid = np.linspace(0.0, 0.5, 101)  # holds 0 and 1/2 exactly
        mus = np.concatenate([grid, np.random.default_rng(12).uniform(0.0, 0.5, 199)])
        lags = np.arange(2 * M + L - 1)[:, None] - M - np.arange(L)
        for mu in (mus, mus.reshape(20, 15), 0.0, 0.5, float(mus[-1]), np.array(0.25)):
            G, expected = build_shaping_matrix(pulse, mu, L), direct_shaping_matrix(pulse, mu, L)
            assert G.shape == expected.shape == np.shape(mu) + (2 * M + L - 1, L)
            # at mu = 0 the lag +M (in G when L > 1) is off the support: exactly
            # g(M) = 0, where the direct evaluation holds sinc's rounding, ~1e-17
            edge = np.asarray(mu)[..., None, None] + lags == M
            assert edge.any() == (0.0 in np.ravel(mu) and L > 1) and not G[edge].any()
            assert G[~edge].tobytes() == expected[~edge].tobytes()

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 0.3, 1.0])
    @pytest.mark.parametrize("M", [1, 4])
    @pytest.mark.parametrize("L", [1, 15])
    def test_shaping_and_slope_matches_build_and_differences(self, rolloff, M, L):
        # the polish's G(mu) and closed-form dG/dmu: G is reception's, dG/dmu
        # matches a difference of it
        from chirpsounder.estimator import _shaping_and_slope

        pulse = build_pulse(rolloff=rolloff, M=M)
        singular = [] if rolloff == 0 else [
            sign / (2 * rolloff) - k for sign in (1, -1) for k in range(-M, M)
        ]
        singular = [mu for mu in singular if 0.0 <= mu <= 0.5]  # a lag on 1 = (2 b t)^2
        assert len(singular) == {0.0: 0, 0.25: 2 * (M == 4), 0.3: M == 4, 1.0: 2}[rolloff]
        rng = np.random.default_rng(31)
        for mu in [0.0, 5e-324, 0.5, *singular, *rng.uniform(0.0, 0.5, 20).tolist()]:
            G, Gp = _shaping_and_slope(pulse, mu, L)
            assert G.shape == Gp.shape == (2 * M + L - 1, L)
            assert G.tobytes() == build_shaping_matrix(pulse, mu, L).tobytes()
            assert np.max(np.abs(Gp - slope_by_differences(pulse, mu, L))) <= 1e-8

    @pytest.mark.parametrize("rolloff,M,L", [(0.25, 4, 15), (0.0, 1, 1), (1.0, 2, 3)])
    def test_shaping_and_slope_takes_any_shape_of_offsets(self, rolloff, M, L):
        # one call over an array of offsets is the stack of its scalar calls, bit for bit
        from chirpsounder.estimator import _shaping_and_slope

        pulse = build_pulse(rolloff=rolloff, M=M)
        grid = np.linspace(0.0, 0.5, 65)  # the scan's offsets, 0 and 1/2 among them
        rng = np.random.default_rng(7)
        for mu in (np.array(0.3), grid, np.r_[0.0, 0.5, rng.uniform(0.0, 0.5, 7)].reshape(3, 3)):
            out = _shaping_and_slope(pulse, mu, L)
            assert out.shape == (2,) + mu.shape + (2 * M + L - 1, L)
            scalar = [_shaping_and_slope(pulse, m, L) for m in mu.ravel().tolist()]
            stacked = np.stack(scalar, axis=1).reshape(out.shape)
            assert out.tobytes() == stacked.tobytes()

    def test_one_pulse_sample_per_distinct_lag(self, monkeypatch):
        # G and G' take the pulse at its 2M = 8 support lags per offset on
        # paper-sec5-fractional, in one with_slope call however many offsets,
        # not at G's (2M+L-1)*L = 330 entries; reception and the scan alike
        from chirpsounder.estimator import _scan_grid

        points = []
        original = PulseShape.with_slope

        def counting(pulse, t):
            points.append(np.size(t))
            return original(pulse, t)

        monkeypatch.setattr(PulseShape, "with_slope", counting)
        cfg = preset("paper-sec5-fractional")
        pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
        L = cfg.total_length
        assert 2 * pulse.M == 8
        for mu in (0.3, (0.0, 0.2, 0.5), np.linspace(0.0, 0.5, 33).reshape(3, 11)):
            points.clear()
            build_shaping_matrix(pulse, mu, L)
            assert points == [np.size(mu) * 8]
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
        points.clear()
        receive_fractional(sc, sounding(waveforms, L, pulse.M), pulse)
        assert points == [sc.nt * sc.nr * 8] == [9 * 8]
        points.clear()
        _scan_grid.__wrapped__(pulse, L)  # past its cache
        assert points == [65 * 8]


class TestNullSpaceScan:
    @settings(max_examples=60)
    @given(
        rolloff=st.sampled_from([0.0, 0.25, 1.0]),
        M=st.integers(1, 4),
        L=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scan_scores_the_projected_residual(self, rolloff, M, L, seed):
        # Kaufman's form: ||Q2^T Y||^2 is ||(I - G pinv(G)) Y||^2 at every scan offset,
        # and the null-space slope makers give -2 <(I - G pinv(G)) Y, G' pinv(G) Y>
        from chirpsounder import estimator

        pulse = build_pulse(rolloff=rolloff, M=M)
        mus, makers, slopers, _ = estimator._scan_grid.__wrapped__(pulse, L)  # past its cache
        G, Gp = estimator._shaping_and_slope(pulse, np.array(mus), L)
        n, D, R = len(mus), 2 * M + L - 1, 2 * M - 1
        assert makers.shape == slopers.shape == (n * R, D)
        Y = np.random.default_rng(seed).standard_normal((D, 2))
        h = np.linalg.pinv(G) @ Y
        resid = Y - G @ h
        phi = np.einsum("kdi,kdi->k", resid, resid)
        slope = -2.0 * np.einsum("kdi,kdi->k", resid, Gp @ h)
        null, grad = (makers @ Y).reshape(n, R, 2), (slopers @ Y).reshape(n, R, 2)
        np.testing.assert_allclose(np.einsum("kri,kri->k", null, null), phi, rtol=1e-12, atol=0)
        got = -2.0 * np.einsum("kri,kri->k", null, grad)
        np.testing.assert_allclose(got, slope, rtol=1e-10, atol=1e-10 * np.abs(slope).max())

    @pytest.mark.parametrize("M,L", [(2, 6), (4, 15)])
    def test_scan_entry_holds_2M_minus_1_rows_per_offset(self, M, L):
        # two (65 (2M-1), D) makers, not two (65 D, D): 160160 B on paper-sec5-fractional
        from chirpsounder import estimator

        _, makers, slopers, _ = estimator._scan_grid.__wrapped__(build_pulse(0.25, M), L)
        D = 2 * M + L - 1
        assert makers.nbytes + slopers.nbytes <= 2 * 65 * (2 * M - 1) * D * 8


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

    @pytest.mark.parametrize("exponent", [-900, 0, 1023])
    def test_scale_invariant_up_to_the_largest_binade(self, exponent):
        # power-of-two scaling is exact, so the estimate scales with hF bit for bit,
        # also with its largest part in [2^1023, 2^1024), where 2^1024 overflows
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(23)
        hF = build_shaping_matrix(pulse, 0.3, 15) @ random_taps(rng, 15)
        hF = hF + 0.01 * (rng.standard_normal(22) + 1j * rng.standard_normal(22))
        shift = exponent + 1 - np.frexp(np.abs(hF.view(float)).max())[1]
        scaled = np.ldexp(hF.view(float), shift).view(complex)
        assert np.frexp(np.abs(scaled.view(float)).max())[1] == exponent + 1  # in the binade
        ref, rep = joint_estimate(hF, pulse, 15), joint_estimate(scaled, pulse, 15)
        expected = np.ldexp(ref.h_hat.view(float), shift).view(complex)
        assert np.isfinite(expected).all()
        assert rep.h_hat.tobytes() == expected.tobytes()
        assert (rep.mu_hat, rep.iterations, rep.residual, rep.converged) == (
            ref.mu_hat, ref.iterations, ref.residual, ref.converged
        )

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, -np.inf)]
    )
    def test_non_finite_input_rejected(self, bad):
        pulse = build_pulse(rolloff=0.25, M=4)
        hF = build_shaping_matrix(pulse, 0.3, 15) @ random_taps(np.random.default_rng(24), 15)
        hF[5] = bad
        with pytest.raises(ConstraintViolationError):  # a ValueError, as every input fault
            joint_estimate(hF, pulse, 15)

    @pytest.mark.parametrize("L", [0, -1])
    def test_channel_length_below_one_rejected(self, L):
        pulse = build_pulse(rolloff=0.25, M=4)
        with pytest.raises(DimensionMismatchError):
            joint_estimate(np.ones(2 * pulse.M + L - 1, dtype=complex), pulse, L)

    def test_one_solve_per_polish_step(self, monkeypatch):
        calls = record_solves(monkeypatch)
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(18)
        hF = build_shaping_matrix(pulse, 0.37, 15) @ random_taps(rng, 15)
        rep = joint_estimate(hF, pulse, 15)
        assert rep.iterations > 1 and len(calls) == rep.iterations
        assert [name for name, *_ in calls] == ["solve"] * rep.iterations  # certified: no SVD
        assert {(a, b) for _, a, b in calls} == {(np.dtype(np.float64),) * 2}

    def test_every_solve_is_real(self, monkeypatch):
        # G(mu) is real: hF enters the solves as real and imaginary columns, so no
        # solve runs in complex arithmetic
        calls = record_solves(monkeypatch)
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(24)
        hF = build_shaping_matrix(pulse, 0.21, 15) @ random_taps(rng, 15)
        hF = hF + 0.05 * (rng.standard_normal(22) + 1j * rng.standard_normal(22))
        rep = joint_estimate(hF, pulse, 15)
        assert rep.iterations >= 1 and len(calls) == rep.iterations
        assert [name for name, *_ in calls] == ["solve"] * rep.iterations
        assert {(a, b) for _, a, b in calls} == {(np.dtype(np.float64),) * 2}

    @settings(max_examples=30)
    @given(
        rolloff=st.sampled_from([0.0, 0.25, 1.0]),
        M=st.sampled_from([1, 4, 16]),
        L=st.sampled_from([1, 15, 256]),
        mu=st.one_of(
            st.sampled_from([0.0, 0.5]),
            st.integers(0, 64).map(lambda j: j / 128),  # the scan's offsets
            st.integers(0, 63).map(lambda j: (j + 0.5) / 128),  # midway between them
            st.floats(0.0, 0.5),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rolloff=1.0, M=1, L=256, mu=0.5, seed=0)  # kappa(G) = 164, the largest surveyed
    @example(rolloff=1.0, M=1, L=256, mu=63.5 / 128, seed=1)  # not certified: the SVD solves
    def test_gram_certificate_is_sound(self, rolloff, M, L, mu, seed):
        # the flag of the scan offset j/128 nearest mu covers |mu - j/128| <= 1/256,
        # whose ends, the midpoints, are the bound's worst case: where it holds, the
        # exact kappa(G(mu)) is within _GRAM_LIMIT and the normal equations' h is
        # lstsq's to 1e-12, and the polish takes the path the flag names.  The scan
        # applies _certified to its 65 G_j; here it takes the one G_j (the scan's
        # own flags and the polish are checked where its cache is small)
        from chirpsounder import estimator

        pulse = build_pulse(rolloff=rolloff, M=M)
        j = round(mu * 128)
        (G, near), (_, slope) = estimator._shaping_and_slope(pulse, np.array([mu, j / 128]), L)
        certified = bool(estimator._certified(pulse, near, slope))
        Y = np.random.default_rng(seed).standard_normal((G.shape[0], 2))
        h = np.linalg.lstsq(G, Y, rcond=None)[0]
        gram = np.linalg.solve(G.T @ G, G.T @ Y)
        if certified:
            sv = np.linalg.svd(G, compute_uv=False)
            assert sv[0] <= estimator._GRAM_LIMIT * sv[-1]
            assert np.linalg.norm(gram - h) <= 1e-12 * np.linalg.norm(h)
        if L <= 15:
            mus, _, _, flags = estimator._scan_grid(pulse, L)
            assert mus[j] == j / 128 and flags[j] == certified
            got = estimator._profile_derivative(pulse, mu, L, Y)[1]
            assert got.tobytes() == (gram if certified else h).tobytes()

    def test_gram_certificate_is_sound_at_tight_limits(self, monkeypatch, fresh_caches):
        # kappa(G) grows from 1 to 10 over [0, 1/2] on this pulse; with the limit set
        # to each scan matrix's own kappa in turn, every certified half step still
        # keeps kappa(G(mu)) within it at both ends (a flag from G_j alone would not).
        # Then the polish reads the flag of the nearest scan offset, on either side
        # of the last certified one
        from chirpsounder import estimator

        pulse, L = build_pulse(rolloff=1.0, M=1), 15
        G, Gp = estimator._shaping_and_slope(pulse, np.arange(129) / 256, L)  # j/128 and ends
        sv = np.linalg.svd(G, compute_uv=False)
        kappa = sv[:, 0] / sv[:, -1]
        certified = 0
        for limit in kappa[::2].tolist():
            monkeypatch.setattr(estimator, "_GRAM_LIMIT", limit)
            for j in np.flatnonzero(estimator._certified(pulse, G[::2], Gp[::2])):
                assert kappa[max(2 * j - 1, 0) : 2 * j + 2].max() <= limit
                certified += 1
        assert certified > 1000
        b = int(np.argmin(estimator._certified(pulse, G[::2], Gp[::2])))  # first uncertified
        assert b > 1
        Y = np.random.default_rng(26).standard_normal((G.shape[1], 2))
        calls = record_solves(monkeypatch)
        for mu, path in (((b - 0.75) / 128, "solve"), ((b - 0.25) / 128, "lstsq")):
            calls.clear()
            estimator._profile_derivative(pulse, mu, L, Y)
            assert [name for name, *_ in calls] == [path]

    def test_fractional_preset_takes_only_gram_solves(self, monkeypatch):
        # every scan interval of paper-sec5-fractional is certified, so its runs
        # make no SVD solve; a cruder bound that sent the preset to the SVD fails here
        from chirpsounder import estimator, run_mse_experiment

        cfg = preset("paper-sec5-fractional")
        pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
        assert estimator._scan_grid(pulse, cfg.total_length)[3] == [True] * 65
        calls = record_solves(monkeypatch)
        run_mse_experiment(cfg.replace(trials=3))
        assert calls and {name for name, *_ in calls} == {"solve"}

    def test_uncertified_matrix_falls_back_to_svd(self, monkeypatch, fresh_caches):
        # a repeated column in every G, the scan's too, leaves each scan matrix a
        # least singular value below its bound, so no Gram solve is certified:
        # the SVD runs and rejects the rank-deficient G
        from chirpsounder import IllConditionedError, estimator

        pulse = build_pulse(rolloff=0.25, M=4)
        hF = build_shaping_matrix(pulse, 0.3, 15) @ random_taps(np.random.default_rng(20), 15)
        evaluate = estimator._shaping_and_slope

        def repeated_column(pulse, mu, L):
            G, Gp = evaluate(pulse, mu, L)
            G[..., 1] = G[..., 0]
            return G, Gp

        monkeypatch.setattr(estimator, "_shaping_and_slope", repeated_column)
        calls = record_solves(monkeypatch)
        with pytest.raises(IllConditionedError) as exc:
            joint_estimate(hF, pulse, 15)
        assert exc.value.condition_estimate == np.inf
        assert [name for name, *_ in calls] == ["lstsq"]

    def test_matches_reference_polish(self):
        # 240 noisy inputs at 0, 10, 25 and 40 dB: real arithmetic, the Hermite
        # start and the reused last solve move the estimate by less than the
        # polish tolerance
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(19)
        L = 15
        D = 2 * pulse.M + L - 1
        for n in range(240):
            sigma = np.sqrt(10 ** (-(0, 10, 25, 40)[n % 4] / 10) / 2)
            hF = build_shaping_matrix(pulse, rng.uniform(0.0, 0.5), L) @ random_taps(rng, L)
            hF = hF + sigma * (rng.standard_normal(D) + 1j * rng.standard_normal(D))
            mu, h, steps, converged = reference_estimate(hF, pulse, L)
            rep = joint_estimate(hF, pulse, L)
            assert abs(rep.mu_hat - mu) < 1e-9
            assert np.linalg.norm(rep.h_hat - h) <= 1e-9 * np.linalg.norm(h)
            assert rep.converged == converged
            assert rep.iterations <= steps

    @pytest.mark.parametrize("t", [118, 144])
    def test_scan_finds_the_global_basin(self, t):
        # link (tx 2, rx 1) of paper-sec5-fractional, trials 118 and 144: a 33-point
        # scan settles in a local minimum 25% and 6% above the global one
        from dataclasses import replace

        cfg = preset("paper-sec5-fractional")
        L, pulse = cfg.total_length, build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
        waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
        matrices = sounding(waveforms, L, pulse.M)
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        sc = replace(sc, mu=cfg.per_link(draw_fractional_offsets(cfg, derive_rng(cfg.seed, 2, t))))
        r = awgn(receive_fractional(sc, matrices, pulse), sc.sigma2, derive_rng(cfg.seed, 1, t))
        hF = matched_filter_fractional(matrices[2], r[1])
        rep = joint_estimate(hF, pulse, L)
        grid = np.linspace(0.0, 0.5, 4001)  # brute-force profile, relative like rep.residual
        G = build_shaping_matrix(pulse, grid, L)
        profile = np.sum(np.abs(hF - G @ np.linalg.pinv(G) @ hF) ** 2, axis=1)
        profile /= np.sum(np.abs(hF) ** 2)
        # the polish may land between grid points, below the grid's minimum
        assert rep.residual <= profile.min() * (1 + 1e-6)
        assert abs(rep.mu_hat - grid[np.argmin(profile)]) <= grid[1]

    def test_solve_h_rejects_rank_deficient_matrix(self):
        from chirpsounder import IllConditionedError
        from chirpsounder.estimator import _solve_h

        rng = np.random.default_rng(21)
        G = rng.standard_normal((22, 15)) + 1j * rng.standard_normal((22, 15))
        G[:, 3] = G[:, 7]
        with pytest.raises(IllConditionedError) as exc:
            _solve_h(G, G @ random_taps(rng, 15))
        assert exc.value.condition_estimate == np.inf

    def test_solve_h_rejects_condition_above_limit(self):
        from chirpsounder import IllConditionedError
        from chirpsounder.estimator import _solve_h

        G = np.zeros((4, 2), dtype=complex)
        G[0, 0], G[1, 1] = 1.0, 1e-13  # kappa(G) = 1e13 > 1e12
        with pytest.raises(IllConditionedError) as exc:
            _solve_h(G, np.ones(4, dtype=complex))
        assert exc.value.condition_estimate == pytest.approx(1e26)
        G[1, 1] = 1e-11  # kappa(G) = 1e11 passes
        assert np.allclose(_solve_h(G, G @ np.array([1.0, 2.0])), [1.0, 2.0])

    def test_ill_conditioned_shaping_matrix_raises(self, monkeypatch, fresh_caches):
        from chirpsounder import IllConditionedError, estimator

        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(20)
        hF = build_shaping_matrix(pulse, 0.3, 15) @ random_taps(rng, 15)
        evaluate = estimator._shaping_and_slope  # the scan, built afresh, sees the patch too

        def repeated_column(pulse, mu, L):
            G, Gp = evaluate(pulse, mu, L)
            G[..., 1] = G[..., 0]
            return G, Gp

        monkeypatch.setattr(estimator, "_shaping_and_slope", repeated_column)
        with pytest.raises(IllConditionedError) as exc:
            joint_estimate(hF, pulse, 15)
        assert exc.value.condition_estimate == np.inf

    @given(
        # 1/3 puts a lag on the removable singularity at rolloff 0.3; 5e-324 is the
        # least offset above 0
        mu=st.one_of(st.sampled_from([0.0, 0.5, 1 / 3, 5e-324]), st.floats(0.0, 0.5)),
        rolloff=st.sampled_from([0.25, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(-600, 600),
    )
    @example(mu=1 / 3, rolloff=0.3, seed=0, k=0)
    @example(mu=5e-324, rolloff=0.25, seed=1, k=0)
    @example(mu=0.5, rolloff=1.0, seed=2, k=0)
    def test_noiseless_recovery_property(self, mu, rolloff, seed, k):
        from chirpsounder.estimator import _POLISH_STEPS

        pulse = build_pulse(rolloff=rolloff, M=4)
        L = 8
        taps = random_taps(np.random.default_rng(seed), L)
        hF = build_shaping_matrix(pulse, mu, L) @ (taps * 2.0**k)
        rep = joint_estimate(hF, pulse, L)
        assert rep.converged and rep.iterations < _POLISH_STEPS
        assert abs(rep.mu_hat - mu) < 1e-6
        # compared at unit scale: the norms of 2^k-scaled taps under/overflow
        h_hat = rep.h_hat / 2.0**k
        assert np.linalg.norm(h_hat - taps) / np.linalg.norm(taps) < 1e-6

    def test_non_integer_span_rejected_before_the_caches(self, fresh_caches):
        # 15.0 == 15 as a cache key: a float L that reached the shaping layout
        # would cache a float gather for every later call with L = 15.  A bool
        # is no count either; numpy integers are counts
        from chirpsounder import run_mse_experiment

        cfg = preset("paper-sec5-fractional")
        pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
        rng = np.random.default_rng(25)
        hF = rng.standard_normal(22) + 1j * rng.standard_normal(22)
        w = generate_chirp(1, 128)
        for call in (
            lambda: joint_estimate(hF, pulse, 15.0),
            lambda: build_shaping_matrix(pulse, 0.2, 15.0),
            lambda: build_sounding_matrix(w, 15.0),
            lambda: build_sounding_matrix(w, 15, 4.0),
            lambda: build_sounding_matrix(w, True),
            lambda: build_sounding_matrix(w, 15, True),
            lambda: joint_estimate(hF[:2], pulse, True),
        ):
            with pytest.raises(DimensionMismatchError, match="need integers"):
                call()
        assert joint_estimate(hF, pulse, 15).h_hat.shape == (15,)
        assert build_sounding_matrix(w, np.int64(15), np.int32(4)).entries.shape == (22, 128)
        assert len(run_mse_experiment(cfg.replace(trials=2)).links) == 9

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
                Y = hF.view(np.float64).reshape(-1, 2)  # real and imaginary columns
                slope, h, r = _profile_derivative(pulse, rep.mu_hat, L, Y)
                assert abs(slope) < 1e-6
                np.testing.assert_allclose(h[:, 0] + 1j * h[:, 1], rep.h_hat, rtol=1e-9)
                G = build_shaping_matrix(pulse, rep.mu_hat, L)
                np.testing.assert_allclose(r, Y - G @ h, rtol=0, atol=1e-12)

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
        r = receive_integer(single_link_scenario(taps), sounding([w], 12))
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
        r = receive_fractional(
            single_link_scenario(taps, mu=mu), sounding([w], 10, M), pulse
        )
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
        sc = single_link_scenario(taps)
        r0 = receive_integer(sc, sounding([w], 12))
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
