"""Waveform family: generation, correlation identities, PAPR, constraints."""

import numpy as np
import pytest

from chirpsounder import (
    ConstraintViolationError,
    DimensionMismatchError,
    UndefinedResultError,
    check_design_constraints,
    closed_form_autocorrelation,
    cyclic_correlation,
    generate_chirp,
    papr,
)


def brute_correlation(si, sv, tau):
    """Literal two-part periodic sum sum_n si[n] * conj(sv[(n+tau) mod N]).

    Written as defined, with two slices and no cyclic roll, so it does not
    share the library's FFT form.
    """
    N = len(si)
    tau = tau % N
    head = np.sum(si[: N - tau] * np.conj(sv[tau:]))
    tail = np.sum(si[N - tau :] * np.conj(sv[:tau]))
    return head + tail


def periodic_correlation(wa, wb):
    """Periodic correlation of two waveforms at lags 0..N-1: c[-tau mod N]."""
    c = cyclic_correlation(wa.samples, wb.samples)
    return c[-np.arange(wa.N) % wa.N]


class TestGenerateChirp:
    def test_first_sample_small_case(self):
        # (p=1, N=4): s[0] = (1/2) exp(j*2*pi*(1/4)*2) = -1/2
        w = generate_chirp(1, 4)
        assert w.samples[0] == pytest.approx(-0.5)

    def test_repeat_call_shares_one_read_only_waveform(self):
        w = generate_chirp(2, 64)
        assert generate_chirp(2, 64) is w and generate_chirp(np.int64(2), np.int64(64)) is w
        assert type(w.p) is int and type(w.N) is int
        with pytest.raises(ValueError):
            w.samples[0] = 0.0

    def test_large_chirp_is_built_per_call(self):
        # N above 2^16 samples is not kept between calls
        w = generate_chirp(2, 2**17)
        v = generate_chirp(2, 2**17)
        assert v is not w and v.samples.tobytes() == w.samples.tobytes()
        assert not v.samples.flags.writeable

    def test_unit_magnitude_and_energy(self):
        w = generate_chirp(1, 128)
        assert w.N == 128 and len(w.samples) == 128
        np.testing.assert_allclose(np.abs(w.samples), 1 / np.sqrt(128), atol=1e-15)
        assert np.sum(np.abs(w.samples) ** 2) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "p,N",
        [(3, 128), (1, 100), (4, 8), (2, 4), (0, 128), (-1, 64)],
    )
    def test_rejects_invalid_parameters(self, p, N):
        with pytest.raises(ConstraintViolationError):
            generate_chirp(p, N)

    def test_samples_read_only(self):
        w = generate_chirp(2, 64)
        with pytest.raises(ValueError):
            w.samples[0] = 0


class TestAutocorrelation:
    def test_zero_lag_is_unit_energy(self):
        for p in (1, 2, 4):
            w = generate_chirp(p, 128)
            assert periodic_correlation(w, w)[0] == pytest.approx(1.0, abs=1e-12)

    def test_half_period_peak_is_minus_one(self):
        w = generate_chirp(1, 128)
        assert periodic_correlation(w, w)[64] == pytest.approx(-1.0, abs=1e-12)

    def test_off_comb_lag_is_zero(self):
        w = generate_chirp(2, 128)
        value = periodic_correlation(w, w)[17]
        assert abs(value) < 1e-12
        assert abs(brute_correlation(w.samples, w.samples, 17)) < 1e-12
        assert closed_form_autocorrelation(2, 128, 17) == 0

    @pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512])
    def test_matches_closed_form_everywhere(self, N):
        # every valid rate for this period, every lag
        p = 1
        while N > 2 * p:
            w = generate_chirp(p, N)
            R = periodic_correlation(w, w)
            for tau in range(N):
                predicted = closed_form_autocorrelation(p, N, tau)
                assert abs(R[tau] - predicted) < 1e-10
            p *= 2

    def test_brute_force_agrees_with_cyclic_sum(self):
        w = generate_chirp(2, 64)
        R = periodic_correlation(w, w)
        for tau in range(64):
            assert R[tau] == pytest.approx(
                brute_correlation(w.samples, w.samples, tau), abs=1e-12
            )

    def test_lag_reduces_mod_period(self):
        # c[-tau mod N] holds for any integer lag, negative ones included
        w = generate_chirp(2, 128)
        c = cyclic_correlation(w.samples, w.samples)
        for tau in (-5, 3, 77):
            assert c[-tau % 128] == pytest.approx(
                brute_correlation(w.samples, w.samples, tau + 128), abs=1e-14
            )

    def test_hermitian_symmetry(self):
        w = generate_chirp(4, 128)
        c = cyclic_correlation(w.samples, w.samples)
        for tau in range(0, 128, 7):
            assert c[-tau % 128] == pytest.approx(np.conj(c[tau % 128]), abs=1e-13)


class TestClosedForm:
    def test_plus_one_at_multiples_of_N_over_p(self):
        assert closed_form_autocorrelation(2, 128, 64) == 1
    def test_minus_one_at_odd_multiples_of_half_comb(self):
        assert closed_form_autocorrelation(2, 128, 32) == -1
    def test_zero_elsewhere(self):
        assert closed_form_autocorrelation(2, 128, 1) == 0
    def test_rejects_invalid_pair(self):
        with pytest.raises(ConstraintViolationError):
            closed_form_autocorrelation(3, 128, 0)


class TestCrosscorrelation:
    def test_zero_at_zero_lag(self):
        w1, w2 = generate_chirp(1, 128), generate_chirp(2, 128)
        assert abs(periodic_correlation(w1, w2)[0]) < 1e-12

    def test_zero_at_every_lag_with_brute_force(self):
        w1, w4 = generate_chirp(1, 128), generate_chirp(4, 128)
        C = periodic_correlation(w1, w4)
        for tau in range(128):
            assert abs(C[tau]) < 1e-12
            assert abs(brute_correlation(w1.samples, w4.samples, tau)) < 1e-12

    @pytest.mark.parametrize("pa,pb", [(1, 2), (1, 4), (1, 8), (2, 4), (2, 8), (4, 8)])
    @pytest.mark.parametrize("N", [64, 128])
    def test_all_pairs_vanish(self, pa, pb, N):
        if N <= 2 * max(pa, pb):
            pytest.skip("period too short for this pair")
        wa, wb = generate_chirp(pa, N), generate_chirp(pb, N)
        worst = np.max(np.abs(periodic_correlation(wa, wb)))
        assert worst < 1e-10


class TestCyclicCorrelation:
    @pytest.mark.parametrize("N", [64, 128, 1024])
    def test_matches_per_lag_reference(self, N):
        samples = [generate_chirp(p, N).samples for p in (1, 2, 4)]
        pairs = [(a, b) for a in range(3) for b in range(3)]
        corr = {(a, b): cyclic_correlation(samples[a], samples[b]) for a, b in pairs}
        worst = 0.0
        for a, b in pairs:
            c, swapped = corr[a, b], np.conj(corr[b, a])
            for tau in range(N):
                ref = brute_correlation(samples[a], samples[b], tau)
                worst = max(worst, abs(c[-tau % N] - ref), abs(swapped[tau] - ref))
        assert worst < 1e-12

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cyclic_correlation(np.ones(8), np.ones(4))


class TestPapr:
    def test_chirps_are_flat(self):
        for p, N in [(1, 128), (2, 128), (4, 128), (8, 256)]:
            assert abs(papr(generate_chirp(p, N).samples) - 1.0) < 1e-12

    def test_single_pulse(self):
        assert papr([1, 0, 0, 0]) == pytest.approx(4.0)

    def test_mixed_real_sequence(self):
        assert papr([1, 1, 1, -3]) == pytest.approx(3.0)

    def test_all_zero_rejected(self):
        with pytest.raises(UndefinedResultError):
            papr([0, 0, 0])
        with pytest.raises(UndefinedResultError):
            papr([])


class TestDesignConstraints:
    def test_sec5_scenario_has_slack_8(self):
        report = check_design_constraints(4, 128, 15)
        assert report.passed and report.slack == 8
        assert report.condition == "N > 2*pmax*Lmax: 128 > 2*4*15 = 120"

    def test_boundary_fails(self):
        report = check_design_constraints(4, 128, 16)
        assert not report.passed and report.slack == 0

    def test_fractional_window(self):
        report = check_design_constraints(1, 128, 10, M=4)
        assert report.passed and report.bound == 34 and report.window == 17
        assert report.condition == "N > 2*pmax*(2M + Lmax - 1): 128 > 2*1*(8 + 10 - 1) = 34"

    def test_scenario_kind_validation(self):
        # M = 0 is the integer-offset window, not an error
        assert check_design_constraints(1, 128, 10, M=0).window == 10
        # numpy integers are counts, so check_design_constraints takes them
        assert check_design_constraints(np.int64(4), np.int64(128), np.int64(15)).slack == 8
        # a count below its minimum, or one that is not an integer (a bool is not one)
        for pmax, N, L, M in ((0, 128, 10, 0), (1, 128, 0, 0), (1, 128, 10, -1),
                              (2.5, 128, 15, 0), (1, 128.0, 10, 0), (1, 128, 10.0, 0),
                              (1, 128, 10, 0.0), (True, 128, 10, 0), (1, 128, True, 0),
                              (1, 128, 10, True), (1, np.True_, 10, 0)):
            with pytest.raises(ConstraintViolationError):
                check_design_constraints(pmax, N, L, M)
