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
    periodic_autocorrelation,
    periodic_crosscorrelation,
)


def brute_autocorrelation(s, tau):
    """Literal two-part periodic sum, independent of the library's cyclic form."""
    N = len(s)
    tau = tau % N
    head = sum(s[n] * np.conj(s[n + tau]) for n in range(N - tau))
    tail = sum(s[n] * np.conj(s[n + tau - N]) for n in range(N - tau, N))
    return head + tail


def brute_crosscorrelation(si, sv, tau):
    N = len(si)
    tau = tau % N
    head = sum(si[n] * np.conj(sv[n + tau]) for n in range(N - tau))
    tail = sum(si[n] * np.conj(sv[n + tau - N]) for n in range(N - tau, N))
    return head + tail


class TestGenerateChirp:
    def test_first_sample_small_case(self):
        # (p=1, N=4): s[0] = (1/2) exp(j*2*pi*(1/4)*2) = -1/2
        w = generate_chirp(1, 4)
        assert w.samples[0] == pytest.approx(-0.5)

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
            assert periodic_autocorrelation(w, 0) == pytest.approx(1.0, abs=1e-12)

    def test_half_period_peak_is_minus_one(self):
        w = generate_chirp(1, 128)
        assert periodic_autocorrelation(w, 64) == pytest.approx(-1.0, abs=1e-12)

    def test_off_comb_lag_is_zero(self):
        w = generate_chirp(2, 128)
        value = periodic_autocorrelation(w, 17)
        assert abs(value) < 1e-12
        assert abs(brute_autocorrelation(w.samples, 17)) < 1e-12
        assert closed_form_autocorrelation(2, 128, 17) == 0

    @pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512])
    def test_matches_closed_form_everywhere(self, N):
        # every valid rate for this period, every lag
        p = 1
        while N > 2 * p:
            w = generate_chirp(p, N)
            for tau in range(N):
                predicted = closed_form_autocorrelation(p, N, tau)
                assert abs(periodic_autocorrelation(w, tau) - predicted) < 1e-10
            p *= 2

    def test_brute_force_agrees_with_cyclic_sum(self):
        w = generate_chirp(2, 64)
        for tau in range(64):
            assert periodic_autocorrelation(w, tau) == pytest.approx(
                brute_autocorrelation(w.samples, tau), abs=1e-12
            )

    def test_lag_reduces_mod_period(self):
        w = generate_chirp(2, 128)
        for tau in (-5, 3, 77):
            assert periodic_autocorrelation(w, tau) == pytest.approx(
                periodic_autocorrelation(w, tau + 128), abs=1e-14
            )

    def test_hermitian_symmetry(self):
        w = generate_chirp(4, 128)
        for tau in range(0, 128, 7):
            assert periodic_autocorrelation(w, tau) == pytest.approx(
                np.conj(periodic_autocorrelation(w, -tau)), abs=1e-13
            )


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
        assert abs(periodic_crosscorrelation(w1, w2, 0)) < 1e-12

    def test_zero_at_every_lag_with_brute_force(self):
        w1, w4 = generate_chirp(1, 128), generate_chirp(4, 128)
        for tau in range(128):
            assert abs(periodic_crosscorrelation(w1, w4, tau)) < 1e-12
            assert abs(brute_crosscorrelation(w1.samples, w4.samples, tau)) < 1e-12

    @pytest.mark.parametrize("pa,pb", [(1, 2), (1, 4), (1, 8), (2, 4), (2, 8), (4, 8)])
    @pytest.mark.parametrize("N", [64, 128])
    def test_all_pairs_vanish(self, pa, pb, N):
        if N <= 2 * max(pa, pb):
            pytest.skip("period too short for this pair")
        wa, wb = generate_chirp(pa, N), generate_chirp(pb, N)
        worst = max(abs(periodic_crosscorrelation(wa, wb, tau)) for tau in range(N))
        assert worst < 1e-10

    def test_same_rate_rejected(self):
        w = generate_chirp(2, 128)
        with pytest.raises(ConstraintViolationError):
            periodic_crosscorrelation(w, w, 0)

    def test_period_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            periodic_crosscorrelation(generate_chirp(1, 64), generate_chirp(2, 128), 0)


class TestCyclicCorrelation:
    @pytest.mark.parametrize("N", [64, 128, 1024])
    def test_matches_per_lag_reference(self, N):
        waveforms = [generate_chirp(p, N) for p in (1, 2, 4)]
        worst = 0.0
        for wa in waveforms:
            for wb in waveforms:
                c = cyclic_correlation(wa.samples, wb.samples)
                swapped = np.conj(cyclic_correlation(wb.samples, wa.samples))
                for tau in range(N):
                    ref = (
                        periodic_autocorrelation(wa, tau)
                        if wa is wb
                        else periodic_crosscorrelation(wa, wb, tau)
                    )
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
        for pmax, L, M in ((0, 10, 0), (1, 0, 0), (1, 10, -1)):
            with pytest.raises(ConstraintViolationError):
                check_design_constraints(pmax, 128, L, M)
