"""Variance bound, frequency responses, and the capacity equivalence report."""

import numpy as np
import pytest

from chirpsounder import (
    DimensionMismatchError,
    build_pulse,
    build_shaping_matrix,
    capacity_equivalence_report,
    crb,
    derive_rng,
    frequency_response,
    noise_variance_for_snr,
    preset,
    synthesize_channels,
)
from chirpsounder.channel import MimoScenario
from chirpsounder.metrics import _capacity_integrand


def capacity(H, rho):
    """Band-average capacity of (K, Nr, Nt) matrices, as the report computes it."""
    return _capacity_integrand(H, rho).mean()


def link_response(taps, d, K):
    """One link's synchronous response by its own zero-padded DFT of taps[d:]."""
    stripped = np.zeros(K, dtype=complex)
    stripped[: len(taps) - d] = taps[d:]
    return np.fft.fft(stripped)


class TestCrb:
    def test_arithmetic(self):
        assert crb(10, 0.5) == pytest.approx(10.0)

    def test_snr_convention(self):
        # unit receive power at 25 dB: 2*sigma^2 = 10^-2.5
        sigma2 = noise_variance_for_snr(1.0, 25.0)
        assert crb(15, sigma2) == pytest.approx(15 * 10 ** -2.5)
        assert crb(15, sigma2) == pytest.approx(0.04743, abs=1e-5)

    def test_zero_noise(self):
        assert crb(1, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            crb(0, 0.1)
        with pytest.raises(ValueError):
            crb(3, -1.0)
        with pytest.raises(ValueError):
            crb(15, np.nan)


class TestFrequencyResponse:
    def test_flat_channel(self):
        taps = np.r_[1.0, np.zeros(9)].astype(complex)
        np.testing.assert_allclose(frequency_response(taps, 0, 64), 1.0)

    def test_async_has_same_magnitude(self):
        # stripping the delay changes only the phase of the response
        rng = np.random.default_rng(1)
        taps = np.r_[0, 0, 0, (rng.standard_normal(5) + 1j * rng.standard_normal(5))]
        padded = np.zeros(128, dtype=complex)
        padded[: len(taps)] = taps
        sync = frequency_response(taps, 3, 128)
        np.testing.assert_allclose(np.abs(np.fft.fft(padded)), np.abs(sync), atol=1e-12)

    def test_pure_delay_phase_ramp(self):
        taps = np.r_[np.zeros(5), 1.0].astype(complex)
        sync = frequency_response(taps, 5, 64)
        expected = np.exp(-2j * np.pi * np.arange(64) / 64 * 5)
        # integer-only offsets: the DFT of the taps left in place is the
        # synchronous response times the delay's phase ramp
        padded = np.zeros(64, dtype=complex)
        padded[: len(taps)] = taps
        np.testing.assert_allclose(np.fft.fft(padded) / sync, expected, atol=1e-12)

    def test_grid_must_resolve_taps(self):
        with pytest.raises(DimensionMismatchError):
            frequency_response(np.ones(10, dtype=complex), 0, 8)
        with pytest.raises(DimensionMismatchError):
            frequency_response(np.ones((2, 3, 10), dtype=complex), np.zeros((2, 3), int), 8)

    @pytest.mark.parametrize("d", [-1, 11, 2.0, 0.5, [[0, 1], [3, -1]], [[0, 1], [3, 11]]])
    def test_offset_outside_taps_or_not_integer_rejected(self, d):
        # d = -1 would read the DFT of [0, h0, h1, ...]; d > L and floats are no tap index
        taps = np.ones(np.shape(d) + (10,), dtype=complex)
        with pytest.raises(DimensionMismatchError):
            frequency_response(taps, d, 16)

    def test_stacked_links_match_per_link_loop(self):
        # nt != nr, every offset from 0 to L, and a link with d = L (no active taps);
        # taps below d are nonzero on purpose: stripping drops them
        rng = np.random.default_rng(11)
        nt, nr, L, K = 2, 3, 6, 16
        taps = rng.standard_normal((nt, nr, L)) + 1j * rng.standard_normal((nt, nr, L))
        d = np.array([[0, 1, 2], [3, 5, L]])
        taps[1, 2] = 0.0
        stacked = frequency_response(taps, d, K)
        assert stacked.shape == (nt, nr, K) and not stacked[1, 2].any()
        for (i, m), di in np.ndenumerate(d):
            expected = link_response(taps[i, m], di, K)
            assert stacked[i, m].tobytes() == expected.tobytes()
            assert frequency_response(taps[i, m], di, K).tobytes() == expected.tobytes()


class TestCapacity:
    def test_scalar_awgn(self):
        H = np.ones((4, 1, 1), dtype=complex)
        assert capacity(H, 3.0) == pytest.approx(2.0)

    def test_zero_snr(self):
        H = np.ones((4, 2, 2), dtype=complex)
        assert capacity(H, 0.0) == 0.0

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(2)
        K, n = 64, 3
        H = (rng.standard_normal((K, n, n)) + 1j * rng.standard_normal((K, n, n)))
        rho = 7.0
        expected = 0.0
        for k in range(K):
            lam = np.linalg.eigvalsh(H[k].conj().T @ H[k])
            expected += np.sum(np.log2(1 + rho * lam / n))
        expected /= K
        assert capacity(H, rho) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((16, 2, 3)) + 1j * rng.standard_normal((16, 2, 3))
        values = [capacity(H, rho) for rho in (0.0, 0.5, 1.0, 4.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_phase_rotation_invariance(self):
        # common unit-modulus phase on all links into one rx antenna
        rng = np.random.default_rng(4)
        H = rng.standard_normal((32, 3, 2)) + 1j * rng.standard_normal((32, 3, 2))
        rotated = H.copy()
        rotated[:, 1, :] *= np.exp(1j * 0.7)
        assert capacity(rotated, 5.0) == pytest.approx(capacity(H, 5.0), abs=1e-12)


class TestSampledChannel:
    """The channel that reception simulates, G(mu) h, against the report's ideal delay.

    The report models an offset as exp(-j 2 pi f (d + mu)), of gain 1 at every f.  The
    sampled pulse shifted by mu has, at the band edge f = 1/2, the gain
    |sum_k (-1)^k g(k + mu)|: the two aliases of the raised cosine, each 1/2 there, add
    to cos(pi mu) up to the truncation at |t| <= M.
    """

    @staticmethod
    def band_edge_gain(M, mu):
        G = build_shaping_matrix(build_pulse(rolloff=0.25, M=M), mu, 1)
        return np.abs(G[..., 0] @ (-1.0) ** np.arange(G.shape[-2]))

    @pytest.mark.parametrize("M, gap", [(4, 8.42e-3), (16, 1.04e-4), (64, 1.61e-6)])
    def test_band_edge_gain_is_cos_pi_mu(self, M, gap):
        mu = np.array([0.15, 0.3, 0.45])
        worst = np.max(np.abs(self.band_edge_gain(M, mu) - np.cos(np.pi * mu)))
        assert worst == pytest.approx(gap, rel=0.01)  # the truncation error, pinned

    @pytest.mark.parametrize("M", [4, 16, 64])
    def test_band_edge_gain_at_the_offset_range_ends(self, M):
        G = build_shaping_matrix(build_pulse(rolloff=0.25, M=M), 0.0, 1)
        assert G[M, 0] == 1.0  # g(0); the other support lags hold sinc rounding only
        assert np.max(np.abs(np.delete(G[:, 0], M))) < 1e-16
        assert self.band_edge_gain(M, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert self.band_edge_gain(M, 0.5) < 1e-15  # g(k + 1/2) pairs cancel


class TestEquivalenceReport:
    def links_with_zeta(self, rng, zetas, La=3, L=11):
        """Scenario whose link (i, m) is La unit-energy taps at offset zetas[i][m]."""
        zetas = np.asarray(zetas)
        d = zetas.astype(int)
        taps = np.zeros(zetas.shape + (L,), dtype=complex)
        for (i, m), di in np.ndenumerate(d):
            block = rng.standard_normal(La) + 1j * rng.standard_normal(La)
            taps[i, m, di : di + La] = block / np.linalg.norm(block)
        return MimoScenario(taps=taps, d=d, mu=zetas - d, sigma2=np.zeros(zetas.shape[1]))

    def test_shared_tx_side_is_equal(self):
        rng = np.random.default_rng(5)
        sc = self.links_with_zeta(rng, [[3.3, 7.15], [3.3, 7.15]])
        (rep,) = capacity_equivalence_report(sc, 256, [10.0])
        assert rep.equal and rep.max_bin_gap < 1e-9
        assert rep.c_syn == pytest.approx(rep.c_asyn, abs=1e-9)

    def test_shared_rx_side_is_equal(self):
        rng = np.random.default_rng(6)
        sc = self.links_with_zeta(rng, [[3.2, 3.2], [7.45, 7.45]])
        (rep,) = capacity_equivalence_report(sc, 256, [10.0])
        assert rep.equal and rep.max_bin_gap < 1e-9

    def test_multi_lo_differs(self):
        rng = np.random.default_rng(7)
        sc = self.links_with_zeta(rng, [[2.1, 5.3], [7.25, 3.45]])
        (rep,) = capacity_equivalence_report(sc, 256, [10.0])
        assert not rep.equal and rep.max_bin_gap > 1e-3

    def test_grid_convergence(self):
        rng = np.random.default_rng(8)
        sc = self.links_with_zeta(rng, [[2.1, 5.3], [7.25, 3.45]], La=8, L=15)
        (c256,) = capacity_equivalence_report(sc, 256, [10.0])
        (c512,) = capacity_equivalence_report(sc, 512, [10.0])
        assert abs(c256.c_asyn - c512.c_asyn) < 1e-6
        assert abs(c256.c_syn - c512.c_syn) < 1e-6

    def test_preset_scenario_round_trip(self):
        cfg = preset("capacity-tx-shared")
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        (rep,) = capacity_equivalence_report(sc, cfg.capacity_bins, [10.0])
        assert rep.equal

    def test_minus_infinity_db_is_zero_snr(self):
        rng = np.random.default_rng(9)
        sc = self.links_with_zeta(rng, [[2.1, 5.3], [7.25, 3.45]])
        (rep,) = capacity_equivalence_report(sc, 256, [-np.inf])
        assert rep.rho_db == -np.inf
        assert rep.c_syn == rep.c_asyn == 0.0
        assert rep.equal

    def test_report_matches_per_link_responses(self):
        # Hs[k, m, i] is link (i, m) at bin k, with nt != nr
        rng = np.random.default_rng(12)
        zetas = np.array([[2.1, 5.3, 0.45], [7.25, 3.45, 4.0]])
        sc = self.links_with_zeta(rng, zetas)
        K, f = 64, np.arange(64) / 64
        Hs = np.empty((K, sc.nr, sc.nt), dtype=complex)
        Ha = np.empty((K, sc.nr, sc.nt), dtype=complex)
        for i, m in np.ndindex(sc.nt, sc.nr):
            Hs[:, m, i] = link_response(sc.taps[i, m], sc.d[i, m], K)
            Ha[:, m, i] = Hs[:, m, i] * np.exp(-2j * np.pi * f * (sc.d[i, m] + sc.mu[i, m]))
        for db, row in zip((0.0, 10.0), capacity_equivalence_report(sc, K, (0.0, 10.0))):
            rho = 10.0 ** (db / 10.0)
            gs, ga = _capacity_integrand(Hs, rho), _capacity_integrand(Ha, rho)
            assert (row.c_syn, row.c_asyn) == (gs.mean(), ga.mean())
            assert row.max_bin_gap == np.max(np.abs(gs - ga))

    def test_sweep_matches_single_snr_reports(self):
        rng = np.random.default_rng(10)
        sc = self.links_with_zeta(rng, [[2.1, 5.3], [7.25, 3.45]])
        sweep = (-np.inf, 0.0, 5.0, 10.0, 20.0)
        rows = capacity_equivalence_report(sc, 256, sweep)
        assert [row.rho_db for row in rows] == list(sweep)
        for db, row in zip(sweep, rows):
            assert (row,) == capacity_equivalence_report(sc, 256, [db])
