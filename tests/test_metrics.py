"""Variance bound, frequency responses, and the capacity equivalence report."""

import numpy as np
import pytest

from chirpsounder import (
    DimensionMismatchError,
    LinkChannel,
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


def make_link(taps, d=0, mu=0.0):
    taps = np.asarray(taps, dtype=complex)
    return LinkChannel(taps=taps, d=d, mu=mu, active=len(taps) - d)


def scenario_from_links(links_grid, L):
    nt = len(links_grid)
    nr = len(links_grid[0])
    return MimoScenario(
        tx_node=tuple(range(nt)),
        rx_node=tuple(range(nr)),
        links=tuple(tuple(row) for row in links_grid),
        sigma2=np.zeros(nr),
        L=L,
    )


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


class TestFrequencyResponse:
    def test_flat_channel(self):
        link = make_link([1] + [0] * 9)
        np.testing.assert_allclose(frequency_response(link, 64), 1.0)

    def test_async_has_same_magnitude(self):
        # stripping the delay changes only the phase of the response
        rng = np.random.default_rng(1)
        taps = np.r_[0, 0, 0, (rng.standard_normal(5) + 1j * rng.standard_normal(5))]
        link = make_link(taps, d=3, mu=0.3)
        padded = np.zeros(128, dtype=complex)
        padded[: link.L] = link.taps
        sync = frequency_response(link, 128)
        np.testing.assert_allclose(np.abs(np.fft.fft(padded)), np.abs(sync), atol=1e-12)

    def test_pure_delay_phase_ramp(self):
        link = make_link(np.r_[np.zeros(5), 1.0], d=5)
        sync = frequency_response(link, 64)
        expected = np.exp(-2j * np.pi * np.arange(64) / 64 * 5)
        # integer-only offsets: the DFT of the taps left in place is the
        # synchronous response times the delay's phase ramp
        padded = np.zeros(64, dtype=complex)
        padded[: link.L] = link.taps
        np.testing.assert_allclose(np.fft.fft(padded) / sync, expected, atol=1e-12)

    def test_grid_must_resolve_taps(self):
        link = make_link(np.ones(10))
        with pytest.raises(DimensionMismatchError):
            frequency_response(link, 8)


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


class TestEquivalenceReport:
    def links_with_zeta(self, rng, zetas, La=3, L=11):
        grid = []
        for row in zetas:
            links = []
            for zeta in row:
                d = int(zeta)
                mu = zeta - d
                taps = np.zeros(L, dtype=complex)
                block = rng.standard_normal(La) + 1j * rng.standard_normal(La)
                taps[d : d + La] = block / np.linalg.norm(block)
                links.append(LinkChannel(taps=taps, d=d, mu=mu, active=La))
            grid.append(links)
        return scenario_from_links(grid, L)

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

    def test_sweep_matches_single_snr_reports(self):
        rng = np.random.default_rng(10)
        sc = self.links_with_zeta(rng, [[2.1, 5.3], [7.25, 3.45]])
        sweep = (-np.inf, 0.0, 5.0, 10.0, 20.0)
        rows = capacity_equivalence_report(sc, 256, sweep)
        assert [row.rho_db for row in rows] == list(sweep)
        for db, row in zip(sweep, rows):
            assert (row,) == capacity_equivalence_report(sc, 256, [db])
