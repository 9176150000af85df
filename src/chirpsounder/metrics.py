"""Estimation error metrics, the estimator variance bound, and capacity.

The variance bound for estimating an L-tap complex channel from one sounding
period in circular complex Gaussian noise of variance 2*sigma^2 per sample is
2*L*sigma^2 (total over all taps); matched filtering with a constraint-
satisfying waveform attains it under integer offsets.

Capacities are equal-power spectral efficiencies over the normalized signal
band B = 1/T = 1, discretized as the average of log2 det(I + (rho/Nt) H^H H)
over K uniform frequency bins.  The asynchronous response of a link differs
from its aligned (synchronous) response only by the unimodular phase factor
exp(-j*2*pi*f*zeta), so one-sided clock sharing leaves the capacity integrand
untouched bin by bin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

EQUALITY_GAP = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """K evaluation frequencies f_k = k/K spanning the normalized band."""

    K: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"need at least one frequency bin, got {self.K}")

    @property
    def frequencies(self):
        return np.arange(self.K) / self.K


@dataclass(frozen=True)
class CapacityResult:
    """Synchronous / asynchronous capacity pair and their largest per-bin gap."""

    c_syn: float
    c_asyn: float
    max_bin_gap: float
    equal: bool


def mse(h_true, h_hat_trials):
    """Mean squared error E||h - h_hat||^2 over estimation trials."""
    h_true = np.asarray(h_true)
    trials = np.asarray(h_hat_trials)
    if trials.ndim == 1:
        trials = trials[None, :]
    if trials.shape[0] < 1 or trials.shape[1] != h_true.shape[0]:
        raise DimensionMismatchError(
            f"trials of shape {trials.shape} do not match channel length {h_true.shape}"
        )
    return float(np.mean(np.sum(np.abs(trials - h_true[None, :]) ** 2, axis=1)))


def crb(L, sigma2):
    """Estimator variance bound 2*L*sigma^2 for an L-tap complex channel."""
    if L < 1:
        raise ValueError(f"channel length must be >= 1, got {L}")
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    return 2.0 * L * float(sigma2)


def frequency_response(link, grid, mode="sync"):
    """Per-bin response of one link, aligned ("sync") or offset-bearing ("async").

    The synchronous response is the DFT of the delay-stripped taps; the
    asynchronous one multiplies it by exp(-j*2*pi*f*zeta) with zeta = d + mu
    sampling intervals, which for integer-only offsets coincides with the DFT
    of the taps left in place.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
    if grid.K < link.L:
        raise DimensionMismatchError(
            f"grid with {grid.K} bins cannot resolve {link.L} taps"
        )
    stripped = np.zeros(grid.K, dtype=complex)
    stripped[: link.active] = link.taps[link.d : link.d + link.active]
    base = np.fft.fft(stripped)
    if mode == "sync":
        return base
    return base * np.exp(-2j * np.pi * grid.frequencies * link.zeta)


def capacity(H_grid, rho):
    """Equal-power capacity in bits/s/Hz from per-bin Nr x Nt channel matrices.

    ``H_grid`` has shape (K, Nr, Nt); the band integral (1/B) int log2 det(...)
    is approximated by the bin average.
    """
    H = np.asarray(H_grid, dtype=complex)
    if H.ndim != 3:
        raise DimensionMismatchError(f"expected (K, Nr, Nt) matrices, got {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel matrices contain non-finite entries")
    if rho < 0:
        raise ValueError(f"SNR must be >= 0, got {rho}")
    return float(np.mean(_capacity_integrand(H, rho)))


def _capacity_integrand(H, rho):
    nt = H.shape[2]
    gram = np.einsum("kji,kjl->kil", H.conj(), H)
    eye = np.eye(nt)
    _, logdet = np.linalg.slogdet(eye[None, :, :] + (rho / nt) * gram)
    return logdet / np.log(2.0)


def capacity_equivalence_report(scenario, grid, rho):
    """Compare synchronous and asynchronous capacity on the same channel draw.

    ``equal`` holds when the per-bin integrands agree to within 1e-9, which
    is the case whenever one side of the system shares a single local
    oscillator (the per-bin phase matrix is then unitary diagonal).
    """
    K = grid.K
    Hs = np.empty((K, scenario.nr, scenario.nt), dtype=complex)
    Ha = np.empty((K, scenario.nr, scenario.nt), dtype=complex)
    for i in range(scenario.nt):
        for m in range(scenario.nr):
            link = scenario.link(i, m)
            Hs[:, m, i] = frequency_response(link, grid, "sync")
            Ha[:, m, i] = frequency_response(link, grid, "async")
    gs = _capacity_integrand(Hs, rho)
    ga = _capacity_integrand(Ha, rho)
    max_gap = float(np.max(np.abs(gs - ga)))
    return CapacityResult(
        c_syn=float(gs.mean()),
        c_asyn=float(ga.mean()),
        max_bin_gap=max_gap,
        equal=bool(max_gap < EQUALITY_GAP),
    )
