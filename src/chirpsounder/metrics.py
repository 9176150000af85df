"""The estimator variance bound and the capacity equivalence report.

The variance bound for estimating an L-tap complex channel from one sounding
period in circular complex Gaussian noise of variance 2*sigma^2 per sample is
2*L*sigma^2 (total over all taps); matched filtering with a constraint-
satisfying waveform attains it under integer offsets.

Capacities are equal-power spectral efficiencies over the normalized signal
band B = 1/T = 1, discretized as the average of log2 det(I + (rho/Nt) H^H H)
over K uniform frequency bins f_k = k/K.  The asynchronous response of a link
differs from its aligned (synchronous) response only by the unimodular phase
factor exp(-j*2*pi*f*zeta), so one-sided clock sharing leaves the capacity
integrand untouched bin by bin.  ``capacity_equivalence_report``, the one
capacity path, builds both responses once per channel draw.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

EQUALITY_GAP = 1e-9


@dataclass(frozen=True)
class CapacityResult:
    """Synchronous / asynchronous capacity pair at one SNR and their largest per-bin gap."""

    rho_db: float
    c_syn: float
    c_asyn: float
    max_bin_gap: float
    equal: bool


def crb(L, sigma2):
    """Estimator variance bound 2*L*sigma^2 for an L-tap complex channel."""
    if L < 1:
        raise ValueError(f"channel length must be >= 1, got {L}")
    if sigma2 < 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    return 2.0 * L * float(sigma2)


def frequency_response(link, K):
    """Synchronous response of one link on K bins: the DFT of its delay-stripped taps."""
    if K < link.L:
        raise DimensionMismatchError(
            f"grid with {K} bins cannot resolve {link.L} taps"
        )
    stripped = np.zeros(K, dtype=complex)
    stripped[: link.active] = link.taps[link.d : link.d + link.active]
    return np.fft.fft(stripped)


def _capacity_integrand(H, rho):
    """Per-bin log2 det(I + (rho/Nt) H^H H) of (K, Nr, Nt) channel matrices."""
    nt = H.shape[2]
    gram = np.einsum("kji,kjl->kil", H.conj(), H)
    eye = np.eye(nt)
    _, logdet = np.linalg.slogdet(eye[None, :, :] + (rho / nt) * gram)
    return logdet / np.log(2.0)


def capacity_equivalence_report(scenario, K, rho_db):
    """Synchronous and asynchronous capacity of one channel draw, one row per SNR.

    The asynchronous response multiplies the synchronous one by
    exp(-j*2*pi*f*zeta) with zeta = d + mu sampling intervals, which for
    integer-only offsets is the DFT of the taps left in place.  ``rho_db``
    lists the SNRs in dB; -inf dB is rho = 0.  ``equal`` holds when the
    per-bin integrands agree to within 1e-9, which is the case whenever one
    side of the system shares a single local oscillator (the per-bin phase
    matrix is then unitary diagonal).
    """
    f = np.arange(K) / K
    Hs = np.empty((K, scenario.nr, scenario.nt), dtype=complex)
    Ha = np.empty((K, scenario.nr, scenario.nt), dtype=complex)
    for i in range(scenario.nt):
        for m in range(scenario.nr):
            link = scenario.link(i, m)
            Hs[:, m, i] = frequency_response(link, K)
            Ha[:, m, i] = Hs[:, m, i] * np.exp(-2j * np.pi * f * link.zeta)
    rows = []
    for db in rho_db:
        rho = 0.0 if db == -np.inf else 10.0 ** (db / 10.0)
        gs = _capacity_integrand(Hs, rho)
        ga = _capacity_integrand(Ha, rho)
        max_gap = float(np.max(np.abs(gs - ga)))
        rows.append(
            CapacityResult(
                rho_db=float(db),
                c_syn=float(gs.mean()),
                c_asyn=float(ga.mean()),
                max_bin_gap=max_gap,
                equal=bool(max_gap < EQUALITY_GAP),
            )
        )
    return tuple(rows)
