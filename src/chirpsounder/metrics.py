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
capacity path, takes every link's response from one FFT per channel draw.
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
    if not sigma2 >= 0:  # false for NaN too
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    return 2.0 * L * float(sigma2)


def frequency_response(taps, d, K):
    """Synchronous responses on K bins: the DFT of each link's delay-stripped taps[d:].

    ``taps`` (..., L) and integer offsets ``d`` (...) in [0, L] stack links: one FFT
    gives (..., K).
    """
    taps, d = np.asarray(taps, dtype=complex), np.asarray(d)
    L = taps.shape[-1]
    if d.dtype.kind not in "iu" or not np.all((d >= 0) & (d <= L)):
        raise DimensionMismatchError(f"offsets must be integers in [0, {L}], got {d.tolist()}")
    if K < L:
        raise DimensionMismatchError(f"grid with {K} bins cannot resolve {L} taps")
    padded = np.concatenate([taps, np.zeros_like(taps)], axis=-1)  # lags past L read zeros
    return np.fft.fft(np.take_along_axis(padded, np.arange(L) + d[..., None], axis=-1), n=K)


def _capacity_integrand(gram, rho):
    """Per-bin log2 det(I + (rho/Nt) H^H H) of a (K, Nt, Nt) stack of Gram matrices H^H H."""
    nt = gram.shape[2]
    _, logdet = np.linalg.slogdet(np.eye(nt) + (rho / nt) * gram)
    return logdet / np.log(2.0)


def capacity_equivalence_report(scenario, K, rho_db):
    """Synchronous and asynchronous capacity of one channel draw, one row per SNR.

    The asynchronous response multiplies the synchronous one by
    exp(-j*2*pi*f*zeta) with zeta = d + mu sampling intervals, which for
    integer-only offsets is the DFT of the taps left in place.  That is an
    ideal delay, not the sampled-pulse channel G(mu) h that reception
    simulates: for mu > 0 the sampled channel also loses gain near the band
    edge, which this report does not model.  ``rho_db``
    lists the SNRs in dB; -inf dB is rho = 0.  ``equal`` holds when the
    per-bin integrands agree to within 1e-9, which is the case whenever one
    side of the system shares a single local oscillator (the per-bin phase
    matrix is then unitary diagonal).
    """
    sync = frequency_response(scenario.taps, scenario.d, K)  # (nt, nr, K)
    zeta = (scenario.d + scenario.mu)[..., None]
    asyn = sync * np.exp(-2j * np.pi * (np.arange(K) / K) * zeta)
    Hs, Ha = (np.ascontiguousarray(H.transpose(2, 1, 0)) for H in (sync, asyn))  # (K, nr, nt)
    grams = [np.einsum("kji,kjl->kil", H.conj(), H) for H in (Hs, Ha)]  # once per draw
    rows = []
    for db in rho_db:
        rho = 0.0 if db == -np.inf else 10.0 ** (db / 10.0)
        gs, ga = (_capacity_integrand(gram, rho) for gram in grams)
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
