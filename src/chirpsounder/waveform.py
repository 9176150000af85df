"""Chirp sounding waveforms, periodic correlations and design constraints.

The waveform family is a set of unit-energy chirps indexed by a chirp rate
``p`` (a power of 2).  One period of length ``N`` (also a power of 2, with
``N > 2p``) has samples

    s[n] = exp(j*2*pi*(p/N)*(n+1)*(n+2)) / sqrt(N),   n = 0..N-1.

Distinct chirp rates have identically zero periodic cross-correlation at
every lag, and the periodic autocorrelation is +-1 on a sparse comb of lags
(multiples of N/(2p)) and zero elsewhere.  Those two facts are what make the
family usable for sounding several transmit antennas at once through matched
filters, even when the links carry large unknown integer delays.
``cyclic_correlation`` computes both correlations at every lag at once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    UndefinedResultError,
)


def _is_pow2(value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return False  # a JSON true is not the rate 1
    return value >= 1 and (value & (value - 1)) == 0


@dataclass(frozen=True, eq=False)
class SoundingWaveform:
    """One period of a chirp sounding waveform.

    Attributes
    ----------
    p : int
        Chirp rate index (power of 2; 1 is allowed).
    N : int
        Period length (power of 2, N > 2p).
    samples : ndarray
        Length-N complex samples, each of magnitude 1/sqrt(N).
    """

    p: int
    N: int
    samples: np.ndarray


def _window(L, M=0):
    """Columns of the correlation-free lag window of a channel span ``L``.

    ``M`` is the window's lag origin: 0 for integer offsets, where the window
    is the span itself, and the pulse half-support once a fractional offset
    brings in the pulse, which widens the window by 2M - 1.
    """
    return 2 * M + L - 1 if M else L


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of a design-constraint check (failure is a result, not an error)."""

    passed: bool
    condition: str
    bound: int
    slack: int
    window: int


def generate_chirp(p, N):
    """Generate one period of the chirp waveform with rate ``p`` and length ``N``.

    Both parameters must be powers of 2 with ``N > 2p``.  The phase index
    ``p*(n+1)*(n+2)`` is reduced mod N in integer arithmetic before the
    complex exponential is taken, so the samples (and all correlation
    identities built from them) are accurate to machine precision even for
    large N.
    """
    if not _is_pow2(p):
        raise ConstraintViolationError(f"chirp rate p must be a power of 2, got {p}")
    if not _is_pow2(N):
        raise ConstraintViolationError(f"period N must be a power of 2, got {N}")
    if N <= 2 * p:
        raise ConstraintViolationError(f"period must satisfy N > 2p, got N={N}, 2p={2 * p}")
    n = np.arange(N, dtype=np.int64)
    phase_index = (int(p) * (n + 1) * (n + 2)) % N
    samples = np.exp(2j * np.pi * phase_index / N) / np.sqrt(N)
    samples.flags.writeable = False
    return SoundingWaveform(p=int(p), N=int(N), samples=samples)


def cyclic_correlation(a, b):
    """All N lags of c[k] = sum_n a[(n+k) mod N] * conj(b[n]), by FFT.

    With ``a`` a received period this is the matched filter over every
    cyclic shift of ``b``.  The periodic correlation of two waveforms at lag
    tau, sum_n a[n] * conj(b[(n+tau) mod N]), is c[-tau mod N], and also
    conj(cyclic_correlation(b, a))[tau].
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(
            f"need two sequences of one length, got shapes {a.shape} and {b.shape}"
        )
    return np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))


def closed_form_autocorrelation(p, N, tau):
    """Predicted autocorrelation value in {+1, -1, 0} for a valid (p, N) chirp.

    +1 at lags that are even multiples of N/(2p) (i.e. multiples of N/p),
    -1 at odd multiples of N/(2p), 0 everywhere else; lags reduce mod N.
    """
    if not (_is_pow2(p) and _is_pow2(N) and N > 2 * p):
        raise ConstraintViolationError(
            f"(p={p}, N={N}) is not a valid chirp parameter pair"
        )
    t = int(tau) % N
    comb = N // (2 * p)
    if t % comb != 0:
        return 0
    return 1 if (t // comb) % 2 == 0 else -1


def papr(samples):
    """Peak-to-average power ratio max|s|^2 / mean|s|^2 of a sample sequence."""
    power = np.abs(np.asarray(samples)) ** 2
    if power.size == 0 or not power.any():
        raise UndefinedResultError("PAPR is undefined for an empty or all-zero sequence")
    return float(power.max() / power.mean())


def check_design_constraints(pmax, N, L, M=0):
    """Check whether period N clears the correlation-free window of span ``L``.

    For integer offsets (``M = 0``) the family needs ``N > 2*pmax*L``; a
    fractional offset with pulse half-support ``M`` widens the window to
    ``N > 2*pmax*(2M + L - 1)``.  Returns a :class:`ConstraintReport` with the
    slack ``N - bound``; a failed check is a valid report, not an exception.
    """
    if pmax < 1 or L < 1 or M < 0:
        raise ConstraintViolationError(
            f"need pmax >= 1, L >= 1 and M >= 0, got pmax={pmax}, L={L}, M={M}"
        )
    window = _window(L, M)
    bound = 2 * int(pmax) * window
    if M:
        condition = f"N > 2*pmax*(2M + Lmax - 1): {N} > 2*{pmax}*({2 * M} + {L} - 1) = {bound}"
    else:
        condition = f"N > 2*pmax*Lmax: {N} > 2*{pmax}*{L} = {bound}"
    return ConstraintReport(
        passed=bool(N > bound),
        condition=condition,
        bound=bound,
        slack=int(N) - bound,
        window=window,
    )
