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
from functools import lru_cache

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    UndefinedResultError,
)

_SHARED_ENTRIES = 2**16  # largest shared chirp or sounding matrix, in samples: 1 MiB


def _is_int(value):
    """An int or a numpy integer, but not a bool: a JSON true is not the count 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_pow2(value):
    return _is_int(value) and value >= 1 and (value & (value - 1)) == 0


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
    large N.  The samples are read-only; up to 16 waveforms with N <= 2^16 are kept and
    shared, one per ``(p, N)``.
    """
    if not _is_pow2(p):
        raise ConstraintViolationError(f"chirp rate p must be a power of 2, got {p}")
    if not _is_pow2(N):
        raise ConstraintViolationError(f"period N must be a power of 2, got {N}")
    if N <= 2 * p:
        raise ConstraintViolationError(f"period must satisfy N > 2p, got N={N}, 2p={2 * p}")
    if not _is_shared(N):
        return _chirp.__wrapped__(int(p), int(N))  # too large to keep: built per call
    return _chirp(int(p), int(N))


def _is_shared(N):
    """Whether the chirp of period N, and its PAPR, are kept and shared: at most 2^16 samples."""
    return N <= _SHARED_ENTRIES


@lru_cache(maxsize=16)
def _chirp(p, N):
    n = np.arange(N, dtype=np.int64)
    phase_index = (p * (n + 1) * (n + 2)) % N
    samples = np.exp(2j * np.pi * phase_index / N) / np.sqrt(N)
    samples.flags.writeable = False
    return SoundingWaveform(p=p, N=N, samples=samples)


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


def _chirp_papr(w):
    """``papr`` of a ``generate_chirp`` waveform, once per shared (p, N), else per call."""
    return _shared_papr(w.p, w.N) if _is_shared(w.N) else papr(w.samples)


@lru_cache(maxsize=16)
def _shared_papr(p, N):
    return papr(_chirp(p, N).samples)


def check_design_constraints(pmax, N, L, M=0):
    """Check whether period N clears the correlation-free window of span ``L``.

    For integer offsets (``M = 0``) the family needs ``N > 2*pmax*L``; a fractional offset
    with pulse half-support ``M`` widens the window to ``N > 2*pmax*(2M + L - 1)``.  Returns
    a :class:`ConstraintReport` with the slack ``N - bound``; a failed check is a valid
    report, not an exception, but a count that is not an integer (a bool is not one), or
    pmax < 1, L < 1 or M < 0, raises ``ConstraintViolationError``.  The one statement of the
    bound, it is one column conservative: the Gram blocks (S^H S = I, and 0 across distinct
    rates) are exact already at ``N = bound``.  The arguments are checked on every call; the
    frozen report of one (pmax, N, L, M) is built once and shared.
    """
    if not all(map(_is_int, (pmax, N, L, M))) or pmax < 1 or L < 1 or M < 0:
        raise ConstraintViolationError(
            f"need integers pmax >= 1, N, L >= 1, M >= 0, got {pmax!r}, {N!r}, {L!r}, {M!r}"
        )
    return _design_report(int(pmax), int(N), int(L), int(M))


@lru_cache(maxsize=64)
def _design_report(pmax, N, L, M):
    """``check_design_constraints``'s report of checked ints, built once per (pmax, N, L, M)."""
    window = _window(L, M)
    bound = 2 * pmax * window
    if M:
        condition = f"N > 2*pmax*(2M + Lmax - 1): {N} > 2*{pmax}*({2 * M} + {L} - 1) = {bound}"
    else:
        condition = f"N > 2*pmax*Lmax: {N} > 2*{pmax}*{L} = {bound}"
    return ConstraintReport(
        passed=N > bound, condition=condition, bound=bound, slack=N - bound, window=window
    )
