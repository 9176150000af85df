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
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    UndefinedResultError,
)

VALID_SCENARIOS = ("async-integer", "async-fractional")


def _is_pow2(value):
    return isinstance(value, (int, np.integer)) and value >= 1 and (value & (value - 1)) == 0


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


@dataclass(frozen=True)
class ScenarioKind:
    """Sounding scenario and the lag window its correlations must clear.

    ``Lmax`` is the worst-case channel span: max over links of the number of
    modeled taps including the integer clock offset.  ``M`` is the pulse
    shaping half-support in symbols and only matters for the fractional
    scenario (it widens the required zero-correlation window by 2M - 1).
    """

    tag: str
    Lmax: int
    M: int = 0

    def __post_init__(self):
        if self.tag not in VALID_SCENARIOS:
            raise ConstraintViolationError(
                f"unknown scenario tag {self.tag!r}; expected one of {VALID_SCENARIOS}"
            )
        if self.Lmax < 1:
            raise ConstraintViolationError(f"Lmax must be >= 1, got {self.Lmax}")
        if self.M < 0:
            raise ConstraintViolationError(f"M must be >= 0, got {self.M}")
        if self.tag == "async-fractional" and self.M < 1:
            raise ConstraintViolationError(
                "fractional scenario needs a pulse half-support M >= 1"
            )

    @property
    def window(self):
        """Half-width of the lag window that must be correlation-free."""
        if self.tag == "async-fractional":
            return self.Lmax + 2 * self.M - 1
        return self.Lmax


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
    cyclic shift of ``b``.  The periodic correlation sum_n a[n] *
    conj(b[(n+tau) mod N]) computed lag by lag below equals c[-tau mod N],
    and also conj(cyclic_correlation(b, a))[tau].
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(
            f"need two sequences of one length, got shapes {a.shape} and {b.shape}"
        )
    return np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))


def periodic_autocorrelation(w, tau):
    """Cyclic autocorrelation R[tau] = sum_n s[n] * conj(s[(n+tau) mod N]).

    Any integer lag is accepted; it is reduced mod N.
    """
    s = w.samples
    return complex(np.sum(s * np.conj(np.roll(s, -int(tau)))))


def periodic_crosscorrelation(wi, wv, tau):
    """Cyclic cross-correlation C[tau] = sum_n s_i[n] * conj(s_v[(n+tau) mod N]).

    The two waveforms must share the period N and use distinct chirp rates.
    """
    if wi.N != wv.N:
        raise DimensionMismatchError(
            f"waveforms must share the period length, got N={wi.N} and N={wv.N}"
        )
    if wi.p == wv.p:
        raise ConstraintViolationError(
            f"cross-correlation requires distinct chirp rates, both are p={wi.p}"
        )
    return complex(np.sum(wi.samples * np.conj(np.roll(wv.samples, -int(tau)))))


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


def check_design_constraints(pmax, N, scenario):
    """Check whether period N clears the scenario's correlation-free window.

    For integer-offset scenarios the family needs ``N > 2*pmax*Lmax``; with a
    fractional offset the window widens to ``N > 2*pmax*(2M + Lmax - 1)``.
    Returns a :class:`ConstraintReport` with the slack ``N - bound``; a failed
    check is a valid report, not an exception.
    """
    if pmax < 1:
        raise ConstraintViolationError(f"pmax must be >= 1, got {pmax}")
    window = scenario.window
    bound = 2 * int(pmax) * window
    if scenario.tag == "async-fractional":
        condition = (
            f"N > 2*pmax*(2M + Lmax - 1): {N} > 2*{pmax}*({2 * scenario.M} + "
            f"{scenario.Lmax} - 1) = {bound}"
        )
    else:
        condition = f"N > 2*pmax*Lmax: {N} > 2*{pmax}*{scenario.Lmax} = {bound}"
    return ConstraintReport(
        passed=bool(N > bound),
        condition=condition,
        bound=bound,
        slack=int(N) - bound,
        window=window,
    )
