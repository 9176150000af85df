"""Matched-filter channel estimation and the joint fractional-offset solver.

The sounding matrix of a waveform is the N x D Toeplitz matrix whose columns
are cyclic shifts of the waveform samples; applying its Hermitian transpose
to a received period is the matched filter.  Whenever the design constraints
hold, same-waveform Gram matrices are identities and cross-waveform Gram
matrices vanish, so the matched filter returns the channel taps directly
(integer offsets) or the pulse-shaped taps G(mu) @ h (fractional offsets).

Recovering (mu, h) from the fractional output minimizes

    || h_F - G(mu) h ||^2      over mu in [0, 1/2], h in C^L.

The mu step scores candidates by the projected residual (the h solve is
embedded, so the scalar objective is the true profile of the joint problem
and depends on h_F alone) and polishes the best grid candidate with a
bracketed, bisection-safeguarded secant iteration on the profile slope; one
least-squares h solve at that mu finishes the estimate.  Freezing h during
the mu step, as a literal alternation would, contracts too slowly to be
usable; see the convergence tests.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    IllConditionedError,
)
from .waveform import _toeplitz, _window, cyclic_correlation

_COND_LIMIT = 1e12  # on kappa(G); kappa(G^H G) is its square
_SCAN_POINTS = 33
_SLOPE_DELTA = 1e-6  # half-width of the central difference of the pulse
_POLISH_TOL = 1e-10  # on the secant update of mu
_POLISH_STEPS = 60


@dataclass(frozen=True, eq=False)
class SoundingMatrix:
    """Toeplitz sounding matrix S of one waveform.

    ``entries[r, c] = s[(M + r - c) mod N]``: N x L with lag origin M = 0 for
    integer offsets, N x (2M+L-1) with the pulse half-support M for
    fractional offsets.
    """

    entries: np.ndarray
    M: int


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Result of joint (mu, h) estimation from a fractional matched filter output."""

    h_hat: np.ndarray
    mu_hat: float  # None when undetermined (zero input)
    iterations: int  # secant polish steps taken
    residual: float  # relative: ||hF - G(mu_hat) h_hat||^2 / ||hF||^2, in [0, 1]
    converged: bool


def build_sounding_matrix(w, L, M=0):
    """Build the N x D Toeplitz sounding matrix of waveform ``w``.

    D is the lag window of span L: L itself for integer offsets (M = 0),
    2M + L - 1 with a pulse of half-support M.  The single-waveform design
    bound N > 2*p*D is enforced (the family-level bound with p_max is the
    harness's job).
    """
    if L < 1 or M < 0:
        raise DimensionMismatchError(f"need L >= 1 and M >= 0, got L={L}, M={M}")
    if w.N < L:
        raise DimensionMismatchError(f"period {w.N} shorter than channel length {L}")
    cols = _window(L, M)
    if w.N <= 2 * w.p * cols:
        raise ConstraintViolationError(
            f"waveform p={w.p}, N={w.N} cannot sound {cols} columns: "
            f"requires N > {2 * w.p * cols}"
        )
    return SoundingMatrix(entries=_toeplitz(w, L, M), M=M)


def _apply_matched_filter(S, r, fractional):
    if (S.M > 0) != fractional:
        raise ConstraintViolationError(
            f"a sounding matrix with M={S.M} does not fit the "
            f"{'fractional' if fractional else 'integer'} matched filter"
        )
    r = np.asarray(r)
    if r.shape != (S.entries.shape[0],):
        raise DimensionMismatchError(
            f"received vector of shape {r.shape} does not match period {S.entries.shape[0]}"
        )
    return S.entries.conj().T @ r


def matched_filter_integer(S, r):
    """Matched-filter estimate S^H r of the channel taps (M = 0 matrix)."""
    return _apply_matched_filter(S, r, False)


def matched_filter_fractional(S, r):
    """Matched-filter output S^H r of length 2M+L-1 (matrix with M >= 1)."""
    return _apply_matched_filter(S, r, True)


def build_shaping_matrix(pulse, mu, L):
    """(2M+L-1) x L Toeplitz pulse matrix G(mu): G[r, c] = g((r - M - c + mu)T), M = pulse.M."""
    if not 0.0 <= mu <= 0.5:
        raise ConstraintViolationError(f"mu must lie in [0, 0.5], got {mu}")
    if L < 1:
        raise DimensionMismatchError(f"need L >= 1, got L={L}")
    return pulse.matrix(mu, L)


@lru_cache(maxsize=32)
def _scan_grid(pulse, L):
    """Scan offsets and their stacked residual makers I - G(mu) pinv(G(mu))."""
    mus = np.linspace(0.0, 0.5, _SCAN_POINTS)
    mats = np.stack([build_shaping_matrix(pulse, mu, L) for mu in mus])
    makers = np.eye(_window(L, pulse.M)) - mats @ np.linalg.pinv(mats)
    return mus, makers


def _solve_h(pulse, mu, L, hF):
    """Least-squares h for fixed mu, via orthogonal factorization (SVD)."""
    G = build_shaping_matrix(pulse, mu, L)
    h, _, rank, sv = np.linalg.lstsq(G, hF, rcond=None)
    if rank < L or sv[0] > _COND_LIMIT * sv[-1]:
        cond = np.inf if rank < L or sv[-1] == 0 else (sv[0] / sv[-1]) ** 2
        raise IllConditionedError("G^H G is numerically singular", cond)
    return G, h


def _profile_derivative(pulse, mu, L, hF):
    """Derivative of the projected residual ||hF - G(mu) h(mu)||^2 in mu.

    Because the residual is orthogonal to range(G), only the explicit G(mu)
    dependence contributes: phi'(mu) = -2 Re <hF - G h, G' h>.  G' uses a
    central difference of the pulse.
    """
    lo, hi = max(mu - _SLOPE_DELTA, 0.0), min(mu + _SLOPE_DELTA, 0.5)
    G, h = _solve_h(pulse, mu, L, hF)
    Gp = (build_shaping_matrix(pulse, hi, L) - build_shaping_matrix(pulse, lo, L)) / (hi - lo)
    resid = hF - G @ h
    return -2.0 * float(np.real(np.vdot(resid, Gp @ h)))


def _mu_step(pulse, L, hF):
    """Global coarse scan of the profile objective, then a safeguarded secant.

    Each step evaluates the profile slope once, narrows a bracket [lo, hi]
    around the minimizer by its sign and takes a secant step from the previous
    slope; the first step, and a secant step that leaves the bracket or meets a
    non-increasing slope, bisect instead.  Returns ``(mu, steps, converged)``:
    ``converged`` is false only when ``_POLISH_STEPS`` steps did not bring the
    update below ``_POLISH_TOL``.
    """
    mus, makers = _scan_grid(pulse, L)
    k = int(np.argmin(np.sum(np.abs(makers @ hF) ** 2, axis=1)))
    lo = mus[max(k - 1, 0)]
    hi = mus[min(k + 1, len(mus) - 1)]
    mu = float(mus[k])

    mu0 = fp0 = None
    for steps in range(1, _POLISH_STEPS + 1):
        fp = _profile_derivative(pulse, mu, L, hF)
        if fp > 0:
            hi = mu
        else:
            lo = mu
        slope = 0.0 if mu0 is None else (fp - fp0) / (mu - mu0)
        nxt = mu - fp / slope if slope > 0 else np.inf
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) < _POLISH_TOL:
            return float(nxt), steps, True
        mu0, fp0, mu = mu, fp, nxt
    return float(mu), _POLISH_STEPS, False


def joint_estimate(hF, pulse, L):
    """Jointly estimate the fractional offset and channel taps from ``hF``.

    ``hF`` has 2M+L-1 lags, M = ``pulse.M``.  Scans and polishes mu on the
    profile objective, then solves for h by least squares at that mu.  A
    polish that exhausts its step budget is flagged on the report
    (``converged`` false), never silent.  An all-zero input returns h = 0
    with ``mu_hat`` None (undetermined).  The residual is reported relative
    to ||hF||^2, so it does not depend on the input scale.
    """
    hF = np.asarray(hF, dtype=complex)
    if hF.shape != (_window(L, pulse.M),):
        raise DimensionMismatchError(
            f"matched filter output needs length 2M+L-1 = {_window(L, pulse.M)}, got {hF.shape}"
        )
    if not hF.any():
        return EstimateReport(
            h_hat=np.zeros(L, dtype=complex),
            mu_hat=None,
            iterations=0,
            residual=0.0,
            converged=True,
        )

    # Power-of-two scaling is exact and keeps the squared residuals in range.
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(hF)))[1]))
    hF = hF / scale
    mu, steps, converged = _mu_step(pulse, L, hF)
    G, h = _solve_h(pulse, mu, L, hF)
    return EstimateReport(
        h_hat=h * scale,
        mu_hat=mu,
        iterations=steps,
        residual=float(np.sum(np.abs(hF - G @ h) ** 2) / np.sum(np.abs(hF) ** 2)),
        converged=converged,
    )


def segmented_output(w, r, M=0):
    """Full-period matched filter output as its 2p sign-alternating segments.

    Row j of the (2p, N/(2p)) result is segment j of ``full[k] = sum_n r[n] *
    conj(s[(n - k + M) mod N])``, the matched filter over all N cyclic shifts
    of waveform ``w`` with the lag origin moved back by the pulse half-support
    M (0 for integer offsets).  Signs alternate +, -, +, -, ...; ``.ravel()``
    is the full period and ``shape[1]`` the stride N/(2p).
    """
    out = cyclic_correlation(r, np.roll(w.samples, -M))
    return out.reshape(2 * w.p, w.N // (2 * w.p))


def average_segments(segments):
    """Sign-corrected mean of the replica segments (the known +,-,+,- pattern)."""
    signs = np.where(np.arange(segments.shape[0]) % 2 == 0, 1.0, -1.0)
    return (signs[:, None] * segments).mean(axis=0)
