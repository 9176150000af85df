"""Matched-filter channel estimation and the joint fractional-offset solver.

The sounding matrix S of a waveform is the N x D Toeplitz matrix whose
columns are cyclic shifts of the waveform samples.  It is built once per
waveform and stored as the matched filter S^H, a contiguous D x N array that
reception also uses; the filter is one product S^H r, whose bits do not
depend on the BLAS thread count.  Whenever the design constraints hold,
same-waveform Gram matrices are identities and cross-waveform Gram matrices
vanish, so the matched filter returns the channel taps directly (integer
offsets) or the pulse-shaped taps G(mu) @ h (fractional offsets).

Recovering (mu, h) from the fractional output minimizes

    || h_F - G(mu) h ||^2      over mu in [0, 1/2], h in C^L.

The mu step scores candidates by the projected residual (the h solve is
embedded, so the scalar objective is the true profile of the joint problem
and depends on h_F alone) and polishes the best grid candidate with a
bracketed, bisection-safeguarded secant iteration on the profile slope
(parabolic start, last step's solve reused as the h estimate).  Freezing h
during the mu step, as a literal alternation would, contracts too slowly to
be usable; see the convergence tests.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    IllConditionedError,
)
from .waveform import _window, cyclic_correlation

_COND_LIMIT = 1e12  # on kappa(G); kappa(G^H G) is its square
_SCAN_POINTS = 33
_SLOPE_DELTA = 1e-6  # half-width of the central difference of the pulse
_POLISH_TOL = 1e-10  # on the secant update of mu
_POLISH_STEPS = 60


@dataclass(frozen=True, eq=False)
class SoundingMatrix:
    """Matched filter S^H of one waveform's Toeplitz sounding matrix S.

    ``entries[c, r] = conj(s[(M + r - c) mod N])``, a C-contiguous D x N
    array: D = L with lag origin M = 0 for integer offsets, D = 2M+L-1 with
    the pulse half-support M for fractional offsets.  S is ``entries.conj().T``.
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
    """Build the sounding matrix of waveform ``w`` for reception and the matched filter.

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
    lags = M + np.arange(w.N) - np.arange(cols)[:, None]
    return SoundingMatrix(entries=np.conj(w.samples[lags % w.N]), M=M)


def _apply_matched_filter(S, r, fractional):
    if (S.M > 0) != fractional:
        raise ConstraintViolationError(
            f"a sounding matrix with M={S.M} does not fit the "
            f"{'fractional' if fractional else 'integer'} matched filter"
        )
    r = np.asarray(r)
    if r.shape != (S.entries.shape[1],):
        raise DimensionMismatchError(
            f"received vector of shape {r.shape} does not match period {S.entries.shape[1]}"
        )
    return S.entries @ r


def matched_filter_integer(S, r):
    """Matched-filter estimate S^H r of the channel taps (M = 0 matrix)."""
    return _apply_matched_filter(S, r, False)


def matched_filter_fractional(S, r):
    """Matched-filter output S^H r of length 2M+L-1 (matrix with M >= 1)."""
    return _apply_matched_filter(S, r, True)


def build_shaping_matrix(pulse, mu, L):
    """Toeplitz pulse matrices G(mu)[r, c] = g((r - M - c + mu)T), M = pulse.M.

    One per offset of a scalar or array ``mu`` in [0, 1/2]: shape mu.shape + (2M+L-1, L),
    gathered at k = r - c + L - 1 from the pulse at the 2M+2L-2 lags k - (M+L-1) + mu.
    """
    mu = np.asarray(mu, dtype=float)
    if not np.all((mu >= 0.0) & (mu <= 0.5)):
        raise ConstraintViolationError(f"mu must lie in [0, 0.5], got {mu}")
    if L < 1:
        raise DimensionMismatchError(f"need L >= 1, got L={L}")
    span = pulse.M + L - 1
    samples = pulse(np.arange(2 * span) - span + mu[..., None])
    return samples[..., np.arange(_window(L, pulse.M))[:, None] - np.arange(L) + L - 1]


@lru_cache(maxsize=32)
def _scan_grid(pulse, L):
    """Scan offsets and their stacked residual makers I - G(mu) pinv(G(mu))."""
    mus = np.linspace(0.0, 0.5, _SCAN_POINTS)
    mats = build_shaping_matrix(pulse, mus, L)
    makers = np.eye(_window(L, pulse.M)) - mats @ np.linalg.pinv(mats)
    return mus, makers


def _solve_h(G, hF):
    """Least-squares h of hF = G h for the G given, via SVD; rejects an ill-conditioned G."""
    h, _, rank, sv = np.linalg.lstsq(G, hF, rcond=None)
    if rank < G.shape[1] or sv[0] > _COND_LIMIT * sv[-1]:
        cond = np.inf if rank < G.shape[1] or sv[-1] == 0 else (sv[0] / sv[-1]) ** 2
        raise IllConditionedError("G^H G is numerically singular", cond)
    return h


def _profile_derivative(pulse, mu, L, hF):
    """Slope of the projected residual ||hF - G(mu) h(mu)||^2 in mu, with G(mu) and h(mu).

    Because the residual is orthogonal to range(G), only the explicit G(mu)
    dependence contributes: phi'(mu) = -2 Re <hF - G h, G' h>.  G' is a
    central difference, built with G in one call.
    """
    lo, hi = max(mu - _SLOPE_DELTA, 0.0), min(mu + _SLOPE_DELTA, 0.5)
    G, G_lo, G_hi = build_shaping_matrix(pulse, (mu, lo, hi), L)
    h = _solve_h(G, hF)
    Gp = (G_hi - G_lo) / (hi - lo)
    resid = hF - G @ h
    return -2.0 * float(np.real(np.vdot(resid, Gp @ h))), G, h


def _mu_step(pulse, L, hF):
    """Global coarse scan of the profile objective, then a safeguarded secant.

    Parabolic start, last step's solve reused: at an interior scan minimum of
    positive curvature the polish starts at the parabola's vertex, with that
    curvature as its first secant slope (else it bisects first).  Each step
    evaluates the profile slope once, narrows a bracket [lo, hi] around the
    minimizer by its sign and takes a secant step, bisecting when that leaves
    the bracket or meets a non-increasing slope.  Returns ``(mu, steps,
    converged, G, h)`` with G and h at mu; ``converged`` is false only when
    ``_POLISH_STEPS`` steps did not bring the update below ``_POLISH_TOL``.
    """
    mus, makers = _scan_grid(pulse, L)
    phi = np.sum(np.abs(makers @ hF) ** 2, axis=1)
    k = int(np.argmin(phi))
    lo, hi = mus[max(k - 1, 0)], mus[min(k + 1, len(mus) - 1)]
    mu, slope = float(mus[k]), 0.0
    curv = phi[k + 1] - 2 * phi[k] + phi[k - 1] if 0 < k < len(mus) - 1 else 0.0
    if curv > 0:
        spacing = mus[1] - mus[0]
        mu -= float(spacing * (phi[k + 1] - phi[k - 1]) / (2 * curv))
        slope = curv / spacing**2

    for steps in range(1, _POLISH_STEPS + 1):
        fp, G, h = _profile_derivative(pulse, mu, L, hF)
        lo, hi = (lo, mu) if fp > 0 else (mu, hi)
        if steps > 1:
            slope = (fp - fp0) / (mu - mu0)
        nxt = mu - fp / slope if slope > 0 else np.inf
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) < _POLISH_TOL:
            return float(mu), steps, True, G, h
        mu0, fp0, mu = mu, fp, nxt
    G = build_shaping_matrix(pulse, mu, L)
    return float(mu), _POLISH_STEPS, False, G, _solve_h(G, hF)


def joint_estimate(hF, pulse, L):
    """Jointly estimate the fractional offset and channel taps from ``hF``.

    ``hF`` has 2M+L-1 lags, M = ``pulse.M``.  Scans and polishes mu on the
    profile objective; h is the least-squares solve of the polish's last
    step.  A polish that exhausts its step budget is flagged on the report
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
        zero = np.zeros(L, dtype=complex)
        return EstimateReport(h_hat=zero, mu_hat=None, iterations=0, residual=0.0, converged=True)

    # Power-of-two scaling is exact and keeps the squared residuals in range.
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(hF)))[1]))
    hF = hF / scale
    mu, steps, converged, G, h = _mu_step(pulse, L, hF)
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
