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
bracketed, bisection-safeguarded Newton iteration on the derivative; one
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
from .waveform import cyclic_correlation

_COND_LIMIT = 1e12  # on kappa(G); kappa(G^H G) is its square
_SCAN_POINTS = 33
_POLISH_TOL = 1e-10  # on the Newton update of mu
_POLISH_STEPS = 60


@dataclass(frozen=True, eq=False)
class SoundingMatrix:
    """Toeplitz sounding matrix S of one waveform.

    ``entries[r, c] = s[(offset + r - c) mod N]`` with offset 0 for the
    integer-offset layout (N x L) and the pulse half-support M for the
    fractional layout (N x (2M+L-1)).
    """

    entries: np.ndarray
    kind: str  # "integer" | "fractional"


@dataclass(frozen=True, eq=False)
class EstimateReport:
    """Result of joint (mu, h) estimation from a fractional matched filter output."""

    h_hat: np.ndarray
    mu_hat: float  # None when undetermined (zero input)
    iterations: int  # Newton polish steps taken
    residual: float
    converged: bool
    mu_undetermined: bool = False


@dataclass(frozen=True, eq=False)
class SegmentedOutput:
    """Full-period matched filter output split into its 2p replica segments."""

    full: np.ndarray
    segments: np.ndarray  # (2p, N/(2p))
    stride: int


def build_sounding_matrix(w, L, kind="integer", M=0, check=True):
    """Build the N x D Toeplitz sounding matrix of waveform ``w``.

    D = L for the integer layout, 2M + L - 1 for the fractional one.  By
    default the single-waveform design bound N > 2*p*D is enforced (the
    family-level bound with p_max is the harness's job); pass ``check=False``
    to build a matrix at or beyond the boundary deliberately.
    """
    if L < 1:
        raise DimensionMismatchError(f"channel length must be >= 1, got {L}")
    if w.N < L:
        raise DimensionMismatchError(f"period {w.N} shorter than channel length {L}")
    if kind == "integer":
        cols, offset = L, 0
    elif kind == "fractional":
        if M < 1:
            raise DimensionMismatchError(
                f"fractional layout needs pulse half-support M >= 1, got {M}"
            )
        cols, offset = 2 * M + L - 1, M
    else:
        raise ConstraintViolationError(f"unknown sounding matrix kind {kind!r}")
    if check and w.N <= 2 * w.p * cols:
        raise ConstraintViolationError(
            f"waveform p={w.p}, N={w.N} cannot sound {cols} columns: "
            f"requires N > {2 * w.p * cols}"
        )
    lags = offset + np.arange(w.N)[:, None] - np.arange(cols)[None, :]
    return SoundingMatrix(entries=w.samples[lags % w.N], kind=kind)


def _apply_matched_filter(S, r, kind):
    if S.kind != kind:
        raise ConstraintViolationError(
            f"expected a {kind!r} sounding matrix, got {S.kind!r}"
        )
    r = np.asarray(r)
    if r.shape != (S.entries.shape[0],):
        raise DimensionMismatchError(
            f"received vector of shape {r.shape} does not match period {S.entries.shape[0]}"
        )
    return S.entries.conj().T @ r


def matched_filter_integer(S, r):
    """Matched-filter estimate S^H r of the channel taps (integer offsets)."""
    return _apply_matched_filter(S, r, "integer")


def matched_filter_fractional(S, r):
    """Matched-filter output S^H r of length 2M+L-1 (fractional offsets)."""
    return _apply_matched_filter(S, r, "fractional")


def build_shaping_matrix(pulse, mu, L, M):
    """(2M+L-1) x L Toeplitz pulse matrix G(mu): G[r, c] = g((r - M - c + mu)T)."""
    if not 0.0 <= mu <= 0.5:
        raise ConstraintViolationError(f"mu must lie in [0, 0.5], got {mu}")
    if L < 1 or M < 1:
        raise DimensionMismatchError(f"need L >= 1 and M >= 1, got L={L}, M={M}")
    r = np.arange(2 * M + L - 1)[:, None]
    c = np.arange(L)[None, :]
    return pulse((r - M - c + mu) * pulse.T)


@lru_cache(maxsize=32)
def _scan_grid(pulse, L, M, points):
    """Precompute pseudoinverses of G(mu) on the coarse scan grid."""
    mus = np.linspace(0.0, 0.5, points)
    mats = [build_shaping_matrix(pulse, mu, L, M) for mu in mus]
    pinvs = [np.linalg.pinv(G) for G in mats]
    return mus, mats, pinvs


def _solve_h(pulse, mu, L, M, hF):
    """Least-squares h for fixed mu, via orthogonal factorization (SVD)."""
    G = build_shaping_matrix(pulse, mu, L, M)
    h, _, rank, sv = np.linalg.lstsq(G, hF, rcond=None)
    if rank < L or sv[0] > _COND_LIMIT * sv[-1]:
        cond = np.inf if rank < L or sv[-1] == 0 else (sv[0] / sv[-1]) ** 2
        raise IllConditionedError("G^H G is numerically singular", cond)
    return G, h


def _profile_derivative(pulse, mu, L, M, hF, delta=1e-6):
    """Derivative of the projected residual ||hF - G(mu) h(mu)||^2 in mu.

    Because the residual is orthogonal to range(G), only the explicit G(mu)
    dependence contributes: phi'(mu) = -2 Re <hF - G h, G' h>.  G' uses a
    central difference of the pulse.
    """
    lo, hi = max(mu - delta, 0.0), min(mu + delta, 0.5)
    G, h = _solve_h(pulse, mu, L, M, hF)
    Gp = (
        build_shaping_matrix(pulse, hi, L, M) - build_shaping_matrix(pulse, lo, L, M)
    ) / (hi - lo)
    resid = hF - G @ h
    return -2.0 * float(np.real(np.vdot(resid, Gp @ h)))


def _mu_step(pulse, L, M, hF):
    """Global coarse scan of the profile objective, then safeguarded Newton.

    Maintains a bracket [lo, hi] around the minimizer from derivative signs;
    a Newton step that leaves the bracket (or faces a non-convex second
    difference) falls back to bisection.  Returns ``(mu, steps, converged)``:
    ``converged`` is false only when ``_POLISH_STEPS`` steps did not bring the
    update below ``_POLISH_TOL``.
    """
    mus, mats, pinvs = _scan_grid(pulse, L, M, _SCAN_POINTS)
    resid = np.empty(len(mus))
    for k, (G, P) in enumerate(zip(mats, pinvs)):
        resid[k] = np.sum(np.abs(hF - G @ (P @ hF)) ** 2)
    k = int(np.argmin(resid))
    lo = mus[max(k - 1, 0)]
    hi = mus[min(k + 1, len(mus) - 1)]
    mu = float(mus[k])

    for steps in range(1, _POLISH_STEPS + 1):
        fp = _profile_derivative(pulse, mu, L, M, hF)
        if fp > 0:
            hi = mu
        else:
            lo = mu
        step = 1e-6
        fpp = (
            _profile_derivative(pulse, min(mu + step, 0.5), L, M, hF)
            - _profile_derivative(pulse, max(mu - step, 0.0), L, M, hF)
        ) / (min(mu + step, 0.5) - max(mu - step, 0.0))
        nxt = mu - fp / fpp if fpp > 0 else np.inf
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) < _POLISH_TOL:
            return float(min(max(nxt, 0.0), 0.5)), steps, True
        mu = nxt
    return float(min(max(mu, 0.0), 0.5)), _POLISH_STEPS, False


def joint_estimate(hF, pulse, L, M):
    """Jointly estimate the fractional offset and channel taps from ``hF``.

    Scans and polishes mu on the profile objective, then solves for h by
    least squares at that mu.  A polish that exhausts its step budget is
    flagged on the report (``converged`` false), never silent.  An all-zero
    input returns h = 0 with the offset flagged undetermined.
    """
    hF = np.asarray(hF, dtype=complex)
    if hF.shape != (2 * M + L - 1,):
        raise DimensionMismatchError(
            f"matched filter output must have length 2M+L-1 = {2 * M + L - 1}, "
            f"got {hF.shape}"
        )
    scale = float(np.sum(np.abs(hF) ** 2))
    if scale == 0.0:
        return EstimateReport(
            h_hat=np.zeros(L, dtype=complex),
            mu_hat=None,
            iterations=0,
            residual=0.0,
            converged=True,
            mu_undetermined=True,
        )

    mu, steps, converged = _mu_step(pulse, L, M, hF)
    G, h = _solve_h(pulse, mu, L, M, hF)
    return EstimateReport(
        h_hat=h,
        mu_hat=mu,
        iterations=steps,
        residual=float(np.sum(np.abs(hF - G @ h) ** 2)),
        converged=converged,
    )


def segmented_output(w, r, M=0):
    """Full-period matched filter output and its 2p sign-alternating segments.

    ``full[k] = sum_n r[n] * conj(s[(n - k + M) mod N])`` for every lag k:
    the matched filter over all N cyclic shifts of waveform ``w``, with the
    lag origin moved back by the pulse half-support M (0 for integer
    offsets).  It contains 2p replicas of the channel response at stride
    N/(2p), with signs +, -, +, -, ...; segment j is ``segments[j]``.
    """
    out = cyclic_correlation(r, np.roll(w.samples, -M))
    stride = w.N // (2 * w.p)
    return SegmentedOutput(
        full=out, segments=out.reshape(2 * w.p, stride), stride=stride
    )


def average_segments(segmented):
    """Sign-corrected mean of the replica segments (the known +,-,+,- pattern)."""
    signs = np.where(np.arange(segmented.segments.shape[0]) % 2 == 0, 1.0, -1.0)
    return (signs[:, None] * segmented.segments).mean(axis=0)
