"""Matched-filter channel estimation and the joint fractional-offset solver.

The sounding matrix S of a waveform is the N x D Toeplitz matrix whose
columns are cyclic shifts of the waveform samples.  It is shared, read-only, as the
matched filter S^H, a contiguous D x N array (see ``build_sounding_matrix``).
Both directions of the operator live here: the filter is one product S^H r,
whose bits do not depend on the BLAS thread count, and ``_sound`` forms
reception's noiseless sum_i S_i F_i.  Whenever the design constraints hold,
same-waveform Gram matrices are identities and cross-waveform Gram matrices
vanish, so the matched filter returns the channel taps directly (integer
offsets) or the pulse-shaped taps G(mu) @ h (fractional offsets).

Recovering (mu, h) from the fractional output minimizes

    || h_F - G(mu) h ||^2      over mu in [0, 1/2], h in C^L.

G(mu) is real, so the mu step runs in real arithmetic on the D x 2 array of
h_F's real and imaginary parts.  It scores a 65-point grid by the residual in the
left null space of G, 2M - 1 rows per offset (Kaufman 1975; the h solve is embedded,
so the objective is the joint problem's true profile), starts at the minimum of the
degree-9 Hermite interpolant through the values and exact slopes (cached slope makers)
at the five scan offsets around the scan minimum, and polishes with a bracketed,
bisection-safeguarded secant on the profile slope, reusing the last solve as the h
estimate; most estimates stop after that one solve.  Freezing h, as a literal
alternation would, contracts too slowly.
The profile slope is the variable-projection derivative (Golub & Pereyra
1973) -2 <r, G'(mu) h>: each polish step takes G and G' together at one
offset from ``_shaping_and_slope``, the one sampler of the pulse (a cached
polynomial fit of g and g' per support lag, exact at mu = 0, that
reception's G shares), and makes one h solve.  That solve is the L x L
normal equations G^T G h = G^T Y where the scan certified kappa(G) <=
``_GRAM_LIMIT`` within half a step of the nearest scan offset (their error,
about kappa^2 eps, then stays below 1e-10; Golub & Van Loan, *Matrix
Computations*, sec. 5.3), else an SVD least-squares solve, the only path that
rejects an ill-conditioned G.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    IllConditionedError,
)
from .waveform import (
    _SHARED_ENTRIES,
    _is_int,
    _window,
    check_design_constraints,
    cyclic_correlation,
)

_COND_LIMIT = 1e12  # on kappa(G); kappa(G^H G) is its square
_SCAN_POINTS = 65
_POLISH_TOL = 1e-10  # on the secant update of mu
_POLISH_STEPS = 60
_GRAM_LIMIT = 1e3  # on the certified kappa(G): the normal equations lose about kappa^2 eps
_FIT_POINTS = 18  # Chebyshev nodes of the pulse sampler, whose polynomials in mu have degree 19
_FIT_ERROR = 1e-12  # bounds the sampler's error in each entry of G and G' (a property test)
_POWER_SCALE, _POWER_SHIFT = np.array(  # mu * scale + shift = 1, mu, mu - 1/2, x, .., x
    [[0.0, 1.0, 1.0] + [4.0] * (_FIT_POINTS - 1), [1.0, 0.0, -0.5] + [-1.0] * (_FIT_POINTS - 1)]
)


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
    mu_hat: float | None  # None when undetermined (zero input)
    iterations: int  # secant polish steps taken
    residual: float  # relative: ||hF - G(mu_hat) h_hat||^2 / ||hF||^2, in [0, 1]
    converged: bool


def build_sounding_matrix(w, L, M=0):
    """Sounding matrix of waveform ``w`` for reception and the matched filter: shared, read-only.

    D is the lag window of span L: L itself for integer offsets (M = 0), 2M + L - 1 with
    a pulse of half-support M.  ``check_design_constraints`` at ``w``'s own rate gives D
    and must pass (the family-level check with p_max is the harness's job).  Up to 16 matrices
    of at most 2^16 entries, of waveforms with read-only samples, are kept and shared.
    """
    _check_span(L, M)
    if w.N < L:
        raise DimensionMismatchError(f"period {w.N} shorter than channel length {L}")
    report = check_design_constraints(w.p, w.N, L, M)
    if not report.passed:
        raise ConstraintViolationError(
            f"waveform p={w.p}, N={w.N} cannot sound {report.window} columns: "
            f"requires N > {report.bound}"
        )
    M, D = int(M), report.window
    if w.samples.flags.writeable or D * w.N > _SHARED_ENTRIES:
        return _sounding_matrix.__wrapped__(w, M, D)  # editable or large: built per call
    return _sounding_matrix(w, M, D)


@lru_cache(maxsize=16)
def _sounding_matrix(w, M, D):
    """One per waveform object and window: row c is the conjugated period from (M - c) mod N."""
    doubled = np.conj(np.tile(w.samples, 2))
    entries = sliding_window_view(doubled, w.N)[(M - np.arange(D)) % w.N]
    entries.flags.writeable = False
    return SoundingMatrix(entries=entries, M=M)


def _check_span(L, M=0):
    """Reject a span L < 1 or origin M < 0, or a non-integer one: a bool is not a count."""
    if not (_is_int(L) and _is_int(M)) or L < 1 or M < 0:
        raise DimensionMismatchError(f"need integers L >= 1 and M >= 0, got L={L!r}, M={M!r}")


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
    return S.entries.dot(r)


def _sound(matrices, filters, M):
    """Reception's r_m = sum_i S_i filters[i, m]: (sum_i S_i F_i)^T = conj(sum_i conj(F_i)^T S_i^H),
    one conjugation of the filters, one product per i summed in place, and one conjugation of
    the sum."""
    origins, shapes = [S.M for S in matrices], {S.entries.shape for S in matrices}
    if len(matrices) != len(filters):
        raise DimensionMismatchError(
            f"need one sounding matrix per tx antenna ({len(filters)}), got {len(matrices)}"
        )
    if origins != [M] * len(origins):
        raise ConstraintViolationError(f"need sounding matrices with M={M}, got {origins}")
    D = filters.shape[-1]
    if len(shapes) != 1 or min(shapes)[0] != D:
        raise DimensionMismatchError(f"need sounding matrices of one shape ({D}, N), got {shapes}")
    conj = np.conj(filters)
    total = conj[0] @ matrices[0].entries
    for i in range(1, len(matrices)):
        total += conj[i] @ matrices[i].entries
    return np.conj(total, out=total)


def matched_filter_integer(S, r):
    """Matched-filter estimate S^H r of the channel taps (M = 0 matrix)."""
    return _apply_matched_filter(S, r, False)


def matched_filter_fractional(S, r):
    """Matched-filter output S^H r of length 2M+L-1 (matrix with M >= 1)."""
    return _apply_matched_filter(S, r, True)


def build_shaping_matrix(pulse, mu, L):
    """Toeplitz pulse matrices G(mu)[r, c] = g((r - M - c + mu)T), M = pulse.M.

    One per offset of a scalar or array ``mu`` in [0, 1/2]: shape mu.shape + (2M+L-1, L),
    the G of ``_shaping_and_slope``, which the estimator takes too, bit for bit: the same
    sampler contracted with the coefficients of g alone.
    """
    mu = np.asarray(mu, dtype=float)
    if not ((mu >= 0.0) & (mu <= 0.5)).all():
        raise ConstraintViolationError(f"mu must lie in [0, 0.5], got {mu}")
    _check_span(L)
    return _sampled(pulse, mu, L, "...j,jc->...c", _pulse_fit(pulse)[:, 0])


@lru_cache(maxsize=32)
def _shaping_layout(M, L):
    """The Toeplitz index of G into the pulse samples at the 2M support lags -M .. M-1.

    Entry (r, c), at lag k = r - M - c, reads sample k + M, or off the support the appended 0.
    """
    k = np.arange(_window(L, M))[:, None] - M - np.arange(L)
    return np.where((k >= -M) & (k < M), k + M, 2 * M)


@lru_cache(maxsize=32)
def _pulse_fit(pulse):
    """The pulse sampler's coefficients, shape (n + 2, 2, 2M + 1), n = ``_FIT_POINTS``.

    At each support lag k = -M .. M-1, g(k + mu) = g(k) + mu (q_k + (mu - 1/2) r_k(x)) with
    x = 4 mu - 1, and g' the same way: q_k = (g(k + 1/2) - g(k)) / (1/2), and r_k interpolates
    the second divided difference at the n Chebyshev points of the first kind, inside (0, 1/2).
    Row 0 is g(k), the exact Nyquist delta, and g'(k); row 1 q_k; row 2 + j the coefficient of
    mu (mu - 1/2) x^j; column 2M, off the support, is 0.  So G(0) is the delta and G(1/2) is
    ``with_slope``'s (its one caller here), both exactly.  As g is entire, the interpolants
    converge geometrically (Trefethen, *Approximation Theory and Approximation Practice*,
    ch. 8); the Vandermonde solve is backward stable and interpolation at Chebyshev points
    well conditioned, so at n = 18 the sampler matches ``with_slope`` to about 1e-15 in g and g'.
    """
    n, lags = _FIT_POINTS, np.arange(-pulse.M, pulse.M, dtype=float)
    nodes = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    mus = np.r_[0.0, 0.5, (nodes + 1) / 4]
    g = pulse.with_slope(np.add.outer(mus, lags).ravel()).reshape(2, n + 2, -1)
    g[0, 0] = lags == 0
    q = (g[:, 1:] - g[:, :1]) / mus[1:, None]
    r = ((q[:, 1:] - q[:, :1]) / (mus[2:, None] - 0.5)).swapaxes(0, 1).reshape(n, -1)
    coefs = np.zeros((n + 2, 2, 2 * pulse.M + 1))
    coefs[0, :, :-1], coefs[1, :, :-1] = g[:, 0], q[:, 0]
    coefs[2:, :, :-1] = np.linalg.solve(np.vander(nodes, increasing=True), r).reshape(n, 2, -1)
    coefs.flags.writeable = False
    return coefs


def _shaping_and_slope(pulse, mu, L):
    """G(mu) and its slope dG/dmu, shape (2,) + mu.shape + (2M+L-1, L), mu in [0, 1/2].

    The one sampler of the pulse for G: the products 1, mu, mu (mu - 1/2) x^j of each offset,
    x = 4 mu - 1, contracted with ``_pulse_fit``'s coefficients by ``einsum`` (no BLAS, so an
    offset's bits do not depend on mu's shape), then one ``take``.  G(0) is the exact delta
    and G'(0) the pulse slope at the integer lags (right-sided: the lag M is off the support).
    """
    return _sampled(pulse, mu, L, "...j,jkc->k...c", _pulse_fit(pulse))


def _sampled(pulse, mu, L, subscripts, coefs):
    """The sampler's products of each offset contracted with ``coefs`` by ``subscripts``, laid
    out as G: coefs is ``_pulse_fit``'s, or its g column alone for G without G'."""
    powers = np.multiply.outer(np.asarray(mu, dtype=float), _POWER_SCALE)
    powers += _POWER_SHIFT  # 1, mu, mu - 1/2, then x = 4 mu - 1: their running products
    np.multiply.accumulate(powers, axis=-1, out=powers)
    return np.einsum(subscripts, powers, coefs).take(_shaping_layout(pulse.M, L), axis=-1)


@lru_cache(maxsize=32)
def _scan_grid(pulse, L):
    """Offsets, null-space makers Q2^T and Q2^T G' pinv(G) (flat (65 (2M-1), D)), flags, and the
    9 x 10 Hermite map: values and slopes at the nodes -2 .. 2 to the slope's coefficients, high
    to low, of their degree-9 interpolant (the confluent Vandermonde inverse, kappa 1.6e4)."""
    mus = np.linspace(0.0, 0.5, _SCAN_POINTS)
    G, Gp = _shaping_and_slope(pulse, mus, L)
    D = G.shape[1]
    null = np.linalg.qr(G, mode="complete")[0][..., L:].swapaxes(-1, -2)  # Q2^T: left null space
    slopers = (null @ Gp @ np.linalg.pinv(G)).reshape(-1, D)
    t = np.arange(-2.0, 3.0)[:, None] ** np.arange(10)  # t^j at the nodes, then j t^(j-1)
    hermite = np.linalg.inv(np.r_[t, np.c_[np.zeros(5), t[:, :-1] * np.arange(1, 10)]])
    hermite = (np.arange(1, 10)[:, None] * hermite[1:])[::-1]
    return mus.tolist(), null.reshape(-1, D), slopers, _certified(pulse, G, Gp).tolist(), hermite


def _certified(pulse, G, Gp):
    """Whether kappa(G(mu)) <= lim = ``_GRAM_LIMIT`` for all |mu - mu_j| <= d, per G_j and G'_j.

    For d half a scan step, Taylor gives the true pulse's ||G(mu) - G_j||_F <= d ||G'_j||_F +
    d^2 B/2, with B = r (pi (1 + rolloff))^2 >= ||G''||_F, r = sqrt(2ML), as G'' holds 2M samples
    of g'' per column and Bernstein's inequality gives |g''| <= (pi (1 + rolloff))^2 sup|g|, and
    sup|g| = g(0) = 1 as g is band-limited to |f| <= (1 + rolloff)/2 with a nonnegative spectrum.
    The sampler's G and G' differ from the true pulse's by at most ``_FIT_ERROR`` in each of
    their 2ML support entries, so for its G_j and G'_j the distance is at most e_j = d ||G'_j||_F +
    d^2 B/2 + (2 + d) r ``_FIT_ERROR``.  For G_j's singular values in [s_j, S_j], Weyl's
    inequality certifies if s_j > e_j and S_j + e_j <= lim (s_j - e_j).
    """
    d = 0.25 / (_SCAN_POINTS - 1)  # half a scan step
    r = math.sqrt(2 * pulse.M * G.shape[-1])
    e = d * np.linalg.norm(Gp, axis=(-2, -1)) + r * (
        d * d * (math.pi * (1 + pulse.rolloff)) ** 2 / 2 + (2 + d) * _FIT_ERROR
    )
    small, big = np.linalg.svd(G, compute_uv=False)[..., [-1, 0]].T
    return (small > e) & (big + e <= _GRAM_LIMIT * (small - e))


def _solve_h(G, hF):
    """Least-squares h of hF = G h for the G given, via SVD; rejects an ill-conditioned G.

    The polish's fallback where the normal equations are not certified, and so the one
    place that raises ``IllConditionedError`` (kappa(G) above ``_COND_LIMIT``, or rank-deficient).
    """
    h, _, rank, sv = np.linalg.lstsq(G, hF, rcond=None)
    if rank < G.shape[1] or sv[0] > _COND_LIMIT * sv[-1]:
        cond = np.inf if rank < G.shape[1] or sv[-1] == 0 else (sv[0] / sv[-1]) ** 2
        raise IllConditionedError("G^H G is numerically singular", cond)
    return h


def _profile_derivative(pulse, mu, L, Y):
    """Slope of the projected residual ||Y - G(mu) h(mu)||^2 in mu, with h(mu) and the residual.

    Because the residual is orthogonal to range(G), only the explicit G(mu)
    dependence contributes: phi'(mu) = -2 <Y - G h, G' h>, Y = [Re hF, Im hF],
    with G and G' from one call of the pulse sampler, and h from the normal equations where
    the nearest scan offset's flag certifies them (``_certified``: Taylor, with ||G''||_F <= B
    by Bernstein's inequality, the sampler's error, then Weyl's), else from ``_solve_h``'s SVD.
    """
    G, Gp = _shaping_and_slope(pulse, mu, L)
    mus, _, _, flags, _ = _scan_grid(pulse, L)
    if flags[round(mu / mus[1])]:
        h = np.linalg.solve(G.T @ G, G.T @ Y)
    else:
        h = _solve_h(G, Y)
    r = Y - G @ h
    return -2.0 * float(np.vdot(r, Gp @ h)), h, r


def _mu_step(pulse, L, Y):
    """Global scan of the profile objective in real arithmetic, then a safeguarded secant.

    The scan is one product of the flat null-space makers with Y, scored by row dots.
    Hermite start, last solve reused: where the exact slopes at an interior scan minimum
    and its neighbours turn from - to + on [A, A + 1], the polish starts at the minimum there
    of the degree-9 Hermite model of the values and slopes at the five scan offsets around
    it, its curvature the first secant slope (else it bisects first, from the midpoint of
    [A, A + 1] if the model's minimum leaves it or is not convex, else from the scan minimum).
    Each step takes G, G' and one solve at one offset, narrows a bracket [lo, hi] by the
    slope's sign and takes a secant step, bisecting when that leaves the bracket or meets a
    non-increasing slope.  Returns ``(mu, steps, converged, h, r)``, the solve and residual
    at mu; ``converged`` is false only when ``_POLISH_STEPS`` steps did not bring the update
    below ``_POLISH_TOL``.
    """
    mus, makers, slopers, _, hermite = _scan_grid(pulse, L)
    n, R = len(mus), makers.shape[0] // len(mus)  # R rows per offset, 2M - 1
    resid = (makers @ Y).reshape(n, 2 * R)
    phi = np.einsum("ij,ij->i", resid, resid)
    k = int(np.argmin(phi))
    lo, hi = mus[max(k - 1, 0)], mus[min(k + 1, n - 1)]
    mu, slope = mus[k], 0.0
    if 0 < k < n - 1:
        c, dx = min(max(k, 2), n - 3), mus[1]  # the five offsets c - 2 .. c + 2, k among them
        grad = (slopers[(c - 2) * R : (c + 3) * R] @ Y).reshape(5, 2 * R)
        s = (-2.0 * dx * np.einsum("ij,ij->i", resid[c - 2 : c + 3], grad)).tolist()  # per step
        a = k - c - 1 + int(s[k - c + 2] < 0)  # the bracket [A, A + 1] is [c + a, c + a + 1]
        if s[a + 2] < 0 < s[a + 3]:
            lo, hi = mus[c + a], mus[c + a + 1]
            t, curvature = _model_minimum(hermite, phi[c - 2 : c + 3], s, a)
            if a <= t <= a + 1 and curvature > 0:
                mu, slope = mus[c] + dx * t, curvature / dx**2
            else:
                mu = 0.5 * (lo + hi)

    for steps in range(1, _POLISH_STEPS + 1):
        fp, h, r = _profile_derivative(pulse, mu, L, Y)
        lo, hi = (lo, mu) if fp > 0 else (mu, hi)
        if steps > 1:
            slope = (fp - fp0) / (mu - mu0)
        nxt = mu - fp / slope if slope > 0 else math.inf
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - mu) < _POLISH_TOL:
            return mu, steps, True, h, r
        mu0, fp0, mu = mu, fp, nxt
    return mu, _POLISH_STEPS, False, *_profile_derivative(pulse, mu, L, Y)[1:]


def _model_minimum(hermite, phi, s, a):
    """Minimizer t in [a, a + 1] of the degree-9 Hermite model of values ``phi`` and slopes ``s``
    at the nodes -2 .. 2, s turning from - to + there, and its curvature (early if not positive):
    five Newton steps on the model's slope from the secant root, quadratic to about 1e-16."""
    coefs, fa, fb = (hermite @ np.concatenate((phi, s))).tolist(), s[a + 2], s[a + 3]
    t = a - fa / (fb - fa)
    for _ in range(5):
        f = df = 0.0
        for d in coefs:  # Horner for the slope f and the curvature df together
            df = df * t + f
            f = f * t + d
        if not df > 0:
            break
        t -= f / df
    return t, df


def joint_estimate(hF, pulse, L):
    """Jointly estimate the fractional offset and channel taps from ``hF``.

    ``hF`` has 2M+L-1 lags, M = ``pulse.M``.  Scans and polishes mu on the
    profile objective; h is the least-squares solve of the polish's last
    step.  A polish that exhausts its step budget is flagged on the report
    (``converged`` false), never silent.  An all-zero input returns h = 0
    with ``mu_hat`` None (undetermined); a NaN or infinite input is rejected.
    The residual is reported relative to ||hF||^2, so it does not depend on
    the input scale.
    """
    _check_span(L)
    hF = np.ascontiguousarray(hF, dtype=complex)
    if hF.shape != (_window(L, pulse.M),):
        raise DimensionMismatchError(
            f"matched filter output needs length 2M+L-1 = {_window(L, pulse.M)}, got {hF.shape}"
        )
    parts = hF.view(np.float64)  # real and imaginary parts, interleaved
    peak = float(np.abs(parts).max())
    if not math.isfinite(peak):
        raise ConstraintViolationError("matched filter output must be finite")
    if peak == 0.0:
        zero = np.zeros(L, dtype=complex)
        return EstimateReport(h_hat=zero, mu_hat=None, iterations=0, residual=0.0, converged=True)

    # Power-of-two scaling is exact and keeps the squared residuals in range.
    exponent = math.frexp(peak)[1]
    Y = np.ldexp(parts, -exponent).reshape(-1, 2)  # real and imaginary parts as columns
    mu, steps, converged, h, r = _mu_step(pulse, L, Y)
    return EstimateReport(
        h_hat=np.ldexp(h, exponent).view(complex)[:, 0],
        mu_hat=mu,
        iterations=steps,
        residual=float(np.vdot(r, r) / np.vdot(Y, Y)),
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
