"""Asynchronous multi-user MIMO channel synthesis and reception.

Links are frequency selective with a clock mismatch between the transmit
and receive local oscillators.  The mismatch, expressed in sampling
intervals, splits into an integer part ``d`` (folded into the channel as
leading zero taps) and a fractional part ``mu`` in (0, 1/2].  Antennas that
belong to the same (transmit node, receive node) pair share both parts.  A
``MimoScenario`` holds the channel as arrays indexed by (tx antenna i, rx
antenna m): the taps ``taps[i, m]`` of shape (nt, nr, L), the offsets
``d[i, m]`` and ``mu[i, m]``, and the noise level ``sigma2[m]``.

Reception is cyclic: the sounding waveforms repeat with period N, so every
signal index wraps mod N.  With only integer offsets the received stream at
antenna m is

    r[n] = sum_i sum_l h_im[l] * s_i[(n - l) mod N] + z[n],

with z circular complex Gaussian of variance 2*sigma_m^2 per complex sample
(sigma_m^2 per real dimension).  With a fractional offset the transmit pulse
shaping no longer collapses, and each link contributes through the sampled
pulse g shifted by its own mu:

    r[n] = sum_i sum_l sum_y s_i[(n - y) mod N] g((y + mu_im - l)T) h_im[l] + z[n],

where y spans exactly the 2M+L-1 lags -M .. M+L-2 and g, the ``PulseShape``,
is taken at the 2M support lags y - l = -M .. M-1 and is 0 at every other lag:
r_m = sum_i S_i G(mu_im) h_im + z, the estimator's own model and G(mu).  The
``receive_*`` functions take the S_i that the matched filter applies and
return the noiseless sum, formed by the estimator beside its matched filter;
z is made only by ``_noisy``, from sigma2: ``awgn`` at B = 1, the harness a block at a time.

The sampling interval T is normalized to 1 throughout; only ratios t/T enter
any formula.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, ConstraintViolationError, DimensionMismatchError
from .estimator import _sound, build_shaping_matrix


_SERIES_BELOW = 5e-3  # below it, sinc and its slope take their Taylor series


@dataclass(frozen=True)
class PulseShape:
    """Truncated raised-cosine pulse-shaping filter, zero outside [-M*T, M*T].

    g(t) = sinc(t) cos(pi*rolloff*t) / (1 - (2*rolloff*t)^2), t in units of T, is a
    Nyquist pulse (g(0) = 1 and g(kT) = 0 for integer k != 0), taken as sinc(t) q with
    q = (pi/4) (sinc(rolloff*t - 1/2) + sinc(rolloff*t + 1/2)), the partial fractions
    of (pi/2) sinc(v/2) / (2 - v), v = 1 - 2*rolloff*|t|: neither form has a 0/0 at
    the removable singularity t = T/(2*rolloff), where v = 0.  ``with_slope`` gives g
    and g' (about 4e-17 at k != 0, where the float sin(pi k) is not 0); the estimator fits
    its one sampler of G(mu) to it once per pulse, with the exact delta at the integer lags.
    """

    M: int
    rolloff: float

    def __call__(self, t):
        """g(t), taken where |t| <= M and 0 elsewhere (a float for a scalar t)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = np.abs(t) <= self.M
        out[inside] = self.with_slope(t[inside])[0]
        return float(out) if out.ndim == 0 else out

    def with_slope(self, t):
        """g(t) and g'(t) over a 1-d t, stacked as shape (2, t.size), unmasked.

        g' = sinc'(t) q + sinc(t) q' with q' = rolloff (pi/4) (sinc'(rolloff*t - 1/2) +
        sinc'(rolloff*t + 1/2)), from sinc and sinc'(x) = (cos(pi x) - sinc(x)) / x at the
        three arguments together, one Taylor rule serving all where |x| < ``_SERIES_BELOW``.
        """
        bt = t * self.rolloff
        x = np.stack((t, bt - 0.5, bt + 0.5))
        small = np.abs(x) < _SERIES_BELOW
        xs = np.where(small, 0.5, x)  # no 0/0 where the series goes
        px, p = np.pi * xs, np.pi * x
        w = p * p
        sinc = np.where(small, 1.0 + w * (w * (1 / 120 - w / 5040) - 1 / 6), np.sin(px) / px)
        series = np.pi * p * (w * (1 / 30 - w / 840) - 1 / 3)  # sinc' near 0
        dsinc = np.where(small, series, (np.cos(px) - sinc) / xs)
        q = (sinc[1] + sinc[2]) * (np.pi / 4)
        dq = (dsinc[1] + dsinc[2]) * (self.rolloff * (np.pi / 4))
        return np.stack((sinc[0] * q, dsinc[0] * q + sinc[0] * dq))


def _is_real(value):
    """A real number, numpy's included, that is not a bool (numpy's bools are not numbers.Real)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def build_pulse(rolloff=0.25, M=4):
    """Construct the raised-cosine pulse-shaping filter of fractional-offset models."""
    if not _is_real(rolloff) or not 0.0 <= rolloff <= 1.0:
        raise ConfigError(f"rolloff must be a number in [0, 1], got {rolloff!r}")
    if not _is_real(M) or not 1 <= M < math.inf or int(M) != M:
        raise ConfigError(f"half-support M must be a positive integer, got {M!r}")
    return PulseShape(M=int(M), rolloff=float(rolloff))


@dataclass(frozen=True, eq=False)
class MimoScenario:
    """The channel of every link plus the noise level at each receive antenna.

    ``taps[i, m]`` holds the L taps from tx antenna i to rx antenna m, with
    the integer clock offset ``d[i, m]`` folded in as leading zeros;
    ``mu[i, m]`` is the fractional clock offset in (0, 1/2], or 0.0 for a
    link modeled without one.  ``sigma2[m]`` is the per-real-dimension noise
    variance at rx antenna m (complex samples have variance 2*sigma2[m]).
    """

    taps: np.ndarray  # (nt, nr, L) complex; read-only when synthesized
    d: np.ndarray  # (nt, nr) int
    mu: np.ndarray  # (nt, nr) float
    sigma2: np.ndarray  # (nr,)

    def __post_init__(self):
        grid, L = self.taps.shape[:-1], self.taps.shape[-1]  # (nt, nr), L
        shapes = (self.d.shape, self.mu.shape, self.sigma2.shape)
        if len(grid) != 2 or shapes != (grid, grid, grid[1:]):
            raise DimensionMismatchError(
                f"taps of shape (nt, nr, L) = {self.taps.shape} need d and mu of shape "
                f"(nt, nr) and sigma2 of shape (nr,), got {shapes}"
            )
        offsets = self.d.ravel().tolist()
        if not all(0 <= v <= L for v in offsets):
            raise ConfigError(f"integer offsets must lie in [0, {L}], got {self.d.tolist()}")
        if not all(0.0 <= v <= 0.5 for v in self.mu.ravel().tolist()):  # rejects NaN too
            raise ConfigError(f"fractional offsets must lie in [0, 0.5], got {self.mu.tolist()}")
        below = _below_offsets(grid, tuple(offsets), L)
        if np.count_nonzero(self.taps[below]):  # np.any: 2x the time
            raise ConfigError("taps below the integer offset must be zero")

    @property
    def nt(self):
        return self.taps.shape[0]

    @property
    def nr(self):
        return self.taps.shape[1]

    @property
    def L(self):
        return self.taps.shape[2]


@lru_cache(maxsize=16)
def _below_offsets(grid, offsets, L):
    """Read-only (nt, nr, L) mask of the lags below each link's integer offset, per layout."""
    mask = np.arange(L) < np.reshape(offsets, grid)[..., None]
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=8)
def _tap_layout(active, offsets, tx_node, rx_node, L):
    """Read-only per-link ``d``, the active tap total and, per active count a, the (links, a)
    indices of their real and imaginary parts in the link-major draw and in flat ``taps``."""
    d = np.asarray(offsets)[np.ix_(tx_node, rx_node)]
    counts = [a for row in active for a in row]
    first = np.cumsum([0] + [2 * a for a in counts])  # each link's first draw
    groups = []
    for a in sorted(set(counts) - {0}):
        links = [k for k, c in enumerate(counts) if c == a]
        lags = np.arange(a)
        re = first[links, None] + lags
        dst = np.array(links)[:, None] * L + d.ravel()[links, None] + lags
        groups.append((re, re + a, dst))
    for array in (d, *(x for group in groups for x in group)):
        array.flags.writeable = False
    return d, sum(counts), tuple(groups)


def _layout(cfg):
    return _tap_layout(
        cfg.active_taps, cfg.integer_offsets, cfg.tx_node, cfg.rx_node, cfg.total_length
    )


def _draw_shapes(cfg):
    """One channel's draws, in stream order: the shape of its uniform offsets and the count of
    its normal draws, two per active tap.  One uniform per independent offset: per (tx node,
    rx node) pair, per rx node where the transmit LOs are shared (tx-shared), per tx node where
    the receive ones are (rx-shared), and the shape None where the config fixes mu or has none."""
    shared = {"tx-shared": (1, cfg.mr), "rx-shared": (cfg.mt, 1)}
    drawn = cfg.fractional and cfg.mu_values is None
    return shared.get(cfg.lo_topology, (cfg.mt, cfg.mr)) if drawn else None, 2 * _layout(cfg)[1]


def _channel_block(cfg, u, draws):
    """The offsets, taps and noise levels of B channels, one pass over a block of their draws.

    Row b of ``u``, shape (B, *offset shape), and of ``draws``, shape (B, 2*total), hold one
    channel's draws as ``_draw_shapes`` sizes them; ``u`` is None where the config fixes mu
    (or has none), and ``draws`` where the taps are not drawn, which leaves taps and sigma2 None.
    The node-pair offsets, drawn (0.5 (1 - u)), fixed or absent (0.0), fill (B, mt, mr) for
    ``cfg.per_link``.  Returns mu (B, nt, nr), read-only taps (B, nt, nr, L) and sigma2 (B, nr);
    row b is bit for bit ``synthesize_channels`` on the stream that drew it, at any B.
    """
    B = len(u if draws is None else draws)
    pairs = (cfg.mu_values or 0.0) if u is None else 0.5 * (1.0 - u)
    mu = cfg.per_link(np.full((B, cfg.mt, cfg.mr), pairs))
    if draws is None:
        return mu, None, None

    _, _, groups = _layout(cfg)
    taps = np.zeros((B, cfg.nt, cfg.nr, cfg.total_length), dtype=complex)
    flat = taps.reshape(B, -1)
    for re, im, dst in groups:
        block = (draws.take(re, axis=1) + 1j * draws.take(im, axis=1)) / np.sqrt(2.0)
        if cfg.normalize_taps:  # np.linalg.norm bit for bit: a strided ddot per part and link
            x, y = block.real, block.imag
            norm = np.sqrt(x[..., None, :] @ x[..., None] + y[..., None, :] @ y[..., None])
            block = block / norm[..., 0]
        flat[:, dst] = block
    taps.flags.writeable = False

    power = np.sum(np.abs(taps) ** 2, axis=3).sum(axis=1) / cfg.waveform_length
    scale = [10.0 ** (-float(snr) / 10.0) for snr in cfg.snr_db]
    sigma2 = power * scale / 2.0  # power * 10^(-snr/10) / 2, in this order
    sigma2.flags.writeable = False
    return mu, taps, sigma2


def synthesize_channels(cfg, rng):
    """Realize the scenario's channel arrays from a seeded generator.

    Nonzero taps are i.i.d. unit-variance circular complex Gaussian placed at
    lags d .. d+active-1, optionally normalized to unit energy per link.
    Fractional offsets come from the config (fixed grid) or are drawn here
    (uniform policy).  The golden digests pin the order of ``rng``'s draws: the
    uniform offsets, then all active taps in one link-major draw, link by link in
    (tx, rx) order, each link's real parts before its imaginary parts.  The harness
    passes stream (0,) for the base channel.  Its Monte-Carlo redraw takes the same
    draws from each trial's stream (2, t) and makes one ``_channel_block`` pass over a
    block of trials, which gives each trial the channel this function draws from (2, t).

    The per-antenna noise level is calibrated from the configured SNR against
    the noiseless received power sum_i ||h_im||^2 / N, which equals the
    empirical mean power of the noiseless stream whenever the waveform design
    constraints hold (unit-energy waveforms, orthogonal sounding matrices).
    """
    report = cfg.design_report()
    if not report.passed:
        raise ConstraintViolationError(
            f"waveform design constraint violated: {report.condition}"
        )
    u_shape, n_draws = _draw_shapes(cfg)
    u = None if u_shape is None else rng.random((1, *u_shape))
    mu, taps, sigma2 = _channel_block(cfg, u, rng.standard_normal((1, n_draws)))
    return MimoScenario(taps=taps[0], d=_layout(cfg)[0], mu=mu[0], sigma2=sigma2[0])


def awgn(r0, sigma2, rng):
    """Add circular complex Gaussian noise, variance 2*sigma2[m] per sample.

    Row m of ``r0`` receives noise scaled by sqrt(sigma2[m]); draws are
    consumed in antenna order (real parts, then imaginary parts) even where
    sigma2 is zero, so substreams stay aligned across configurations.  The noise is
    ``_noisy``'s at B = 1, the pass the Monte-Carlo run makes once per block of trials,
    and ``r0`` is added to it.  An ``r0`` that is not 2-d, or a ``sigma2`` not of shape
    (r0.shape[0],), is rejected with ``DimensionMismatchError``; ``_noisy`` rejects a
    negative or NaN variance with ``ValueError``, after the period's draws are taken.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if r0.ndim != 2 or sigma2.shape != r0.shape[:1]:
        raise DimensionMismatchError(
            f"need a 2-d r0 and one sigma2 per row, got shapes {r0.shape} and {sigma2.shape}"
        )
    z = np.empty(r0.shape, complex)
    _noisy(sigma2, rng.standard_normal((r0.shape[0], 2, r0.shape[1])), z)
    return np.add(z, r0, out=z)


def _noisy(sigma2, draws, out):
    """A block's noise, one pass over its draws into ``out``, a (B, nr, N) complex array.

    Row b of ``draws``, shape (B, nr, 2, N), holds one period's standard normal draws in
    ``awgn``'s order (``awgn`` passes one (nr, 2, N) period into an (nr, N) ``out``), and
    ``sigma2`` is the noise level, shape (nr,) or (B, nr).  A negative or NaN variance is
    rejected with ``ValueError``.  Row b of ``out`` becomes its draws as complex samples
    scaled by sqrt(sigma2) in place, the noise ``awgn`` adds to its period, at any B.
    """
    if not sigma2.min() >= 0.0:  # NaN propagates through min
        raise ValueError(f"noise variances must be >= 0, got {sigma2.tolist()}")
    out.real, out.imag = draws[..., 0, :], draws[..., 1, :]
    out *= np.sqrt(sigma2)[..., None]


def receive_integer(scenario, matrices):
    """One noiseless period of received samples per antenna, integer offsets only.

    With one M = 0 sounding matrix S_i per tx antenna, antenna m receives
    sum_i S_i h_im, the taps alone: G(0) is the exact delta, and
    ``receive_fractional`` at mu = 0 gives these bits too.  Returns an (Nr, N)
    array whatever ``scenario.sigma2`` holds; ``awgn`` adds the noise.
    """
    return _sound(matrices, scenario.taps, 0)


def receive_fractional(scenario, matrices, pulse):
    """One noiseless period of received samples per antenna, fractional offsets.

    With one M = ``pulse.M`` sounding matrix S_i per tx antenna, antenna m
    receives sum_i S_i G(mu_im) h_im, the model that the estimator inverts, built
    by its ``build_shaping_matrix``; like ``receive_integer`` it ignores ``scenario.sigma2``.
    """
    G = build_shaping_matrix(pulse, scenario.mu, scenario.L)
    return _sound(matrices, np.einsum("imdl,iml->imd", G, scenario.taps), pulse.M)
