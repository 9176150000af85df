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
``awgn`` alone adds z.

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
_SHIFTS = np.array([[0.0], [-0.5], [0.5]])  # of the sinc arguments t, rolloff*t -/+ 1/2


@lru_cache(maxsize=8)
def _pulse_scales(rolloff):
    """Scales of the sinc arguments, and of q and q' over their sums of sincs."""
    return np.array([[1.0], [rolloff], [rolloff]]), np.array([[1.0], [rolloff]]) * (np.pi / 4)


@dataclass(frozen=True)
class PulseShape:
    """Truncated raised-cosine pulse-shaping filter, zero outside [-M*T, M*T].

    g(t) = sinc(t) cos(pi*rolloff*t) / (1 - (2*rolloff*t)^2), t in units of T, is a
    Nyquist pulse (g(0) = 1, g(kT) = 0 for integer k != 0), taken as sinc(t) q with
    q = (pi/4) (sinc(rolloff*t - 1/2) + sinc(rolloff*t + 1/2)), the partial fractions
    of (pi/2) sinc(v/2) / (2 - v), v = 1 - 2*rolloff*|t|: neither form has a 0/0 at
    the removable singularity t = T/(2*rolloff), where v = 0.
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
        scale, factor = _pulse_scales(self.rolloff)
        x = t * scale + _SHIFTS
        small = np.abs(x) < _SERIES_BELOW
        series = np.count_nonzero(small)
        xs = np.where(small, 0.5, x) if series else x  # no 0/0 where the series goes
        px = np.pi * xs
        f = np.empty((3, 2, x.shape[1]))  # sinc and sinc' at each argument
        np.divide(np.sin(px), px, out=f[:, 0])
        np.divide(np.cos(px) - f[:, 0], xs, out=f[:, 1])
        if series:
            p = np.pi * x[small]
            w = p * p
            f[:, 0][small] = 1.0 + w * (w * (1 / 120 - w / 5040) - 1 / 6)
            f[:, 1][small] = np.pi * p * (w * (1 / 30 - w / 840) - 1 / 3)
        q = (f[1] + f[2]) * factor  # q and q'
        out = f[0] * q[0]
        out[1] += f[0, 0] * q[1]
        return out


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
        if not np.all((self.d >= 0) & (self.d <= L)):
            raise ConfigError(f"integer offsets must lie in [0, {L}], got {self.d.tolist()}")
        if not np.all((self.mu >= 0.0) & (self.mu <= 0.5)):
            raise ConfigError(f"fractional offsets must lie in [0, 0.5], got {self.mu.tolist()}")
        if np.any(self.taps[np.arange(L) < self.d[..., None]]):
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


def noise_variance_for_snr(mean_power, snr_db):
    """Per-real-dimension sigma^2 giving SNR = mean_power / (2*sigma^2)."""
    return float(mean_power) * 10.0 ** (-float(snr_db) / 10.0) / 2.0


def draw_fractional_offsets(cfg, rng):
    """Draw per-(tx node, rx node) fractional offsets in (0, 0.5].

    Respects the LO topology: a shared transmitter side means the offset
    depends only on the receive node, and vice versa.  Returns a read-only
    (Mt, Mr) array broadcast from the one draw per independent offset.
    """
    shared = {"tx-shared": (1, cfg.mr), "rx-shared": (cfg.mt, 1)}
    shape = shared.get(cfg.lo_topology, (cfg.mt, cfg.mr))
    return np.broadcast_to(0.5 * (1.0 - rng.random(shape)), (cfg.mt, cfg.mr))


def synthesize_channels(cfg, rng):
    """Realize the scenario's channel arrays from a seeded generator.

    Nonzero taps are i.i.d. unit-variance circular complex Gaussian placed at
    lags d .. d+active-1, optionally normalized to unit energy per link.
    Fractional offsets come from the config (fixed grid) or are drawn here
    (uniform policy).

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
    if not cfg.fractional:
        mu = np.zeros((cfg.nt, cfg.nr))
    elif cfg.mu_values is not None:
        mu = cfg.per_link(cfg.mu_values)
    else:
        mu = cfg.per_link(draw_fractional_offsets(cfg, rng))

    d = cfg.per_link(cfg.integer_offsets)
    taps = np.zeros((cfg.nt, cfg.nr, cfg.total_length), dtype=complex)
    for i in range(cfg.nt):
        for m in range(cfg.nr):
            active = cfg.active_taps[i][m]
            if active:
                draws = rng.standard_normal((2, active))
                block = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
                if cfg.normalize_taps:
                    block = block / np.linalg.norm(block)
                taps[i, m, d[i, m] : d[i, m] + active] = block
    taps.flags.writeable = False

    power = np.sum(np.abs(taps) ** 2, axis=2).sum(axis=0) / cfg.waveform_length
    sigma2 = np.array(
        [noise_variance_for_snr(power[m], cfg.snr_db[m]) for m in range(cfg.nr)]
    )
    sigma2.flags.writeable = False
    return MimoScenario(taps=taps, d=d, mu=mu, sigma2=sigma2)


def awgn(r0, sigma2, rng):
    """Add circular complex Gaussian noise, variance 2*sigma2[m] per sample.

    Row m of ``r0`` receives noise scaled by sqrt(sigma2[m]); draws are
    consumed in antenna order (real parts, then imaginary parts) even where
    sigma2 is zero, so substreams stay aligned across configurations.  A negative
    or NaN variance is rejected with ``ValueError``.
    """
    sigma2 = np.asarray(sigma2, dtype=float)
    if not sigma2.min() >= 0.0:  # NaN propagates through min
        raise ValueError(f"noise variances must be >= 0, got {sigma2.tolist()}")
    draws = rng.standard_normal((r0.shape[0], 2, r0.shape[1]))
    return r0 + np.sqrt(sigma2)[:, None] * (draws[:, 0] + 1j * draws[:, 1])


def receive_integer(scenario, matrices):
    """One noiseless period of received samples per antenna, integer offsets only.

    With one M = 0 sounding matrix S_i per tx antenna, antenna m receives
    sum_i S_i h_im: the pulse sampled at mu = 0 is not an exact delta, so the
    taps alone filter.  Returns an (Nr, N) array whatever ``scenario.sigma2``
    holds; ``awgn`` adds the noise.
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
