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

where y spans exactly the 2M+L-1 lags -M .. M+L-2 and g vanishes outside
[-MT, MT]: r_m = sum_i S_i G(mu_im) h_im + z, the estimator's own model.  The
``receive_*`` functions return the noiseless sum; ``awgn`` alone adds z.

The sampling interval T is normalized to 1 throughout; only ratios t/T enter
any formula.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConstraintViolationError, DimensionMismatchError
from .waveform import _toeplitz, _window


@dataclass(frozen=True)
class PulseShape:
    """Truncated raised-cosine pulse-shaping filter, zero outside [-M*T, M*T].

    Calling the object evaluates g(t), vectorized over t in units of T.  The
    pulse is a Nyquist pulse: g(0) = 1 and g(k*T) = 0 for integer k != 0.
    The removable singularity at t = T/(2*rolloff) is evaluated by its limit
    (pi/4)*sinc(1/(2*rolloff)).
    """

    M: int
    rolloff: float

    def __call__(self, t):
        rolloff = self.rolloff
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = np.abs(t) <= self.M
        x = t[inside]
        if rolloff == 0.0:
            val = np.sinc(x)
        else:
            denom = 1.0 - (2.0 * rolloff * x) ** 2
            singular = np.abs(denom) < 1e-10
            val = np.empty_like(x)
            safe = ~singular
            val[safe] = np.sinc(x[safe]) * np.cos(np.pi * rolloff * x[safe]) / denom[safe]
            val[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
        out[inside] = val
        if out.ndim == 0:
            return float(out)
        return out

    def matrix(self, mu, L):
        """Shaping matrices G(mu)[r, c] = g((r - M - c + mu)T), shape mu.shape + (2M+L-1, L)."""
        lags = np.arange(_window(L, self.M))[:, None] - self.M - np.arange(L)
        return self(lags + np.asarray(mu, dtype=float)[..., None, None])


def build_pulse(rolloff=0.25, M=4):
    """Construct the raised-cosine pulse-shaping filter of fractional-offset models."""
    if not 0.0 <= rolloff <= 1.0:
        raise ConfigError(f"rolloff must lie in [0, 1], got {rolloff}")
    if int(M) != M or M < 1:
        raise ConfigError(f"half-support M must be a positive integer, got {M}")
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


def _check_reception_inputs(scenario, waveforms):
    if len(waveforms) != scenario.nt:
        raise DimensionMismatchError(
            f"need one waveform per tx antenna ({scenario.nt}), got {len(waveforms)}"
        )
    periods = {w.N for w in waveforms}
    if len(periods) != 1:
        raise DimensionMismatchError(f"waveforms must share one period, got {periods}")


def awgn(r0, sigma2, rng):
    """Add circular complex Gaussian noise, variance 2*sigma2[m] per sample.

    Row m of ``r0`` receives noise scaled by sqrt(sigma2[m]); draws are
    consumed in antenna order (real parts, then imaginary parts) even where
    sigma2 is zero, so substreams stay aligned across configurations.
    """
    draws = rng.standard_normal((r0.shape[0], 2, r0.shape[1]))
    return r0 + np.sqrt(sigma2)[:, None] * (draws[:, 0] + 1j * draws[:, 1])


def _receive(scenario, waveforms, filters, M):
    """Noiseless r_m = sum_i S_i filters[i, m], S_i the sounding matrix with lag origin M.

    Summed one waveform at a time, so no (nt, N, D) stack is built.
    """
    _check_reception_inputs(scenario, waveforms)
    return sum(filters[i] @ _toeplitz(w, scenario.L, M).T for i, w in enumerate(waveforms))


def receive_integer(scenario, waveforms):
    """One noiseless period of received samples per antenna, integer offsets only.

    Antenna m receives sum_i S_i h_im: the filter is the taps alone, since
    the pulse sampled at mu = 0 is not an exact delta.  Returns an (Nr, N)
    array whatever ``scenario.sigma2`` holds; ``awgn`` adds the noise.
    """
    return _receive(scenario, waveforms, scenario.taps, 0)


def receive_fractional(scenario, waveforms, pulse):
    """One noiseless period of received samples per antenna, fractional offsets.

    Antenna m receives sum_i S_i G(mu_im) h_im, the model that the estimator
    inverts; like ``receive_integer`` it ignores ``scenario.sigma2``.
    """
    filters = np.einsum("imdl,iml->imd", pulse.matrix(scenario.mu, scenario.L), scenario.taps)
    return _receive(scenario, waveforms, filters, pulse.M)
