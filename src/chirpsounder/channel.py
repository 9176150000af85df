"""Asynchronous multi-user MIMO channel synthesis and reception.

Links are frequency selective with a clock mismatch between the transmit
and receive local oscillators.  The mismatch, expressed in sampling
intervals, splits into an integer part ``d`` (folded into the channel as
leading zero taps) and a fractional part ``mu`` in (0, 1/2].  Antennas that
belong to the same (transmit node, receive node) pair share both parts.

Reception is cyclic: the sounding waveforms repeat with period N, so every
signal index wraps mod N.  With only integer offsets the received stream at
antenna m is

    r[n] = sum_i sum_l h_im[l] * s_i[(n - l) mod N] + z[n],

with z circular complex Gaussian of variance 2*sigma_m^2 per complex sample
(sigma_m^2 per real dimension).  With a fractional offset the transmit pulse
shaping no longer collapses, and each link contributes through the sampled
pulse g shifted by its own mu:

    r[n] = sum_i sum_l sum_y s_i[(n - y) mod N] g((y + mu_im - l)T) h_im[l] + z[n],

where y spans -M .. M+L-2 and g vanishes outside [-MT, MT].  The
``receive_*`` functions return the noiseless sum; ``awgn`` alone adds z.

The sampling interval T is normalized to 1 throughout; only ratios t/T enter
any formula.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ConstraintViolationError, DimensionMismatchError


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


def build_pulse(rolloff=0.25, M=4):
    """Construct the raised-cosine pulse-shaping filter of fractional-offset models."""
    if not 0.0 <= rolloff <= 1.0:
        raise ConfigError(f"rolloff must lie in [0, 1], got {rolloff}")
    if int(M) != M or M < 1:
        raise ConfigError(f"half-support M must be a positive integer, got {M}")
    return PulseShape(M=int(M), rolloff=float(rolloff))


@dataclass(frozen=True, eq=False)
class LinkChannel:
    """Multipath taps of one tx-antenna -> rx-antenna link.

    ``taps`` has the full modeled length L with the integer clock offset
    folded in as ``d`` leading zeros; ``active`` of them are (potentially)
    nonzero starting at lag ``d``.  ``mu`` is the fractional clock offset in
    (0, 1/2], or 0.0 for a link modeled without one.
    """

    taps: np.ndarray
    d: int
    mu: float
    active: int

    def __post_init__(self):
        if self.d < 0:
            raise ConfigError(f"integer offset must be >= 0, got {self.d}")
        if not 0.0 <= self.mu <= 0.5:
            raise ConfigError(f"fractional offset must lie in [0, 0.5], got {self.mu}")
        if self.active < 0 or self.d + self.active > len(self.taps):
            raise ConfigError(
                f"active taps [{self.d}, {self.d + self.active}) exceed length {len(self.taps)}"
            )
        if self.d and np.any(self.taps[: self.d] != 0):
            raise ConfigError("taps below the integer offset must be zero")

    @property
    def L(self):
        return len(self.taps)

    @property
    def zeta(self):
        """Total clock mismatch delay in sampling intervals."""
        return self.d + self.mu


@dataclass(frozen=True, eq=False)
class MimoScenario:
    """A full grid of links plus the noise level at each receive antenna.

    ``links[i][m]`` is the channel from tx antenna i to rx antenna m;
    ``sigma2[m]`` is the per-real-dimension noise variance at rx antenna m
    (complex samples have variance 2*sigma2[m]).
    """

    tx_node: tuple
    rx_node: tuple
    links: tuple
    sigma2: np.ndarray
    L: int

    @property
    def nt(self):
        return len(self.tx_node)

    @property
    def nr(self):
        return len(self.rx_node)

    def link(self, i, m):
        return self.links[i][m]


def noise_variance_for_snr(mean_power, snr_db):
    """Per-real-dimension sigma^2 giving SNR = mean_power / (2*sigma^2)."""
    return float(mean_power) * 10.0 ** (-float(snr_db) / 10.0) / 2.0


def draw_fractional_offsets(cfg, rng):
    """Draw per-(tx node, rx node) fractional offsets in (0, 0.5].

    Respects the LO topology: a shared transmitter side means the offset
    depends only on the receive node, and vice versa.  Returns an (Mt, Mr)
    nested tuple.
    """
    def draw():
        return 0.5 * (1.0 - rng.random())  # uniform over (0, 0.5]

    if cfg.lo_topology == "tx-shared":
        per_rx = [draw() for _ in range(cfg.mr)]
        return tuple(tuple(per_rx) for _ in range(cfg.mt))
    if cfg.lo_topology == "rx-shared":
        return tuple(tuple([draw()] * cfg.mr) for _ in range(cfg.mt))
    return tuple(tuple(draw() for _ in range(cfg.mr)) for _ in range(cfg.mt))


def synthesize_channels(cfg, rng):
    """Realize the scenario's channel grid from a seeded generator.

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
        mu_pairs = tuple(tuple([0.0] * cfg.mr) for _ in range(cfg.mt))
    elif cfg.mu_values is not None:
        mu_pairs = cfg.mu_values
    else:
        mu_pairs = draw_fractional_offsets(cfg, rng)

    L = cfg.total_length
    links = []
    power = np.zeros(cfg.nr)
    for i in range(cfg.nt):
        row = []
        for m in range(cfg.nr):
            d = cfg.link_offset(i, m)
            active = cfg.link_active(i, m)
            taps = np.zeros(L, dtype=complex)
            if active:
                draws = rng.standard_normal((2, active))
                block = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
                if cfg.normalize_taps:
                    block = block / np.linalg.norm(block)
                taps[d : d + active] = block
            taps.flags.writeable = False
            mu = mu_pairs[cfg.tx_node[i]][cfg.rx_node[m]]
            row.append(LinkChannel(taps=taps, d=d, mu=float(mu), active=active))
            power[m] += float(np.sum(np.abs(taps) ** 2))
        links.append(tuple(row))

    power /= cfg.waveform_length
    sigma2 = np.array(
        [noise_variance_for_snr(power[m], cfg.snr_db[m]) for m in range(cfg.nr)]
    )
    sigma2.flags.writeable = False
    return MimoScenario(
        tx_node=cfg.tx_node,
        rx_node=cfg.rx_node,
        links=tuple(links),
        sigma2=sigma2,
        L=L,
    )


def with_fractional_offsets(scenario, mu_pairs):
    """Copy of the scenario with new per-pair fractional offsets."""
    links = tuple(
        tuple(
            replace(
                scenario.link(i, m),
                mu=float(mu_pairs[scenario.tx_node[i]][scenario.rx_node[m]]),
            )
            for m in range(scenario.nr)
        )
        for i in range(scenario.nt)
    )
    return replace(scenario, links=links)


def _check_reception_inputs(scenario, waveforms):
    if len(waveforms) != scenario.nt:
        raise DimensionMismatchError(
            f"need one waveform per tx antenna ({scenario.nt}), got {len(waveforms)}"
        )
    periods = {w.N for w in waveforms}
    if len(periods) != 1:
        raise DimensionMismatchError(f"waveforms must share one period, got {periods}")
    return periods.pop()


def awgn(r0, sigma2, rng):
    """Add circular complex Gaussian noise, variance 2*sigma2[m] per sample.

    Row m of ``r0`` receives noise scaled by sqrt(sigma2[m]); draws are
    consumed in antenna order (real parts, then imaginary parts) even where
    sigma2 is zero, so substreams stay aligned across configurations.
    """
    draws = rng.standard_normal((r0.shape[0], 2, r0.shape[1]))
    return r0 + np.sqrt(sigma2)[:, None] * (draws[:, 0] + 1j * draws[:, 1])


def _receive(scenario, waveforms, coeffs, lead):
    """Noiseless cyclic reception: antenna m sums c[k] * roll(s_i, k - lead) over links.

    ``c = coeffs(link)`` is the link's effective filter, c[k] at lag k - lead.
    """
    N = _check_reception_inputs(scenario, waveforms)
    r0 = np.zeros((scenario.nr, N), dtype=complex)
    for m in range(scenario.nr):
        for i in range(scenario.nt):
            c = coeffs(scenario.link(i, m))
            s = waveforms[i].samples
            for k in np.nonzero(c)[0]:
                r0[m] += c[k] * np.roll(s, k - lead)
    return r0


def receive_integer(scenario, waveforms):
    """One noiseless period of received samples per antenna, integer offsets only.

    Returns an (Nr, N) array whatever ``scenario.sigma2`` holds; ``awgn``
    adds the noise.  The effective filter is the taps alone: the pulse
    sampled at mu = 0 is not an exact delta.
    """
    return _receive(scenario, waveforms, lambda link: link.taps, 0)


def receive_fractional(scenario, waveforms, pulse):
    """One noiseless period of received samples per antenna, fractional offsets.

    Each link contributes through an effective cyclic filter: the discrete
    convolution of its taps with the pulse sampled at integer lags shifted by
    the link's own mu.  This equals the Toeplitz matrix form
    S_i^F @ G(mu) @ h used on the estimation side.  Like ``receive_integer``
    it ignores ``scenario.sigma2``; ``awgn`` adds the noise.
    """
    lags = np.arange(-pulse.M, pulse.M + 1)

    def coeffs(link):  # lags -M .. M+L-1
        return np.convolve(pulse(lags + link.mu), link.taps)

    return _receive(scenario, waveforms, coeffs, pulse.M)
