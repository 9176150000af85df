"""Channel model: pulse shaping, synthesis, integer and fractional reception."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from chirpsounder import (
    ConfigError,
    ConstraintViolationError,
    DimensionMismatchError,
    awgn,
    build_pulse,
    build_sounding_matrix,
    derive_rng,
    draw_fractional_offsets,
    from_dict,
    generate_chirp,
    preset,
    receive_fractional,
    receive_integer,
    synthesize_channels,
)
from chirpsounder.channel import MimoScenario


def pulse_by_quadrature(t, rolloff, points=1 << 17):
    """Independent raised-cosine evaluation: inverse transform of its spectrum.

    g(t) = 2 * int_0^B H(f) cos(2*pi*f*t) df with the standard piecewise
    cosine-rolloff spectrum (T = 1), computed by trapezoid quadrature.
    """
    edge = (1 + rolloff) / 2.0
    f = np.linspace(0.0, edge, points)
    if rolloff == 0.0:
        H = np.where(f <= 0.5, 1.0, 0.0)
    else:
        flat = f <= (1 - rolloff) / 2.0
        H = np.where(
            flat,
            1.0,
            0.5 * (1 + np.cos(np.pi / rolloff * (f - (1 - rolloff) / 2.0))),
        )
    return 2.0 * np.trapezoid(H * np.cos(2 * np.pi * f * t), f)


def masked_sinc(x):
    """sin(pi x) / (pi x) on a 1-d array, its Taylor series where |x| < 5e-3."""
    out = np.empty(x.shape)
    series = np.abs(x) < 5e-3
    p = np.pi * x[~series]
    out[~series] = np.sin(p) / p
    w = np.square(np.pi * x[series])
    out[series] = 1.0 + w * (w * (1 / 120 - w / 5040) - 1 / 6)
    return out


def masked_pulse(pulse, t):
    """The pulse by masked gathers: the support first, the series points apart.

    g(t) = sinc(t) q with q = (pi/4) (sinc(bt - 1/2) + sinc(bt + 1/2)), b the
    rolloff.  Kept as the reference for ``PulseShape.__call__``, which takes the
    same form with its slope, in the same operations and order, so the two
    agree bit for bit.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    inside = np.abs(t) <= pulse.M
    x = t[inside]
    bx = x * pulse.rolloff
    q = (masked_sinc(bx - 0.5) + masked_sinc(bx + 0.5)) * (np.pi / 4)
    out[inside] = masked_sinc(x) * q
    return float(out) if out.ndim == 0 else out


def sec5_config(**overrides):
    data = {
        "name": "sec5-test",
        "nodes": {"tx": 2, "rx": 3},
        "antennas": {"tx_node": [0, 0, 1], "rx_node": [0, 1, 2]},
        "channel": {
            "total_length": 15,
            "active_taps": 10,
            "integer_offsets": [[0, 0, 0], [5, 5, 5]],
        },
        "fractional": {"enabled": False},
        "waveform": {"length": 128, "chirp_rates": [1, 2, 4]},
        "pulse": {"rolloff": 0.25, "half_support": 4},
        "snr_db": 25.0,
        "capacity": {"rho_db": [10.0], "bins": 256},
        "trials": 10,
        "seed": 7,
    }
    data.update(overrides)
    return from_dict(data)


class TestRaisedCosine:
    def test_nyquist_property(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        assert pulse(0.0) == pytest.approx(1.0)
        for k in range(1, 5):
            assert pulse(float(k)) == pytest.approx(0.0, abs=1e-15)
            assert pulse(float(-k)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_outside_support(self):
        pulse = build_pulse(rolloff=0.25, M=4)
        assert pulse(4.1) == 0.0 and pulse(-17.0) == 0.0

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 0.35, 1.0])
    @pytest.mark.parametrize("t", [0.3, 0.5, 1.7, 2.5])
    def test_matches_spectrum_quadrature(self, rolloff, t):
        direct = build_pulse(rolloff, M=100)(t)
        assert direct == pytest.approx(pulse_by_quadrature(t, rolloff), abs=1e-7)

    def test_removable_singularity(self):
        # at t = 1/(2*rolloff) the closed form is 0/0; limit is (pi/4)*sinc(1/(2b))
        rolloff = 0.35
        t0 = 1.0 / (2 * rolloff)
        expected = (np.pi / 4) * np.sinc(1.0 / (2 * rolloff))
        pulse = build_pulse(rolloff, M=100)
        assert pulse(t0) == pytest.approx(expected, rel=1e-12)
        assert pulse(t0 + 1e-9) == pytest.approx(expected, rel=1e-5)
        assert pulse(t0) == pytest.approx(
            pulse_by_quadrature(t0, rolloff), abs=1e-7
        )

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("M", [1, 4])
    def test_matches_masked_reference(self, rolloff, M):
        pulse = build_pulse(rolloff, M)
        edges = [M, np.nextafter(M, np.inf), M + 0.5]
        points = [0.0, 0.5, 1.0] + edges + ([1.0 / (2 * rolloff)] if rolloff else [])
        rng = np.random.default_rng(8)  # random points reach last-bit differences
        t = np.concatenate([rng.uniform(-M - 1, M + 1, 2000), points, np.negative(points)])
        np.testing.assert_array_equal(pulse(t), masked_pulse(pulse, t))
        grid = t[:1000].reshape(40, 25)
        np.testing.assert_array_equal(pulse(grid), masked_pulse(pulse, grid))
        for x in t.tolist():  # scalars and 0-d arrays give floats, as before
            for arg in (x, np.array(x)):
                value = pulse(arg)
                assert type(value) is float and value == masked_pulse(pulse, x)

    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-9])
    def test_accurate_next_to_the_removable_singularity(self, delta):
        # cos(pi b t) / (1 - (2bt)^2) cancels there; the reference is the
        # cancellation-free form (pi/2) sinc(v/2) / (2 - v) in extended precision
        rolloff = 0.3
        t0 = 1.0 / (2 * rolloff)
        t = np.array([t0 + delta, t0 - delta, -t0 + delta, -t0 - delta])
        pi = 4 * np.arctan(np.longdouble(1))
        x = t.astype(np.longdouble)
        v = 1 - 2 * np.longdouble(rolloff) * np.abs(x)

        def sinc(y):
            return np.sin(pi * y) / (pi * y)

        reference = sinc(x) * (pi / 2) * sinc(v / 2) / (2 - v)
        error = np.abs(build_pulse(rolloff, M=4)(t) - reference)
        assert float(error.max()) <= 1e-15

    def test_invalid_parameters_rejected(self):
        # non-finite and non-numeric values too, not a bare OverflowError or TypeError
        for rolloff, M in [(1.5, 4), (0.25, 0), (0.25, np.inf), (0.25, np.nan), (np.nan, 4),
                           ("0.3", 4), (0.25, "4")]:
            with pytest.raises(ConfigError):
                build_pulse(rolloff=rolloff, M=M)

    @pytest.mark.parametrize(
        "rolloff,M",
        [(True, 4), (False, 4), (0.25, True), (True, True), (np.True_, 4), (0.25, np.True_)],
    )
    def test_bools_rejected(self, rolloff, M):
        # True, numpy's too, is not the rolloff 1.0 or the half-support 1
        with pytest.raises(ConfigError):
            build_pulse(rolloff, M)


def link_scenario(taps, d, mu=0.0):
    """1x1 MimoScenario around one link's taps, offsets and no noise."""
    return MimoScenario(
        taps=np.asarray(taps, dtype=complex)[None, None],
        d=np.array([[d]]),
        mu=np.array([[mu]]),
        sigma2=np.zeros(1),
    )


class TestLinkChannel:
    """The per-link checks that MimoScenario applies to every (tx, rx) link."""

    def test_leading_zero_enforced(self):
        with pytest.raises(ConfigError):
            link_scenario(np.ones(6), d=2)

    def test_span_checked(self):
        with pytest.raises(ConfigError):
            link_scenario(np.zeros(6), d=7)
        # d = L is a link with zero active taps
        assert link_scenario(np.zeros(6), d=6).L == 6
        with pytest.raises(DimensionMismatchError):  # d of a transposed grid
            MimoScenario(
                taps=np.zeros((2, 1, 6), dtype=complex),
                d=np.zeros((1, 2), dtype=int),
                mu=np.zeros((2, 1)),
                sigma2=np.zeros(1),
            )

    def test_mu_range_checked(self):
        with pytest.raises(ConfigError):
            link_scenario(np.zeros(6), d=0, mu=0.6)


class TestSynthesis:
    def test_sec5_structure(self):
        cfg = sec5_config()
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        assert sc.nt == 3 and sc.nr == 3
        assert sc.taps.shape == (3, 3, 15) and not sc.taps.flags.writeable
        for i in range(3):
            for m in range(3):
                taps = sc.taps[i, m]
                expected_d = 0 if i < 2 else 5
                assert sc.d[i, m] == expected_d
                assert np.all(taps[:expected_d] == 0)
                assert np.count_nonzero(taps) == 10
                assert np.sum(np.abs(taps) ** 2) == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        cfg = sec5_config()
        a = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        b = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_zero_active_taps(self):
        cfg = sec5_config(channel={
            "total_length": 15,
            "active_taps": [[0, 10, 10], [10, 10, 10], [10, 10, 10]],
            "integer_offsets": [[0, 0, 0], [5, 5, 5]],
        })
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        assert not sc.taps[0, 0].any()
        assert sc.taps[0, 1].any()

    def test_inconsistent_config_lists_violations(self):
        with pytest.raises(ConfigError, match="exceeds total_length"):
            sec5_config(channel={
                "total_length": 12,
                "active_taps": 10,
                "integer_offsets": [[0, 0, 0], [5, 5, 5]],
            })

    def test_node_sharing(self):
        # antennas 0 and 1 share the tx node, so their (d, mu) must agree per rx
        cfg = sec5_config(
            fractional={"enabled": True, "mu": "uniform"},
            waveform={"length": 256, "chirp_rates": [1, 2, 4]},
        )
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        for m in range(3):
            assert sc.mu[0, m] == sc.mu[1, m]
            assert sc.d[0, m] == sc.d[1, m]
        assert 0.0 < sc.mu[0, 0] <= 0.5

    @pytest.mark.parametrize("topology", ["independent", "tx-shared", "rx-shared"])
    def test_fractional_offset_draws(self, topology):
        # one scalar draw per independent (tx node, rx node) offset, in row-major order
        cfg = SimpleNamespace(lo_topology=topology, mt=2, mr=3)
        mu = np.asarray(draw_fractional_offsets(cfg, derive_rng(5, 2, 0)))
        rng = derive_rng(5, 2, 0)
        count = {"independent": 6, "tx-shared": 3, "rx-shared": 2}[topology]
        scalars = [0.5 * (1.0 - rng.random()) for _ in range(count)]
        assert mu.shape == (2, 3) and np.all((mu > 0.0) & (mu <= 0.5))
        if topology == "tx-shared":  # rows are equal: the offset depends on the rx node
            assert np.all(mu == mu[0]) and mu[0].tolist() == scalars
        elif topology == "rx-shared":  # rows are constant: it depends on the tx node
            assert np.all(mu == mu[:, :1]) and mu[:, 0].tolist() == scalars
        else:
            assert mu.ravel().tolist() == scalars
        # the draw leaves the substream where the scalar draws leave it
        after = derive_rng(5, 2, 0)
        draw_fractional_offsets(cfg, after)
        assert after.random() == rng.random()

    def test_constraint_violation_aborts(self):
        cfg = sec5_config(channel={
            "total_length": 16,
            "active_taps": 10,
            "integer_offsets": [[0, 0, 0], [6, 6, 6]],
        })
        with pytest.raises(ConstraintViolationError):
            synthesize_channels(cfg, derive_rng(cfg.seed, 0))


def sounding(waveforms, L, M=0):
    """One sounding matrix per waveform: what reception takes."""
    return [build_sounding_matrix(w, L, M) for w in waveforms]


def single_link_scenario(taps, mu=0.0):
    """1x1 scenario with explicit taps, built without the config machinery."""
    taps = np.asarray(taps, dtype=complex)
    return link_scenario(taps, int(np.argmax(taps != 0)), mu)  # d: leading zeros


class TestReceiveInteger:
    def test_identity_channel(self):
        w = generate_chirp(1, 128)
        sc = single_link_scenario([1] + [0] * 14)
        r = receive_integer(sc, sounding([w], 15))
        np.testing.assert_allclose(r[0], w.samples, atol=1e-15)

    def test_pure_delay_is_cyclic_shift(self):
        w = generate_chirp(1, 128)
        sc = single_link_scenario([0] * 5 + [1] + [0] * 9)
        r = receive_integer(sc, sounding([w], 15))
        np.testing.assert_allclose(r[0], np.roll(w.samples, 5), atol=1e-15)

    def test_waveform_count_checked(self):
        sc = single_link_scenario([1, 0, 0])
        with pytest.raises(DimensionMismatchError, match="one sounding matrix per tx antenna"):
            receive_integer(sc, sounding([generate_chirp(1, 128), generate_chirp(2, 128)], 3))
        two = MimoScenario(  # two tx antennas, one rx antenna
            taps=np.ones((2, 1, 3), dtype=complex), d=np.zeros((2, 1), dtype=int),
            mu=np.zeros((2, 1)), sigma2=np.zeros(1),
        )
        with pytest.raises(DimensionMismatchError, match="of one shape"):
            receive_integer(two, sounding([generate_chirp(1, 128), generate_chirp(2, 256)], 3))
        with pytest.raises(DimensionMismatchError, match="of one shape"):
            receive_integer(sc, sounding([generate_chirp(1, 128)], 4))  # built for L = 4
        # the fractional path checks the same operands against its (2M+L-1)-lag filters
        pulse = build_pulse(rolloff=0.25, M=4)
        pair = [generate_chirp(1, 128), generate_chirp(2, 128)]
        with pytest.raises(DimensionMismatchError, match="one sounding matrix per tx antenna"):
            receive_fractional(sc, sounding(pair, 3, 4), pulse)
        with pytest.raises(DimensionMismatchError, match=r"of one shape \(10, N\)"):
            receive_fractional(sc, sounding(pair[:1], 4, 4), pulse)  # built for L = 4

    def test_lag_origin_checked(self):
        # integer reception takes M = 0 matrices, fractional ones M = pulse.M
        w = generate_chirp(1, 128)
        sc = single_link_scenario([1, 0, 0])
        with pytest.raises(ConstraintViolationError, match="M=0"):
            receive_integer(sc, sounding([w], 3, M=4))
        with pytest.raises(ConstraintViolationError, match="M=4"):
            receive_fractional(sc, sounding([w], 3, M=2), build_pulse(rolloff=0.25, M=4))
        with pytest.raises(ConstraintViolationError, match="M=4"):
            receive_fractional(sc, sounding([w], 3), build_pulse(rolloff=0.25, M=4))

    def test_linearity(self):
        w = generate_chirp(2, 128)
        rng = np.random.default_rng(3)
        h1 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        h2 = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        S = sounding([w], 15)
        r1 = receive_integer(single_link_scenario(h1), S)
        r2 = receive_integer(single_link_scenario(h2), S)
        r12 = receive_integer(single_link_scenario(h1 + h2), S)
        np.testing.assert_allclose(r12, r1 + r2, atol=1e-12)

    def test_noise_calibration(self):
        sigma2 = 0.3
        r0 = np.zeros((1, 100000), dtype=complex)
        z = awgn(r0, np.array([sigma2]), derive_rng(99, 1, 0))
        measured = np.mean(np.abs(z) ** 2)
        assert measured == pytest.approx(2 * sigma2, rel=0.02)

    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    def test_noise_variance_below_zero_or_nan_rejected(self, bad):
        # a ValueError, not NaN samples behind a RuntimeWarning (warnings are errors here)
        with pytest.raises(ValueError):
            awgn(np.zeros((2, 8), dtype=complex), np.array([0.3, bad]), derive_rng(1, 1, 0))

    def test_noise_matches_per_antenna_draws(self):
        # reference: one (2, N) draw per antenna, in antenna order
        sigma2 = np.array([0.3, 0.0, 1.7])
        r0 = np.arange(3 * 64).reshape(3, 64) * (1 + 0.5j)
        ref_rng = derive_rng(98, 1, 0)
        expected = np.empty_like(r0)
        for m in range(3):
            draws = ref_rng.standard_normal((2, 64))
            expected[m] = r0[m] + np.sqrt(sigma2[m]) * (draws[0] + 1j * draws[1])
        z = awgn(r0, sigma2, derive_rng(98, 1, 0))
        assert z.tobytes() == expected.tobytes()

    def test_reception_is_noiseless(self):
        # sigma2 > 0 changes nothing: only awgn adds noise
        cfg = sec5_config(
            fractional={"enabled": True, "mu": 0.3},
            waveform={"length": 256, "chirp_rates": [1, 2, 4]},
        )
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        quiet = replace(sc, sigma2=np.zeros(sc.nr))
        waveforms = [generate_chirp(p, 256) for p in cfg.chirp_rates]
        pulse = build_pulse(rolloff=0.25, M=4)
        S, SF = sounding(waveforms, sc.L), sounding(waveforms, sc.L, 4)
        assert np.all(sc.sigma2 > 0)
        assert receive_integer(sc, S).tobytes() == receive_integer(quiet, S).tobytes()
        assert (
            receive_fractional(sc, SF, pulse).tobytes()
            == receive_fractional(quiet, SF, pulse).tobytes()
        )


class TestReceiveFractional:
    def brute_fractional(self, s, taps, mu, pulse):
        """Triple-sum evaluation of the fractional reception model."""
        N, L, M = len(s), len(taps), pulse.M
        r = np.zeros(N, dtype=complex)
        for n in range(N):
            for l in range(L):
                for y in range(-M, M + L - 1):
                    r[n] += s[(n - y) % N] * pulse(y + mu - l) * taps[l]
        return r

    def test_matches_triple_sum(self):
        w = generate_chirp(1, 64)
        pulse = build_pulse(rolloff=0.25, M=2)
        taps = np.array([0.7 - 0.2j, 0, 0.4j, 0.1])
        sc = single_link_scenario(taps, mu=0.37)
        r = receive_fractional(sc, sounding([w], 4, 2), pulse)
        expected = self.brute_fractional(w.samples, taps, 0.37, pulse)
        np.testing.assert_allclose(r[0], expected, atol=1e-12)

    def test_half_sample_offset_single_tap(self):
        w = generate_chirp(1, 128)
        pulse = build_pulse(rolloff=0.25, M=4)
        sc = single_link_scenario([1] + [0] * 9, mu=0.5)
        r = receive_fractional(sc, sounding([w], 10, 4), pulse)
        y = np.arange(-4, 4 + 10 - 1)
        expected = sum(
            pulse(v + 0.5) * np.roll(w.samples, v) for v in y
        )
        np.testing.assert_allclose(r[0], expected, atol=1e-12)

    def test_integer_limit(self):
        # mu -> 0 with a Nyquist pulse collapses to the integer-offset model
        w = generate_chirp(1, 128)
        pulse = build_pulse(rolloff=0.25, M=4)
        rng = np.random.default_rng(5)
        taps = (rng.standard_normal(12) + 1j * rng.standard_normal(12)) / np.sqrt(2)
        ri = receive_integer(single_link_scenario(taps), sounding([w], 12))
        rf = receive_fractional(
            single_link_scenario(taps, mu=1e-6), sounding([w], 12, 4), pulse
        )
        assert np.max(np.abs(rf - ri)) < 1e-4

    def test_seed_reproducibility(self):
        cfg = sec5_config(
            fractional={"enabled": True, "mu": 0.3},
            waveform={"length": 256, "chirp_rates": [1, 2, 4]},
        )
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        waveforms = [generate_chirp(p, 256) for p in cfg.chirp_rates]
        pulse = build_pulse(rolloff=0.25, M=4)
        SF = sounding(waveforms, sc.L, 4)
        a = awgn(receive_fractional(sc, SF, pulse), sc.sigma2, derive_rng(cfg.seed, 1, 0))
        b = awgn(receive_fractional(sc, SF, pulse), sc.sigma2, derive_rng(cfg.seed, 1, 0))
        np.testing.assert_array_equal(a, b)

    def test_per_link_offsets_override(self):
        cfg = sec5_config(
            fractional={"enabled": True, "mu": 0.3},
            waveform={"length": 256, "chirp_rates": [1, 2, 4]},
        )
        sc = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
        sc2 = replace(sc, mu=cfg.per_link(((0.1, 0.2, 0.3), (0.4, 0.5, 0.25))))
        assert sc2.mu[0, 1] == 0.2
        assert sc2.mu[2, 2] == 0.25
        np.testing.assert_array_equal(sc2.taps[0, 1], sc.taps[0, 1])
