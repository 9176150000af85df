"""Channel model: pulse shaping, synthesis, integer and fractional reception."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from chirpsounder import (
    ConfigError,
    ConstraintViolationError,
    DimensionMismatchError,
    awgn,
    build_pulse,
    build_sounding_matrix,
    derive_rng,
    from_dict,
    generate_chirp,
    preset,
    receive_fractional,
    receive_integer,
    synthesize_channels,
)
from chirpsounder.channel import MimoScenario, _noisy


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

    @pytest.mark.parametrize("rolloff", [0.0, 0.1, 0.25, 0.5, 1.0])
    def test_slope_matches_independent_references(self, rolloff):
        # away from the series and the removable singularity: the analytic derivative of
        # sinc(t) c / D with c = cos(pi b t) and D = 1 - (2bt)^2, b the rolloff
        pulse = build_pulse(rolloff, M=8)
        t = np.linspace(-8.0, 8.0, 3201)
        t = t[(np.abs(t) >= 0.1) & (np.abs(1 - (2 * rolloff * t) ** 2) >= 0.1)]
        s, ds = np.sinc(t), (np.cos(np.pi * t) - np.sinc(t)) / t
        c, dc = np.cos(np.pi * rolloff * t), -np.pi * rolloff * np.sin(np.pi * rolloff * t)
        D, dD = 1 - (2 * rolloff * t) ** 2, -8 * rolloff**2 * t
        analytic = (ds * c + s * dc) / D - s * c * dD / D**2
        assert np.abs(pulse.with_slope(t)[1] - analytic).max() <= 1e-12
        # on both sides of the series cutoff of each sinc argument (t and bt -/+ 1/2), and at
        # t = +-1/(2b): Richardson's central difference of the masked reference, h = 1e-3
        x = 5e-3 * np.array([0.8, 1 - 1e-3, 1 + 1e-3, 1.2])
        x = np.concatenate([x, -x])  # a sinc argument next to the cutoff, on either side
        t = [x]
        if rolloff:  # where bt - 1/2 or bt + 1/2 is x, and where bt - 1/2 is 0
            t += [(x + 0.5) / rolloff, (x - 0.5) / rolloff, [0.5 / rolloff]]
        t = np.concatenate(t)
        t = np.concatenate([t, -t])

        def central(h):
            return (masked_pulse(pulse, t + h) - masked_pulse(pulse, t - h)) / (2 * h)

        richardson = (4 * central(5e-4) - central(1e-3)) / 3
        assert np.abs(pulse.with_slope(t)[1] - richardson).max() <= 1e-10

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

    @pytest.mark.parametrize("d,mu", [(0, np.nan), (-1, 0.0), (7, 0.0)],
                             ids=["nan-mu", "negative-d", "d-past-L"])
    def test_out_of_range_offsets_rejected(self, d, mu):
        with pytest.raises(ConfigError, match="offsets must lie in"):
            link_scenario(np.zeros(6), d=d, mu=mu)

    @pytest.mark.parametrize("link", list(np.ndindex(2, 3)))
    def test_leading_zero_enforced_on_every_link_of_a_grid(self, link):
        d = np.array([[1, 2, 3], [4, 5, 6]])  # d = L = 6: no active tap
        taps = np.where(np.arange(6) >= d[..., None], 1.0 + 1.0j, 0.0)
        grid = {"d": d, "mu": np.zeros((2, 3)), "sigma2": np.zeros(3)}
        MimoScenario(taps=taps, **grid)  # every tap at or past its offset
        taps[link + (d[link] - 1,)] = 1.0  # one just below it
        with pytest.raises(ConfigError, match="below the integer offset"):
            MimoScenario(taps=taps, **grid)

    def test_leading_zero_checked_per_layout(self):
        # the lag mask is cached per layout, so grids and spans that share offset values
        # each get their own: lag 2 of the second link, below its offset 3, is caught in all
        for grid, L in [((1, 2), 4), ((2, 1), 4), ((1, 2), 6), ((2, 1), 6)]:
            d = np.array([0, 3]).reshape(grid)
            good = np.where(np.arange(L) >= d[..., None], 1.0 + 0.0j, 0.0)
            fields = {"d": d, "mu": np.zeros(grid), "sigma2": np.zeros(grid[1])}
            MimoScenario(taps=good, **fields)
            bad = good.copy()
            bad.reshape(2, L)[1, 2] = 1.0
            with pytest.raises(ConfigError, match="below the integer offset"):
                MimoScenario(taps=bad, **fields)


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
        cfg = node_pair_config(topology, {"enabled": True, "mu": "uniform"})
        cfg = cfg.replace(normalize_taps=False)
        sc = synthesize_channels(cfg, derive_rng(5, 2, 0))
        links = np.ix_(  # one link per node pair (a, b), a in range(mt) and b in range(mr)
            [cfg.tx_node.index(a) for a in range(cfg.mt)],
            [cfg.rx_node.index(b) for b in range(cfg.mr)],
        )
        mu = sc.mu[links]
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
        # the taps draw from where the scalar draws leave the substream: link (0, 0) first,
        # its real parts, then its imaginary parts
        active, d = cfg.active_taps[0][0], sc.d[0, 0]
        draws = rng.standard_normal((2, active))
        expected = (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
        assert sc.taps[0, 0, d : d + active].tobytes() == expected.tobytes()

    def test_per_link_takes_a_grid_or_a_stack(self):
        # the last two axes index the (tx node, rx node) pair, whatever leads them
        cfg = node_pair_config()
        pairs = np.arange(4 * cfg.mt * cfg.mr, dtype=float).reshape(4, cfg.mt, cfg.mr)
        loop = np.empty((4, cfg.nt, cfg.nr))
        for i, m in np.ndindex(cfg.nt, cfg.nr):
            loop[..., i, m] = pairs[..., cfg.tx_node[i], cfg.rx_node[m]]
        np.testing.assert_array_equal(cfg.per_link(pairs), loop, strict=True)
        np.testing.assert_array_equal(cfg.per_link(pairs[1]), loop[1], strict=True)
        np.testing.assert_array_equal(cfg.per_link(pairs[1].tolist()), loop[1], strict=True)

    @pytest.mark.parametrize("topology", ["independent", "tx-shared", "rx-shared"])
    def test_drawn_offsets_follow_the_node_pairs(self, topology):
        # link (i, m) takes the scalar draw that the topology gives (tx_node[i], rx_node[m])
        cfg = node_pair_config(topology, {"enabled": True, "mu": "uniform"})
        count = {"independent": cfg.mt * cfg.mr, "tx-shared": cfg.mr, "rx-shared": cfg.mt}
        for t in range(3):
            rng = derive_rng(cfg.seed, 2, t)
            scalars = [0.5 * (1.0 - rng.random()) for _ in range(count[topology])]
            pick = {
                "independent": lambda a, b: scalars[a * cfg.mr + b],
                "tx-shared": lambda a, b: scalars[b],
                "rx-shared": lambda a, b: scalars[a],
            }[topology]
            expected = [[pick(a, b) for b in cfg.rx_node] for a in cfg.tx_node]
            assert synthesize_channels(cfg, derive_rng(cfg.seed, 2, t)).mu.tolist() == expected

    def test_constraint_violation_aborts(self):
        cfg = sec5_config(channel={
            "total_length": 16,
            "active_taps": 10,
            "integer_offsets": [[0, 0, 0], [6, 6, 6]],
        })
        with pytest.raises(ConstraintViolationError):
            synthesize_channels(cfg, derive_rng(cfg.seed, 0))


def node_pair_config(topology="independent", fractional=None):
    """A 3 x 4 antenna config on 2 x 3 nodes whose antennas are not in node order."""
    return sec5_config(
        antennas={"tx_node": [1, 0, 1], "rx_node": [2, 0, 1, 0]},
        channel={"total_length": 15, "active_taps": 10, "integer_offsets": 3},
        fractional=fractional or {"enabled": False},
        waveform={"length": 256, "chirp_rates": [1, 2, 4]},
        lo_topology=topology,
    )


def sounding(waveforms, L, M=0):
    """One sounding matrix per waveform: what reception takes."""
    return [build_sounding_matrix(w, L, M) for w in waveforms]


def single_link_scenario(taps, mu=0.0):
    """1x1 scenario with explicit taps, built without the config machinery."""
    taps = np.asarray(taps, dtype=complex)
    return link_scenario(taps, int(np.argmax(taps != 0)), mu)  # d: leading zeros


def draw_fractional_offsets(cfg, rng):
    """Reference (mt, mr) node-pair offsets in (0, 0.5], a scalar uniform u at a time as
    0.5 (1 - u): one per node pair in row-major order, one per rx node where the transmit
    LOs are shared (tx-shared), one per tx node where the receive ones are (rx-shared)."""
    count = {"tx-shared": cfg.mr, "rx-shared": cfg.mt}.get(cfg.lo_topology, cfg.mt * cfg.mr)
    scalars = [0.5 * (1.0 - rng.random()) for _ in range(count)]
    pick = {
        "tx-shared": lambda a, b: scalars[b],
        "rx-shared": lambda a, b: scalars[a],
    }.get(cfg.lo_topology, lambda a, b: scalars[a * cfg.mr + b])
    return np.array([[pick(a, b) for b in range(cfg.mr)] for a in range(cfg.mt)])


def noise_variance_for_snr(mean_power, snr_db):
    """Reference per-real-dimension sigma^2 giving SNR = mean_power / (2 sigma^2), multiplied
    in the order synthesis uses: mean_power * 10^(-snr/10) / 2."""
    return float(mean_power) * 10.0 ** (-float(snr_db) / 10.0) / 2.0


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

    @pytest.mark.parametrize("add", ["awgn", "block"])
    @pytest.mark.parametrize("bad", [-0.1, np.nan])
    def test_noise_variance_below_zero_or_nan_rejected(self, bad, add):
        # a ValueError, not NaN samples behind a RuntimeWarning (warnings are errors here),
        # from awgn and from the block pass, whose bad variance is in a row k > 0
        with pytest.raises(ValueError):
            if add == "awgn":
                awgn(np.zeros((2, 8), dtype=complex), np.array([0.3, bad]), derive_rng(1, 1, 0))
            else:
                sigma2 = np.full((3, 2), 0.3)
                sigma2[2, 1] = bad
                _noisy(sigma2, np.zeros((3, 2, 2, 8)), np.empty((3, 2, 8), dtype=complex))

    @pytest.mark.parametrize(
        "shape,sigma2", [((3, 8), [1.0]), ((3, 8), 1.0), ((8,), [1.0])],
        ids=["one-variance-for-three-rows", "scalar-variance", "one-dimensional-r0"],
    )
    def test_noise_needs_one_variance_per_row(self, shape, sigma2):
        # row m takes sigma2[m], so a 2-d r0 and sigma2 of shape (rows,), nothing broadcast
        with pytest.raises(DimensionMismatchError):
            awgn(np.zeros(shape, dtype=complex), sigma2, derive_rng(1, 1, 0))

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

    @given(
        nr=st.integers(1, 4),
        N=st.sampled_from([8, 128]),
        sigma2=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6)), min_size=4, max_size=4),
        silent=st.lists(st.booleans(), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(nr=2, N=8, sigma2=[0.0, 0.0, 0.0, 0.0], silent=[True] * 4, seed=0)
    def test_noise_matches_the_broadcast_formula(self, nr, N, sigma2, silent, seed):
        # the in-place build equals r0 + sqrt(sigma2) * (d0 + 1j d1) bit for bit, zero
        # variances and zero signal rows included, and takes the same draws from the stream
        sigma2 = np.array(sigma2[:nr])
        gen = np.random.default_rng(seed)
        r0 = gen.standard_normal((nr, N)) + 1j * gen.standard_normal((nr, N))
        r0[np.array(silent[:nr])] = 0.0
        kept = r0.copy()
        rng, ref_rng = derive_rng(seed, 1, 0), derive_rng(seed, 1, 0)
        draws = ref_rng.standard_normal((nr, 2, N))
        expected = r0 + np.sqrt(sigma2)[:, None] * (draws[:, 0] + 1j * draws[:, 1])
        z = awgn(r0, sigma2, rng)
        assert z.tobytes() == expected.tobytes()
        assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
        assert r0.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("B", [1, 2, 5])
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_awgn_is_a_row_of_the_block_pass(self, seed, B):
        # trial t's stream-(1, t) draws, taken with out= into row k of a block, one pass
        # over the block, and each row's period added as a run adds it give awgn's period
        # bit for bit: one r0 and sigma2 for every row (a fixed channel) and one of each
        # per row (a redrawn one), zero variances included
        nr, N = 3, 64
        gen = np.random.default_rng(seed)
        r0 = gen.standard_normal((B, nr, N)) + 1j * gen.standard_normal((B, nr, N))
        sigma2 = gen.uniform(0.0, 2.0, (B, nr))
        sigma2[:, 1] = 0.0
        draws = np.empty((B, nr, 2, N))
        for k in range(B):
            derive_rng(seed, 1, 5 + k).standard_normal(out=draws[k])
        shared, per_row = np.empty((2, B, nr, N), complex)
        _noisy(sigma2[0], draws, shared)
        _noisy(sigma2, draws, per_row)
        for k in range(B):
            shared[k] += r0[0]
            per_row[k] += r0[k]
            single = awgn(r0[0], sigma2[0], derive_rng(seed, 1, 5 + k))
            assert shared[k].tobytes() == single.tobytes()
            single = awgn(r0[k], sigma2[k], derive_rng(seed, 1, 5 + k))
            assert per_row[k].tobytes() == single.tobytes()

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
