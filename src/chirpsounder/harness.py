"""Monte-Carlo experiment orchestration, deterministic RNG streams, and output.

Randomness is derived from the configured seed through a counter-based
generator (Philox) with explicit stream splitting, so results do not depend
on execution order and are byte-reproducible:

    stream (0,)        channel synthesis (taps, initial fractional offsets)
    stream (1, t)      receiver noise of trial t
    stream (2, t)      fractional offsets redrawn for trial t
    stream (3, t)      channel taps redrawn for trial t (only with
                       ``redraw_per_trial``)

Result files are written with fixed 12-significant-digit decimal formatting;
wall-clock time and timestamps live only in the ``run_meta.json`` sidecar so
repeated runs with the same config and seed produce byte-identical CSV and
record payloads.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .channel import (
    awgn,
    build_pulse,
    draw_fractional_offsets,
    receive_fractional,
    receive_integer,
    synthesize_channels,
    with_fractional_offsets,
)
from .estimator import (
    build_sounding_matrix,
    joint_estimate,
    matched_filter_fractional,
    matched_filter_integer,
    segmented_output,
)
from .metrics import FrequencyGrid, capacity_equivalence_report, crb
from .waveform import generate_chirp, papr


def derive_rng(seed, *key):
    """Generator for one named substream of the experiment's seed."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class LinkResult:
    tx: int
    rx: int
    mse: float
    crb: float
    ratio: float


@dataclass(frozen=True)
class AntennaResult:
    rx: int
    mse: float
    crb: float
    ratio: float


@dataclass(frozen=True)
class CapacityRow:
    rho_db: float
    c_syn: float
    c_asyn: float
    max_bin_gap: float
    equal: bool


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything one experiment run produced, plus its exact configuration."""

    kind: str
    run_id: str
    config_echo: str
    seed: int
    trials: int
    papr: tuple = ()
    links: tuple = ()
    antennas: tuple = ()
    capacity: tuple = ()
    traces: tuple = ()  # (tx, rx, magnitudes) triples for segment plots
    nonconverged: int = 0
    wall_clock_s: float = 0.0  # run_meta.json only

    def to_dict(self):
        """The deterministic payload: every field except ``wall_clock_s``."""
        return {
            "kind": self.kind,
            "run_id": self.run_id,
            "config_echo": self.config_echo,
            "seed": self.seed,
            "trials": self.trials,
            "papr": [{"chirp_rate": p, "papr": v} for p, v in self.papr],
            "links": [vars(l) for l in self.links],
            "antennas": [vars(a) for a in self.antennas],
            "capacity": [vars(c) for c in self.capacity],
            "traces": [
                {"tx": i, "rx": m, "magnitude": list(mag)} for i, m, mag in self.traces
            ],
            "nonconverged": self.nonconverged,
        }


def _run_id(kind, echo):
    return hashlib.sha256(f"{kind}\n{echo}".encode()).hexdigest()[:12]


def _waveforms(cfg):
    return [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]


def _noiseless(scenario):
    return replace(scenario, sigma2=np.zeros(scenario.nr))


def run_mse_experiment(cfg):
    """Monte-Carlo channel sounding MSE against the variance bound.

    Each trial draws fresh noise (and, per config, fresh fractional offsets
    or fresh taps) from its own substream, estimates every link with the
    matched filter (plus the joint offset estimator in the fractional case),
    and accumulates squared errors.
    """
    t0 = time.perf_counter()
    waveforms = _waveforms(cfg)
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    L = cfg.total_length
    M = cfg.pulse_half_support
    pulse = build_pulse(cfg.pulse_kind, cfg.pulse_rolloff, M)
    kind = "fractional" if cfg.fractional else "integer"
    matrices = [build_sounding_matrix(w, L, kind=kind, M=M) for w in waveforms]

    sq_err = np.zeros((cfg.nt, cfg.nr))
    nonconverged = 0
    redraw_mu = cfg.fractional and cfg.mu_mode == "uniform"
    base = None if (cfg.redraw_per_trial or redraw_mu) else _received(
        cfg, _noiseless(scenario), waveforms, pulse
    )

    for t in range(cfg.trials):
        if cfg.redraw_per_trial:
            scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 3, t))
        trial_scenario = scenario
        if redraw_mu:
            mu_pairs = draw_fractional_offsets(cfg, derive_rng(cfg.seed, 2, t))
            trial_scenario = with_fractional_offsets(scenario, mu_pairs)
        r0 = base if base is not None else _received(
            cfg, _noiseless(trial_scenario), waveforms, pulse
        )
        r = awgn(r0, trial_scenario.sigma2, derive_rng(cfg.seed, 1, t))
        for m in range(cfg.nr):
            for i in range(cfg.nt):
                truth = trial_scenario.link(i, m).taps
                if cfg.fractional:
                    hF = matched_filter_fractional(matrices[i], r[m])
                    rep = joint_estimate(hF, pulse, L, M)
                    if not rep.converged:
                        nonconverged += 1
                    h_hat = rep.h_hat
                else:
                    h_hat = matched_filter_integer(matrices[i], r[m])
                sq_err[i, m] += float(np.sum(np.abs(h_hat - truth) ** 2))
    sq_err /= cfg.trials

    links = []
    antennas = []
    for m in range(cfg.nr):
        bound = crb(L, scenario.sigma2[m])
        for i in range(cfg.nt):
            links.append(
                LinkResult(
                    tx=i, rx=m, mse=sq_err[i, m], crb=bound, ratio=sq_err[i, m] / bound
                )
            )
        agg = float(sq_err[:, m].mean())
        antennas.append(AntennaResult(rx=m, mse=agg, crb=bound, ratio=agg / bound))

    echo = cfg.canonical_json()
    return RunResult(
        kind="mse",
        run_id=_run_id("mse", echo),
        config_echo=echo,
        seed=cfg.seed,
        trials=cfg.trials,
        papr=tuple((w.p, papr(w.samples)) for w in waveforms),
        links=tuple(links),
        antennas=tuple(antennas),
        nonconverged=nonconverged,
        wall_clock_s=time.perf_counter() - t0,
    )


def _received(cfg, scenario, waveforms, pulse, rng=None):
    if cfg.fractional:
        return receive_fractional(scenario, waveforms, pulse, rng)
    return receive_integer(scenario, waveforms, rng)


def run_capacity_experiment(cfg):
    """Synchronous vs asynchronous capacity over the configured SNR sweep."""
    t0 = time.perf_counter()
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    grid = FrequencyGrid(cfg.capacity_bins)
    rows = []
    for rho_db in cfg.rho_db:
        rho = 0.0 if rho_db == -np.inf else 10.0 ** (rho_db / 10.0)
        rep = capacity_equivalence_report(scenario, grid, rho)
        rows.append(
            CapacityRow(
                rho_db=float(rho_db),
                c_syn=rep.c_syn,
                c_asyn=rep.c_asyn,
                max_bin_gap=rep.max_bin_gap,
                equal=rep.equal,
            )
        )
    echo = cfg.canonical_json()
    return RunResult(
        kind="capacity",
        run_id=_run_id("capacity", echo),
        config_echo=echo,
        seed=cfg.seed,
        trials=cfg.trials,
        capacity=tuple(rows),
        wall_clock_s=time.perf_counter() - t0,
    )


def run_sounding(cfg):
    """One sounding realization; emits full-period matched-filter traces.

    The trace for (waveform i, antenna m) is the magnitude of the N-column
    matched filter output, which shows the 2p sign-alternating replicas of
    the channel response.
    """
    t0 = time.perf_counter()
    waveforms = _waveforms(cfg)
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    pulse = build_pulse(cfg.pulse_kind, cfg.pulse_rolloff, cfg.pulse_half_support)
    r = _received(cfg, scenario, waveforms, pulse, derive_rng(cfg.seed, 1, 0))
    offset = cfg.pulse_half_support if cfg.fractional else 0
    traces = []
    for i, w in enumerate(waveforms):
        for m in range(cfg.nr):
            out = segmented_output(w, r[m], offset).full
            traces.append((i, m, tuple(float(v) for v in np.abs(out))))
    echo = cfg.canonical_json()
    return RunResult(
        kind="sound",
        run_id=_run_id("sound", echo),
        config_echo=echo,
        seed=cfg.seed,
        trials=1,
        papr=tuple((w.p, papr(w.samples)) for w in waveforms),
        traces=tuple(traces),
        wall_clock_s=time.perf_counter() - t0,
    )


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12e}"


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write result file {path}: {exc}") from exc
    return path


def _write_lines(path, lines):
    return _write(path, "\n".join(lines) + "\n")


def emit_results(result, outdir, fmt="csv"):
    """Write a run's outputs under ``outdir``; returns the created paths.

    CSV and record payloads contain only deterministic data; the run id
    sidecar holds the timestamp and wall-clock.  The ``record`` format
    writes ``RunResult.to_dict()`` as JSON.
    """
    if fmt not in ("csv", "record"):
        raise ValueError(f"format must be 'csv' or 'record', got {fmt!r}")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {outdir}: {exc}") from exc

    paths = []
    meta = {
        "run_id": result.run_id,
        "kind": result.kind,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_clock_s": result.wall_clock_s,
    }
    paths.append(
        _write(os.path.join(outdir, "run_meta.json"), json.dumps(meta, indent=2) + "\n")
    )
    paths.append(_write(os.path.join(outdir, "config_echo.json"), result.config_echo))

    if fmt == "record":
        paths.append(
            _write(
                os.path.join(outdir, "result.json"),
                json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            )
        )
        return paths

    if result.kind == "mse":
        lines = ["link_tx,link_rx,mse,crb,ratio"]
        for row in result.links:
            lines.append(
                f"{row.tx},{row.rx},{_fmt(row.mse)},{_fmt(row.crb)},{_fmt(row.ratio)}"
            )
        paths.append(_write_lines(os.path.join(outdir, "mse.csv"), lines))
        lines = ["rx,mse,crb,ratio"]
        for row in result.antennas:
            lines.append(f"{row.rx},{_fmt(row.mse)},{_fmt(row.crb)},{_fmt(row.ratio)}")
        paths.append(_write_lines(os.path.join(outdir, "antenna_mse.csv"), lines))
    elif result.kind == "capacity":
        lines = ["rho_db,c_syn,c_asyn,max_bin_gap"]
        for row in result.capacity:
            lines.append(
                f"{_fmt(row.rho_db)},{_fmt(row.c_syn)},{_fmt(row.c_asyn)},"
                f"{_fmt(row.max_bin_gap)}"
            )
        paths.append(_write_lines(os.path.join(outdir, "capacity.csv"), lines))
    elif result.kind == "sound":
        for i, m, mag in result.traces:
            lines = ["n,magnitude"]
            lines.extend(f"{n},{_fmt(v)}" for n, v in enumerate(mag))
            path = os.path.join(outdir, f"trace_tx{i}_rx{m}.csv")
            paths.append(_write_lines(path, lines))
    return paths
