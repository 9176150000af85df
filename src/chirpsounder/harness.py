"""Monte-Carlo experiment orchestration, deterministic RNG streams, and output.

Randomness is derived from the configured seed through a counter-based
generator (Philox) with explicit stream splitting, so results do not depend
on execution order and are byte-reproducible:

    stream (0,)        channel synthesis (taps, initial fractional offsets)
    stream (1, t)      receiver noise of trial t
    stream (2, t)      fractional offsets redrawn for trial t
    stream (3, t)      channel taps redrawn for trial t (only with
                       ``redraw_per_trial``)

Reception (``channel.receive_*``) is noiseless; each run adds the noise of
trial t with ``awgn`` from stream (1, t).

Every CSV table, the CLI's included, is written by ``write_table`` with
fixed 12-significant-digit decimal formatting; wall-clock time and
timestamps live only in the ``run_meta.json`` sidecar so repeated runs with
the same config and seed produce byte-identical CSV and record payloads.
"""

import hashlib
import json
import os
import time
from dataclasses import astuple, dataclass, replace

import numpy as np

from .channel import (
    awgn,
    build_pulse,
    draw_fractional_offsets,
    receive_fractional,
    receive_integer,
    synthesize_channels,
)
from .errors import ConfigError
from .estimator import (
    build_sounding_matrix,
    joint_estimate,
    matched_filter_fractional,
    matched_filter_integer,
    segmented_output,
)
from .metrics import capacity_equivalence_report, crb
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


def _result(kind, cfg, t0, waveforms=(), trials=None, **fields):
    """The ``kind`` RunResult of ``cfg``, a run that started at ``t0``.

    ``papr`` lists the ``waveforms``; ``trials`` defaults to ``cfg.trials``.
    """
    echo = cfg.canonical_json()
    return RunResult(
        kind=kind,
        run_id=hashlib.sha256(f"{kind}\n{echo}".encode()).hexdigest()[:12],
        config_echo=echo,
        seed=cfg.seed,
        trials=cfg.trials if trials is None else trials,
        papr=tuple((w.p, papr(w.samples)) for w in waveforms),
        wall_clock_s=time.perf_counter() - t0,
        **fields,
    )


def _waveforms(cfg):
    return [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]


def run_mse_experiment(cfg):
    """Monte-Carlo channel sounding MSE against the variance bound.

    Each trial draws fresh noise (and, per config, fresh fractional offsets
    or fresh taps) from its own substream, estimates every link with the
    matched filter (plus the joint offset estimator in the fractional case),
    and accumulates squared errors.  An antenna's bound is 2*L*sigma2, its
    trial mean when redrawn taps change sigma2.  An antenna with no noise
    (no active taps into it, or an SNR whose noise level underflows) has no
    bound, which is a ``ConfigError`` before any trial runs.
    """
    t0 = time.perf_counter()
    waveforms = _waveforms(cfg)
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    L = cfg.total_length
    pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
    matrices = [build_sounding_matrix(w, L, cfg.lead) for w in waveforms]

    if not scenario.sigma2.all():
        m = int(np.flatnonzero(scenario.sigma2 == 0)[0])
        raise ConfigError(f"rx antenna {m} has zero noise variance; MSE/CRB is undefined")

    sq_err = np.zeros((cfg.nt, cfg.nr))
    redrawn = []  # per-trial noise levels of redrawn channels
    nonconverged = 0
    redraw_mu = cfg.fractional and cfg.mu_values is None
    base = None if (cfg.redraw_per_trial or redraw_mu) else _received(
        cfg, scenario, waveforms, pulse
    )

    for t in range(cfg.trials):
        if cfg.redraw_per_trial:
            scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 3, t))
            redrawn.append(scenario.sigma2)
        trial_scenario = scenario
        if redraw_mu:
            mu_pairs = draw_fractional_offsets(cfg, derive_rng(cfg.seed, 2, t))
            trial_scenario = replace(scenario, mu=cfg.per_link(mu_pairs))
        r0 = base if base is not None else _received(
            cfg, trial_scenario, waveforms, pulse
        )
        r = awgn(r0, trial_scenario.sigma2, derive_rng(cfg.seed, 1, t))
        for m in range(cfg.nr):
            for i in range(cfg.nt):
                truth = trial_scenario.taps[i, m]
                if cfg.fractional:
                    hF = matched_filter_fractional(matrices[i], r[m])
                    rep = joint_estimate(hF, pulse, L)
                    if not rep.converged:
                        nonconverged += 1
                    h_hat = rep.h_hat
                else:
                    h_hat = matched_filter_integer(matrices[i], r[m])
                sq_err[i, m] += float(np.sum(np.abs(h_hat - truth) ** 2))
    sq_err /= cfg.trials
    sigma2 = np.mean(redrawn, axis=0) if redrawn else scenario.sigma2

    links = []
    antennas = []
    for m in range(cfg.nr):
        bound = crb(L, sigma2[m])
        for i in range(cfg.nt):
            links.append(
                LinkResult(
                    tx=i, rx=m, mse=sq_err[i, m], crb=bound, ratio=sq_err[i, m] / bound
                )
            )
        agg = float(sq_err[:, m].mean())
        antennas.append(AntennaResult(rx=m, mse=agg, crb=bound, ratio=agg / bound))

    return _result(
        "mse",
        cfg,
        t0,
        waveforms,
        links=tuple(links),
        antennas=tuple(antennas),
        nonconverged=nonconverged,
    )


def _received(cfg, scenario, waveforms, pulse):
    if cfg.fractional:
        return receive_fractional(scenario, waveforms, pulse)
    return receive_integer(scenario, waveforms)


def run_capacity_experiment(cfg):
    """Synchronous vs asynchronous capacity over the configured SNR sweep."""
    t0 = time.perf_counter()
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    rows = capacity_equivalence_report(scenario, cfg.capacity_bins, cfg.rho_db)
    return _result("capacity", cfg, t0, capacity=rows)


def run_sounding(cfg):
    """One sounding realization; emits full-period matched-filter traces.

    The trace for (waveform i, antenna m) is the magnitude of the N-column
    matched filter output, which shows the 2p sign-alternating replicas of
    the channel response.
    """
    t0 = time.perf_counter()
    waveforms = _waveforms(cfg)
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
    r0 = _received(cfg, scenario, waveforms, pulse)
    r = awgn(r0, scenario.sigma2, derive_rng(cfg.seed, 1, 0))
    traces = []
    for i, w in enumerate(waveforms):
        for m in range(cfg.nr):
            out = segmented_output(w, r[m], cfg.lead).ravel()
            traces.append((i, m, tuple(float(v) for v in np.abs(out))))
    return _result("sound", cfg, t0, waveforms, trials=1, traces=tuple(traces))


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{float(value):.12e}"


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write result file {path}: {exc}") from exc
    return path


def write_table(path, header, rows):
    """Write one CSV table and return its path.

    ``header`` is the comma-separated column line; each row is a sequence of
    integers (written as is) and reals (12-significant-digit scientific).
    """
    lines = [header]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
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

    if result.kind == "mse":  # the columns are the row fields, in order
        tables = {
            "mse.csv": ("link_tx,link_rx,mse,crb,ratio", map(astuple, result.links)),
            "antenna_mse.csv": ("rx,mse,crb,ratio", map(astuple, result.antennas)),
        }
    elif result.kind == "capacity":
        rows = [(c.rho_db, c.c_syn, c.c_asyn, c.max_bin_gap) for c in result.capacity]
        tables = {"capacity.csv": ("rho_db,c_syn,c_asyn,max_bin_gap", rows)}
    else:
        tables = {
            f"trace_tx{i}_rx{m}.csv": ("n,magnitude", enumerate(mag))
            for i, m, mag in result.traces
        }
    for name, (header, rows) in tables.items():
        paths.append(write_table(os.path.join(outdir, name), header, rows))
    return paths
