"""Monte-Carlo experiment orchestration, deterministic RNG streams, and output.

Randomness is derived from the configured seed through a counter-based
generator (Philox) with explicit stream splitting, so results do not depend
on execution order and are byte-reproducible:

    stream (0,)        channel synthesis (uniform fractional offsets, then taps)
    stream (1, t)      receiver noise of trial t
    stream (2, t)      the channel redrawn for trial t: its uniform fractional
                       offsets, then (only with ``redraw_per_trial``) its taps

Stream (s, t) is Philox keyed by ``SeedSequence(seed, spawn_key=(s,))``, its
counter word 2 set to t: ``derive_rng(seed, s, t)``, numpy's ``jumped(t)`` of
stream s.  Jumps are 2**128 outputs apart, so no two trials' draws overlap.  A
run takes the key of each per-trial stream once and re-keys its one generator,
the stream-(0,) one, to each trial's counter.

A synthesis stream yields the uniform offsets, then all active taps in one draw,
link by link in (tx, rx) order, real parts before imaginary parts.  So trial t
takes the same offsets and noise whether or not its taps are redrawn.  Only
these draws are taken per trial in a redraw, into a block's buffers; one
``channel._channel_block`` pass, the one ``synthesize_channels`` makes at B = 1,
turns the block into offsets, taps and noise levels, so trial t's channel is
bit for bit ``synthesize_channels`` on stream (2, t).

Reception (``channel.receive_*``) is noiseless; the noise of trial t comes from
stream (1, t).  ``sound`` adds it with ``awgn``.  An ``mse`` trial takes only its
draws, into row t mod B of a block's buffer; one ``channel._noisy`` pass, the one
``awgn`` makes at B = 1, writes the block's noise into the run's one received
buffer, and each trial adds its noiseless period to its row, so trial t's row is
bit for bit ``awgn`` on stream (1, t).  ``mse`` and ``sound`` share one setup: the
waveforms, the stream-(0,) channel, the pulse and the matrices; ``run_mse_experiment``
says how its blocks of B trials keep memory O(B) and every output free of B.

Every CSV table, the CLI's included, is written by ``write_table`` from
equal-length columns with one %-format: an integer or bool column as is, a
real one as ``%.12e`` (13 significant digits).
The record (``RunResult.to_dict``) is every ``RunResult`` field except
``wall_clock_s``: wall-clock time and timestamps live only in the
``run_meta.json`` sidecar, so repeated runs with the same config and seed
produce byte-identical CSV and record payloads.
The sidecar also records the numpy version and the BLAS thread settings.
"""

import hashlib
import json
import os
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from .channel import (
    MimoScenario,
    _channel_block,
    _draw_shapes,
    _noisy,
    awgn,
    build_pulse,
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


def derive_rng(seed, stream, trial=0):
    """Generator of stream ``(stream, trial)`` of the experiment's seed.

    Philox keyed by ``SeedSequence(seed, spawn_key=(stream,))``, its counter word 2
    set to ``trial``: numpy's ``Philox(...).jumped(trial)``.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq, counter=int(trial) << 128))


# run_mse_experiment takes B = min(_TRIAL_BLOCK, trials, _BLOCK_BYTES // (7 * 16*nr*N)) trials
# per block, at least 1: 16*nr*N bytes are one trial's noise draws, and 7 of them bound its arrays
_TRIAL_BLOCK = 64
_BLOCK_BYTES = 1 << 20


def _key(seed, stream):
    """The Philox key of ``stream``, as a list: numpy's, which ``derive_rng(seed, stream)`` uses."""
    return np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64).tolist()


def _rekeyed(rng, key, trial):
    """``rng``, its Philox set where ``derive_rng`` starts trial ``trial`` of stream ``key``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, trial, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
    traces: tuple = ()  # (tx, rx, read-only magnitude array) triples for segment plots
    nonconverged: int = 0
    wall_clock_s: float = 0.0  # run_meta.json only

    def to_dict(self):
        """The deterministic payload: every field except ``wall_clock_s``."""
        record = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_clock_s"}
        for key in ("links", "antennas", "capacity"):
            record[key] = [vars(row) for row in record[key]]
        record["papr"] = [{"chirp_rate": p, "papr": v} for p, v in self.papr]
        record["traces"] = [
            {"tx": i, "rx": m, "magnitude": mag.tolist()} for i, m, mag in self.traces
        ]
        return record


def _result(kind, cfg, t0, waveforms=(), trials=None, **payload):
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
        **payload,
    )


def _setup(cfg, rng):
    """The waveforms, the channel drawn from ``rng``, the pulse and each waveform's sounding matrix.

    ``rng`` is ``derive_rng(cfg.seed, 0)``, the synthesis stream.
    """
    waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
    scenario = synthesize_channels(cfg, rng)
    pulse = build_pulse(cfg.pulse_rolloff, cfg.pulse_half_support)
    matrices = [build_sounding_matrix(w, cfg.total_length, cfg.lead) for w in waveforms]
    return waveforms, scenario, pulse, matrices


def run_mse_experiment(cfg):
    """Monte-Carlo channel sounding MSE against the variance bound.

    Trial t draws its noise from stream (1, t) and, per config, its uniform fractional
    offsets and then its taps from stream (2, t), as stream (0,) draws the base channel.  A
    block of B trials takes these draws one trial at a time into row t mod B of its buffers,
    then turns the redraws into every trial's channel in one pass; the taps and noise levels
    not redrawn are read-only views of the base channel's.  One ``_noisy`` pass, the one
    ``awgn`` makes at B = 1, checks the block's sigma2 and writes its noise, scaled by the
    square root, into the run's one received buffer.  Each trial then adds its noiseless
    period to its row (the run's one period of a fixed channel, or that of its own checked
    ``MimoScenario``) and makes ``nt*nr`` matched-filter calls (each followed by the joint
    offset estimator in the fractional case), its estimates in row t mod B of a block.  Each
    block's squared errors are added in trial order, so the outputs do not depend on B, and
    memory is O(B) at any trial count, B as ``_BLOCK_BYTES`` sets it.  An antenna's bound is
    2*L*sigma2, its trial mean (summed in trial order) when redrawn taps change sigma2.  An
    antenna with no noise (no active taps into it, or an SNR whose noise level underflows)
    has no bound, which is a ``ConfigError`` before any trial runs.
    """
    t0 = time.perf_counter()
    rng = derive_rng(cfg.seed, 0)  # draws the channel, then is re-keyed to each trial's streams
    waveforms, base, pulse, matrices = _setup(cfg, rng)
    L = cfg.total_length

    if not base.sigma2.all():
        m = int(np.flatnonzero(base.sigma2 == 0)[0])
        raise ConfigError(f"rx antenna {m} has zero noise variance; MSE/CRB is undefined")

    u_shape, n_draws = _draw_shapes(cfg)
    redraw = cfg.redraw_per_trial or u_shape is not None
    r0 = None if redraw else _received(cfg, base, matrices, pulse)  # serves every trial
    pairs = [(i, m, matrices[i]) for m in range(cfg.nr) for i in range(cfg.nt)]
    # c = 7 in B's rule.  P = 16*nr*N bytes are one trial's noise draws, and as many its
    # received row.  Every other array a block makes holds at most 16*nt*nr*L bytes a trial
    # (estimates, taps, tap draws, the error and its temporaries), under P/2, as
    # N > 2*pmax*L >= 2*nt*L (distinct power-of-two rates give pmax >= nt).  So a trial holds
    # two P and at most six tap-sized arrays, under 5 P, and 7 leaves margin; a reception's
    # temporaries are one trial's, not the block's.
    B = max(1, min(_TRIAL_BLOCK, cfg.trials,
                   _BLOCK_BYTES // (7 * 16 * cfg.nr * cfg.waveform_length)))
    h_hat = np.empty((B, *base.taps.shape), complex)
    noise = np.empty((B, cfg.nr, 2, cfg.waveform_length))
    r = np.empty((B, cfg.nr, cfg.waveform_length), complex)  # each trial's received row
    u = np.empty((B, *u_shape)) if u_shape else None
    draws = np.empty((B, n_draws)) if cfg.redraw_per_trial else None
    # every trial's taps and noise levels: read-only views of the base channel's, until redrawn
    taps, sigma2s = (np.broadcast_to(a, (B, *a.shape)) for a in (base.taps, base.sigma2))
    sq_sum, sigma2_sum = np.zeros((cfg.nt, cfg.nr)), np.zeros(cfg.nr)  # errors, redrawn sigma2
    nonconverged = 0

    # each per-trial stream's key, once per run; trial t draws from (2, t), then (1, t)
    key_redraw = _key(cfg.seed, 2) if redraw else None
    key_noise = _key(cfg.seed, 1)
    for start in range(0, cfg.trials, B):
        n = min(B, cfg.trials - start)
        for k in range(n):  # each trial's stream-(2, t) draws, if redrawn, then its noise
            if redraw:
                _rekeyed(rng, key_redraw, start + k)
                if u is not None:
                    rng.random(out=u[k])
                if draws is not None:
                    rng.standard_normal(out=draws[k])
            _rekeyed(rng, key_noise, start + k).standard_normal(out=noise[k])
        if redraw:  # one pass over the block's draws makes its channels
            mu, *redrawn = _channel_block(
                cfg, None if u is None else u[:n], None if draws is None else draws[:n]
            )
            if draws is not None:
                taps, sigma2s = redrawn
                sigma2_sum = _fold(sigma2_sum, sigma2s)
        _noisy(sigma2s[:n], noise[:n], r[:n])  # one pass writes the block's noise
        for k in range(n):  # each trial adds its noiseless period to its row, then estimates
            r[k] += r0 if not redraw else _received(
                cfg, MimoScenario(taps[k], base.d, mu[k], sigma2s[k]), matrices, pulse
            )
            if cfg.fractional:
                for i, m, S in pairs:
                    rep = joint_estimate(matched_filter_fractional(S, r[k, m]), pulse, L)
                    nonconverged += not rep.converged
                    h_hat[k, i, m] = rep.h_hat
            else:
                for i, m, S in pairs:
                    h_hat[k, i, m] = matched_filter_integer(S, r[k, m])
        sq_sum = _fold(sq_sum, np.sum(np.abs(h_hat[:n] - taps[:n]) ** 2, axis=-1))
    sq_err = sq_sum / cfg.trials
    sigma2 = sigma2_sum / cfg.trials if cfg.redraw_per_trial else base.sigma2

    links, antennas = [], []
    for m in range(cfg.nr):
        bound = crb(L, sigma2[m])
        links += [LinkResult(i, m, e, bound, e / bound) for i, e in enumerate(sq_err[:, m])]
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


def _fold(total, rows):
    """``total`` plus each of ``rows`` in turn, in trial order, so no sum depends on B."""
    return np.add.accumulate(np.concatenate((total[None], rows)))[-1]


def _received(cfg, scenario, matrices, pulse):
    if cfg.fractional:
        return receive_fractional(scenario, matrices, pulse)
    return receive_integer(scenario, matrices)


def run_capacity_experiment(cfg):
    """Synchronous vs asynchronous capacity over the configured SNR sweep."""
    t0 = time.perf_counter()
    scenario = synthesize_channels(cfg, derive_rng(cfg.seed, 0))
    rows = capacity_equivalence_report(scenario, cfg.capacity_bins, cfg.rho_db)
    return _result("capacity", cfg, t0, trials=1, capacity=rows)


def run_sounding(cfg):
    """One sounding realization; emits full-period matched-filter traces.

    The trace for (waveform i, antenna m) is the magnitude of the N-column
    matched filter output, which shows the 2p sign-alternating replicas of
    the channel response.
    """
    t0 = time.perf_counter()
    waveforms, scenario, pulse, matrices = _setup(cfg, derive_rng(cfg.seed, 0))
    r0 = _received(cfg, scenario, matrices, pulse)
    r = awgn(r0, scenario.sigma2, derive_rng(cfg.seed, 1, 0))
    traces = []
    for i, w in enumerate(waveforms):
        for m in range(cfg.nr):
            mag = np.abs(segmented_output(w, r[m], cfg.lead).ravel())
            mag.flags.writeable = False
            traces.append((i, m, mag))
    return _result("sound", cfg, t0, waveforms, trials=1, traces=tuple(traces))


def _makedirs(outdir):
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {outdir}: {exc}") from exc


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write result file {path}: {exc}") from exc
    return path


def write_table(path, header, columns):
    """Write one CSV table of equal-length columns and return its path.

    ``header`` is the comma-separated column line.  Each column is taken as a
    numpy array: an integer or bool column is written as is (bools as
    ``True``/``False``), a real one as ``%.12e`` (13 significant digits).  The
    body is one %-format; unequal lengths, or a column of another dtype, raise
    ``ValueError`` before the file is opened.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if any(len(c) != n or c.dtype.kind not in "biuf" for c in columns):
        kinds = [f"{c.dtype}[{len(c)}]" for c in columns]
        raise ValueError(f"{path}: need real columns of one length, got {kinds}")
    row = ",".join("%s" if c.dtype.kind in "biu" else "%.12e" for c in columns) + "\n"
    values = [None] * (n * len(columns))  # row-major: column j at j, j + k, ... of k columns
    for j, c in enumerate(columns):
        values[j :: len(columns)] = c.tolist()
    return _write(path, header + "\n" + row * n % tuple(values))


def emit_results(result, outdir, fmt="csv"):
    """Write a run's outputs under ``outdir``; returns the created paths.

    CSV and record payloads contain only deterministic data; the run id
    sidecar holds the timestamp, wall-clock, numpy version and the BLAS
    thread variables (null when unset).  The ``record`` format
    writes ``RunResult.to_dict()`` as JSON.
    """
    if fmt not in ("csv", "record"):
        raise ValueError(f"format must be 'csv' or 'record', got {fmt!r}")
    _makedirs(outdir)

    paths = []
    meta = {
        "run_id": result.run_id,
        "kind": result.kind,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_clock_s": result.wall_clock_s,
        "numpy": np.__version__,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
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
            "mse.csv": ("link_tx,link_rx,mse,crb,ratio", zip(*map(astuple, result.links))),
            "antenna_mse.csv": ("rx,mse,crb,ratio", zip(*map(astuple, result.antennas))),
        }
    elif result.kind == "capacity":
        rows = [(c.rho_db, c.c_syn, c.c_asyn, c.max_bin_gap) for c in result.capacity]
        tables = {"capacity.csv": ("rho_db,c_syn,c_asyn,max_bin_gap", zip(*rows))}
    else:
        tables = {
            f"trace_tx{i}_rx{m}.csv": ("n,magnitude", (np.arange(len(mag)), mag))
            for i, m, mag in result.traces
        }
    for name, (header, columns) in tables.items():
        paths.append(write_table(os.path.join(outdir, name), header, columns))
    return paths
