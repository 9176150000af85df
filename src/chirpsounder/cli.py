"""Command line interface.

Subcommands: generate, correlate, check, sound, mse, capacity.  Every
command takes a scenario either from ``--config FILE`` or from a built-in
``--preset`` (default ``paper-sec5``).  The commands that run an experiment
(sound, mse and capacity) also take ``--seed`` and ``--format`` (``csv`` or
``record``); mse, the only one that runs more than one trial, also takes
``--trials``.  Overrides are validated like the config fields they replace.
The argument parser is built once per process and reused by every ``main`` call.

Exit codes: 0 success, 2 configuration or constraint error, 3 numerical
failure (including flagged non-convergence), 4 I/O error.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import config as config_mod
from .errors import ConfigError, ConstraintViolationError, NumericalError
from .harness import (
    emit_results,
    run_capacity_experiment,
    run_mse_experiment,
    run_sounding,
    write_table,
)
from .waveform import cyclic_correlation, generate_chirp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _add_common(parser):
    parser.add_argument("--config", help="path to a scenario JSON file")
    parser.add_argument(
        "--preset",
        choices=sorted(config_mod.PRESETS),
        help="built-in scenario (default: paper-sec5)",
    )
    parser.add_argument("--out", default="out", help="output directory (default: ./out)")


def _load_config(args):
    if args.config and args.preset:
        raise ConfigError("--config and --preset are mutually exclusive")
    if args.config:
        cfg = config_mod.load(args.config)
    else:
        cfg = config_mod.preset(args.preset or "paper-sec5")
    overrides = {k: getattr(args, k, None) for k in ("seed", "trials")}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    return cfg.replace(**overrides) if overrides else cfg


def _cmd_generate(args):
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    for p in cfg.chirp_rates:
        w = generate_chirp(p, cfg.waveform_length)
        path = os.path.join(args.out, f"waveform_p{p}_N{w.N}.csv")
        print(write_table(path, "n,re,im", (np.arange(w.N), w.samples.real, w.samples.imag)))
    return EXIT_OK


def _cmd_correlate(args):
    cfg = _load_config(args)
    waveforms = [generate_chirp(p, cfg.waveform_length) for p in cfg.chirp_rates]
    N = cfg.waveform_length
    os.makedirs(args.out, exist_ok=True)

    def table(pairs):
        # columns p, q, tau, re, im over each pair's N lags: the periodic correlation
        # of a with b at lag tau is conj(cyclic_correlation(b, a))[tau]
        c = np.conj([cyclic_correlation(b.samples, a.samples) for a, b in pairs]).reshape(-1)
        ends = [np.repeat([w.p for w in ws], N) for ws in zip(*pairs)]
        return (*ends, np.tile(np.arange(N), len(pairs)), c.real, c.imag)

    auto = table([(w, w) for w in waveforms])[1:]  # q repeats p
    print(write_table(os.path.join(args.out, "autocorrelation.csv"), "p,tau,re,im", auto))
    cross = table([(a, b) for k, a in enumerate(waveforms) for b in waveforms[k + 1 :]])
    print(write_table(os.path.join(args.out, "crosscorrelation.csv"), "p,q,tau,re,im", cross))
    return EXIT_OK


def _cmd_check(args):
    cfg = _load_config(args)
    report = cfg.design_report()
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: {report.condition}")
    print(f"slack: {report.slack} (window {report.window})")
    return EXIT_OK


def _emit(args, result):
    for path in emit_results(result, args.out, args.format):
        print(path)
    return result


def _cmd_sound(args):
    _emit(args, run_sounding(_load_config(args)))
    return EXIT_OK


def _cmd_mse(args):
    result = _emit(args, run_mse_experiment(_load_config(args)))
    for row in result.antennas:
        print(
            f"rx {row.rx}: mse={row.mse:.6e} crb={row.crb:.6e} ratio={row.ratio:.4f}"
        )
    if result.nonconverged:
        print(
            f"warning: joint estimator failed to converge in "
            f"{result.nonconverged} link-trials",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_capacity(args):
    result = _emit(args, run_capacity_experiment(_load_config(args)))
    for row in result.capacity:
        flag = "equal" if row.equal else f"gap {row.max_bin_gap:.3e}"
        print(
            f"rho {row.rho_db:g} dB: c_syn={row.c_syn:.6f} "
            f"c_asyn={row.c_asyn:.6f} ({flag})"
        )
    return EXIT_OK


_COMMANDS = {
    "generate": (_cmd_generate, "write the configured waveforms to CSV"),
    "correlate": (_cmd_correlate, "write auto/cross correlation tables"),
    "check": (_cmd_check, "report the design-constraint check"),
    "sound": (_cmd_sound, "one sounding realization with matched-filter traces"),
    "mse": (_cmd_mse, "Monte-Carlo MSE experiment against the variance bound"),
    "capacity": (_cmd_capacity, "synchronous vs asynchronous capacity report"),
}
_EMITTING = ("sound", "mse", "capacity")  # commands that run an experiment


@functools.cache
def build_parser():
    """The one parser of the process, reused by ``main``: ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="chirpsounder",
        description="Chirp channel sounding for asynchronous multi-user MIMO",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)
        if name in _EMITTING:
            cmd.add_argument("--seed", type=int, help="override the config seed")
            cmd.add_argument(
                "--format", choices=("csv", "record"), default="csv", help="output format"
            )
        if name == "mse":
            cmd.add_argument("--trials", type=int, help="override the trial count")
        cmd.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ConstraintViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
