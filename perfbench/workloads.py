"""The benchmark's workloads: unit inputs from a seed, unit runs, output checks.

A workload is a sequence of units.  Unit ``u`` is built from the workload
seed alone (its config seed is derived from ``(seed, u)``), runs through the
package's public API, and is checked afterwards.  Units run in rounds; a
timed pass stops only at a round boundary.

Only ``run`` calls the package's work: a traced run wraps it alone, and
builds each unit with ``unit`` and checks it with ``check`` outside the
traced window, so the benchmark's own config loading and checking are not
counted as work of the package.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from chirpsounder import cli, config, harness
from chirpsounder.waveform import closed_form_autocorrelation

from tracer import min_samples

# A link's MSE/CRB over T integer-offset trials is chi-square with 2*L*T
# degrees of freedom over its mean, so its relative standard deviation is
# 1/sqrt(L*T).  Seven of those keep a false alarm per link near 1e-9 even
# for the skewed 10-trial units.
MC_SIGMAS = 7.0
CORR_TOL = 1e-9
# Tail percentile of unit time; a run lasts until MIN_UNITS units leave 10
# beyond it, and MSE/CRB is taken over units 1..MIN_UNITS.
TAIL_PCT = 95.0
MIN_UNITS = min_samples(TAIL_PCT)
_WALL_CLOCK = re.compile(rb'"wall_clock_s": [^,\n]*')


def unit_seed(seed, u):
    """Config seed of unit ``u``, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, u]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one unit produced: its work count, link (mse, crb) pairs, problems."""

    work: int
    links: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _integer_ratio_problems(links, L, trials, where):
    tol = MC_SIGMAS / math.sqrt(L * trials)
    return [
        f"{where}: link MSE/CRB {m / c:.4f} is not within {tol:.3f} of 1"
        for m, c in links
        if not abs(m / c - 1.0) <= tol
    ]


def _files(root):
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = path
    return found


def compare_outputs(dir_a, dir_b):
    """Problems where two output trees differ, ignoring run metadata.

    ``run_meta.json`` holds the timestamp and wall clock by design.  The
    ``wall_clock_s`` field inside ``result.json`` is masked: it is a timing
    value inside a payload the determinism contract covers, so it differs
    on every run and is reported separately.
    """
    a, b = _files(dir_a), _files(dir_b)
    problems = []
    if set(a) != set(b):
        problems.append(f"emitted file sets differ: {sorted(set(a) ^ set(b))}")
    for rel in sorted(set(a) & set(b)):
        if os.path.basename(rel) == "run_meta.json":
            continue
        with open(a[rel], "rb") as fa, open(b[rel], "rb") as fb:
            da, db = fa.read(), fb.read()
        if os.path.basename(rel) == "result.json":
            da, db = _WALL_CLOCK.sub(b"", da), _WALL_CLOCK.sub(b"", db)
        if da != db:
            problems.append(f"{rel} differs between identical runs")
    return problems


class MseWorkload:
    """Units are ``run_mse_experiment`` calls of a fixed trial count on a preset."""

    round = 1

    def __init__(self, name, preset, trials, trace_rounds, redraw=False):
        self.name = name
        self.preset = preset
        self.trials = trials
        self.trace_rounds = trace_rounds
        self.redraw = redraw
        self.workdir = None

    def prepare(self, seed, workdir):
        self.workdir = workdir

    def unit(self, seed, u):
        return config.preset(self.preset).replace(
            seed=unit_seed(seed, u), trials=self.trials, redraw_per_trial=self.redraw
        )

    def run(self, cfg):
        return harness.run_mse_experiment(cfg)

    def check(self, cfg, result):
        links = [(row.mse, row.crb) for row in result.links]
        where = f"{self.name} seed {cfg.seed}"
        if len(links) != cfg.nt * cfg.nr:
            problems = [f"{where}: {len(links)} links, expected {cfg.nt * cfg.nr}"]
        elif cfg.fractional:
            problems = [
                f"{where}: non-finite fractional output"
                for m, c in links
                if not (math.isfinite(m) and math.isfinite(c) and c > 0)
            ][:1]
        else:
            problems = _integer_ratio_problems(links, cfg.total_length, cfg.trials, where)
        return Outcome(cfg.trials, links, problems)

    def determinism(self, seed):
        """Run unit 0 twice; its CSV and record outputs must match byte for byte."""
        cfg = self.unit(seed, 0)
        for side in ("a", "b"):
            result = self.run(cfg)
            harness.emit_results(result, os.path.join(self.workdir, side, "csv"), "csv")
            harness.emit_results(result, os.path.join(self.workdir, side, "rec"), "record")
        return compare_outputs(
            os.path.join(self.workdir, "a"), os.path.join(self.workdir, "b")
        )

    def expected_counts(self, cfgs):
        """Exact span counts the traced run must show for these unit configs."""
        trials = sum(c.trials for c in cfgs)
        links = cfgs[0].nt * cfgs[0].nr
        if cfgs[0].fractional:
            return {"estimator.joint_estimate": links * trials}
        counts = {
            "estimator.matched_filter_integer": links * trials,
            "estimator.joint_estimate": 0,
        }
        counts["channel.receive_integer"] = trials if self.redraw else len(cfgs)
        return counts


class OneShotWorkload:
    """Units are in-process ``cli.main`` calls; a round is one pass over the commands."""

    name = "one-shot"
    trace_rounds = 6
    N_LARGE = 1024
    MSE_TRIALS = 20

    def __init__(self):
        self.workdir = None
        self.commands = []

    @property
    def round(self):
        return len(self.commands)

    def prepare(self, seed, workdir):
        """Write the generated N=1024 scenario the large commands read."""
        self.workdir = workdir
        data = config.PRESETS["paper-sec5"]()
        data["name"] = f"generated-n{self.N_LARGE}"
        data["waveform"]["length"] = self.N_LARGE
        data["seed"] = seed
        os.makedirs(workdir, exist_ok=True)
        large = os.path.join(workdir, f"n{self.N_LARGE}.json")
        with open(large, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        big = ["--config", large]
        self.commands = [
            ["check", "--preset", "paper-sec5"],
            ["check"] + big,
            ["generate", "--preset", "paper-sec5"],
            ["generate"] + big,
            ["correlate", "--preset", "paper-sec5"],
            ["correlate"] + big,
            ["sound", "--preset", "paper-sec5"],
            ["sound", "--preset", "paper-sec5-fractional"],
            ["sound"] + big,
            ["capacity", "--preset", "capacity-tx-shared"],
            ["capacity", "--preset", "capacity-rx-shared"],
            ["capacity", "--preset", "capacity-multi-lo", "--format", "record"],
            ["mse", "--preset", "paper-sec5", "--trials", str(self.MSE_TRIALS)],
        ]

    def unit(self, seed, u, root="out"):
        k = u % len(self.commands)
        argv = list(self.commands[k])
        if argv[0] in ("sound", "capacity", "mse"):
            argv += ["--seed", str(unit_seed(seed, u // len(self.commands)))]
        return argv + ["--out", os.path.join(self.workdir, root, f"cmd{k:02d}")]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, result):
        code, stdout, stderr = result
        where = " ".join(argv[: argv.index("--out")])
        if code != 0:
            return Outcome(1, problems=[f"{where}: exit code {code}: {stderr.strip()}"])
        outdir = argv[argv.index("--out") + 1]
        links, problems = getattr(self, "_check_" + argv[0])(argv, stdout, outdir)
        return Outcome(1, links, [f"{where}: {p}" for p in problems])

    def _config(self, argv):
        if "--config" in argv:
            return config.load(argv[argv.index("--config") + 1])
        return config.preset(argv[argv.index("--preset") + 1])

    def _check_check(self, argv, stdout, outdir):
        return [], [] if stdout.startswith("PASS") else [f"design check: {stdout!r}"]

    def _check_generate(self, argv, stdout, outdir):
        cfg = self._config(argv)
        N = cfg.waveform_length
        problems = []
        for p in cfg.chirp_rates:
            rows = _csv_rows(os.path.join(outdir, f"waveform_p{p}_N{N}.csv"))
            mags = np.abs([float(r["re"]) + 1j * float(r["im"]) for r in rows])
            if len(rows) != N or not np.allclose(mags, 1 / math.sqrt(N), atol=1e-12):
                problems.append(f"waveform p={p} is not {N} unit-modulus samples")
        return [], problems

    def _check_correlate(self, argv, stdout, outdir):
        N = self._config(argv).waveform_length
        problems = []
        for r in _csv_rows(os.path.join(outdir, "autocorrelation.csv")):
            want = closed_form_autocorrelation(int(r["p"]), N, int(r["tau"]))
            if abs(complex(float(r["re"]), float(r["im"])) - want) > CORR_TOL:
                problems.append(f"autocorrelation p={r['p']} tau={r['tau']} != {want}")
        for r in _csv_rows(os.path.join(outdir, "crosscorrelation.csv")):
            if abs(complex(float(r["re"]), float(r["im"]))) > CORR_TOL:
                problems.append(f"crosscorrelation p={r['p']} q={r['q']} tau={r['tau']} != 0")
        return [], problems[:3]

    def _check_sound(self, argv, stdout, outdir):
        cfg = self._config(argv)
        problems = []
        for i in range(cfg.nt):
            for m in range(cfg.nr):
                rows = _csv_rows(os.path.join(outdir, f"trace_tx{i}_rx{m}.csv"))
                values = [float(r["magnitude"]) for r in rows]
                if len(values) != cfg.waveform_length or not np.all(np.isfinite(values)):
                    problems.append(f"trace tx{i} rx{m} is not {cfg.waveform_length} finite values")
        return [], problems

    def _check_capacity(self, argv, stdout, outdir):
        rows = [line for line in stdout.splitlines() if line.startswith("rho ")]
        equal = [line.endswith("(equal)") for line in rows]
        one_sided = self._config(argv).lo_topology != "independent"
        if not rows or (all(equal) != one_sided):
            want = "equal" if one_sided else "unequal somewhere"
            return [], [f"capacities should be {want}: {rows}"]
        return [], []

    def _check_mse(self, argv, stdout, outdir):
        rows = _csv_rows(os.path.join(outdir, "mse.csv"))
        links = [(float(r["mse"]), float(r["crb"])) for r in rows]
        cfg = self._config(argv)
        return links, _integer_ratio_problems(links, cfg.total_length, self.MSE_TRIALS, "mse")

    def determinism(self, seed):
        """Run round 0 twice into separate trees; the trees must match."""
        for side in ("a", "b"):
            for u in range(self.round):
                argv = self.unit(seed, u, root=side)
                code, _, err = self.run(argv)
                if code != 0:
                    return [f"{' '.join(argv)}: exit code {code}: {err.strip()}"]
        return compare_outputs(
            os.path.join(self.workdir, "a"), os.path.join(self.workdir, "b")
        )

    def expected_counts(self, units):
        return {"cli.main": len(units)}


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {
    "mse-integer": lambda: MseWorkload("mse-integer", "paper-sec5", 100, 100),
    "mse-fractional": lambda: MseWorkload(
        "mse-fractional", "paper-sec5-fractional", 1, 40
    ),
    "mse-redraw": lambda: MseWorkload("mse-redraw", "paper-sec5", 10, 100, redraw=True),
    "one-shot": OneShotWorkload,
}


def get(name):
    """A fresh workload object by name."""
    return WORKLOADS[name]()
