"""chirpsounder benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  Load
comes from this one process in a single-threaded closed loop: each unit
starts when the previous one has finished.  BLAS threads are pinned to 1,
and numpy's advice to back large arrays with transparent huge pages is
turned off: whether the shared host has free huge pages changes from minute
to minute, and with them the resident memory of the N=1024 commands (101 or
117 MiB for the same fresh process) and the time of their page faults.

``--trace 0`` measures set-up in fresh processes, then runs units for
``--seconds`` (and at least enough units for the tail percentile) and
reports the ``end_to_end`` metrics of BENCHMARK.json.  ``--trace 1`` runs
each unit of a fixed set twice, untraced and then with every public function
of the package wrapped, and reports the ``per_layer`` metrics; fixed units
make the call counts repeat exactly.  Both modes check the outputs; the last
stdout line is the JSON result, and the exit code is 1 when a check failed.
``failed / attempted`` is the error rate.

End-to-end metrics:

    unit_s.p50        median unit wall time in seconds of a reference host,
                      geometric mean over the unit kinds (one on mse-*, one
                      per command on one-shot): each unit's time is divided
                      by the time of the reference kernel run nearest to it,
                      and multiplied by REFERENCE_KERNEL_S = 0.01 s, the
                      kernel's time on the reference host
    setup_s           median over fresh processes, spread over the run, of
                      importing the package and running unit 0, scaled to a
                      host on which a fresh interpreter imports numpy in
                      REFERENCE_S = 0.1 s
    peak_rss_mb       peak resident memory of a fresh process that imports
                      the package and runs one round of units (one unit on
                      mse-*, each command once on one-shot), median over
                      MEMORY_PROBES processes
    mse_over_crb.p50  median link MSE/CRB over the first units of the run,
                      a fixed set for a given seed
    mse_over_crb.p90  90th percentile of the same link ratios: on
                      mse-fractional it sits at about 5 (median 1.5), in
                      the tail of large errors, and passes 10 when
                      links with MSE/CRB above 10 grow from about 5% to
                      10%; the 95th percentile sits on the edge of that
                      tail and spreads by 0.24 over six seeds

Both timings are scaled by host speed because on a shared 2-core KVM guest
(Intel Xeon, 2 GHz) the speed of the host is not steady.  Unit times
alternate between a fast and a slow phase, about 1.6x apart and seconds
long, and the whole host drifts by 15-25% over minutes.  The fastest unit
of each kind dodges the phases but not the drift: over ten runs spread over
an hour its spread reaches 0.23 on one-shot.  So every REFERENCE_EVERY_S the
loop times a reference kernel that uses nothing of the package (FFTs and a
complex matrix product in numpy, about 10 ms), and each unit is timed
against the reference run nearest to it; this follows both the phases and
the drift, so the median can be used.  The raw fastest and median unit
times, mean throughput and the tail (with its percentile and sample count)
are printed as "not gated" lines.

Set-up is scaled the same way at process level: each set-up probe is
followed by a reference probe, a fresh interpreter that imports numpy and
nothing of the package, and set-up is divided by the reference median; the
unscaled median is printed as a "not gated" line.

Memory is taken in fresh processes because the peak of this long-lived
process depends on how the allocator's heap has grown over hundreds of
16 MiB allocations on one-shot.  A fresh process running one round repeats
its peak to 0.1 MiB.  The peak of this process is printed as a "not gated"
line.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import bisect
import contextlib
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
MEMORY_PROBES = 3
REFERENCE_S = 0.1
REFERENCE_KERNEL_S = 0.01
REFERENCE_EVERY_S = 0.2
ACCURACY_TAIL_PCT = 90.0
LAYERS = ("config", "waveform", "channel", "estimator", "metrics", "harness", "cli")
LINALG_COUNTED = ("lstsq", "pinv", "qr", "svd")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root):
    """Commit of a git checkout at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


class Run:
    """Counts attempts and failures, and keeps the first few problem messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def unit(self, wl, seed, u, window=contextlib.nullcontext):
        """Build, time and check unit ``u``; returns (input, seconds, outcome).

        Only ``wl.run`` executes inside ``window()``: building the input and
        checking the output stay outside it, and outside the timed interval.
        """
        self.attempted += 1
        inp = wl.unit(seed, u)
        try:
            with window():
                t0 = time.perf_counter()
                result = wl.run(inp)
                dt = time.perf_counter() - t0
            outcome = wl.check(inp, result)
        except Exception:
            self.failed += 1
            self.problems.append(f"unit {u} raised:\n{traceback.format_exc()}")
            return inp, None, None
        if outcome.problems:
            self.failed += 1
            self.problems.extend(outcome.problems[:3])
        return inp, dt, outcome

    def check(self, problems):
        """A whole-run check: it counts as one attempted unit."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def link_ratios(outcomes):
    """MSE/CRB of every link of every outcome."""
    return [m / c for o in outcomes for m, c in o.links]


def pooled_ratio(outcomes):
    """sum(MSE) / sum(CRB) over every link of every outcome."""
    return sum(m for o in outcomes for m, _ in o.links) / sum(
        c for o in outcomes for _, c in o.links
    )


def cold_start(*args):
    """(seconds, peak MiB) a fresh interpreter reports for ``coldstart.py ARGS``."""
    cmd = [sys.executable, str(HERE / "coldstart.py"), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cold-start probe {args} failed:\n{proc.stderr}")
    seconds, peak_mib = proc.stdout.split()
    return float(seconds), float(peak_mib)


def reference_kernel():
    """A fixed numpy workload that uses nothing of the package; returns a timer.

    The timer runs the kernel and returns its wall time.  The inputs are
    built once, outside the timed interval.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))

    def timed():
        t0 = time.perf_counter()
        for _ in range(50):
            spectrum = np.fft.fft(x)
            np.fft.ifft(spectrum * np.conj(spectrum))
        for _ in range(3):
            a @ a
        return time.perf_counter() - t0

    return timed


def host_scaled(samples, refs):
    """Each ``(at, seconds)`` sample over the reference time nearest to ``at``.

    ``refs`` is a non-empty list of ``(at, seconds)`` sorted by ``at``.
    """
    at = [t for t, _ in refs]
    scaled = []
    for t, dt in samples:
        i = bisect.bisect_left(at, t)
        near = min((j for j in (i - 1, i) if 0 <= j < len(at)), key=lambda j: abs(at[j] - t))
        scaled.append(dt / refs[near][1])
    return scaled


def end_to_end(wl, run, seed, seconds, workdir):
    """Timed closed-loop pass; returns the end-to-end metric values."""
    from workloads import MIN_UNITS, TAIL_PCT

    wl.prepare(seed, workdir)
    run.check(wl.determinism(seed))
    by_kind, work_of, accurate, probes, refs, kernel = {}, {}, [], [], [], []
    setup_dir = os.path.join(workdir, "setup")
    reference = reference_kernel()
    reference()  # warm-up: numpy's FFT plans and BLAS set-up

    def probe():
        probes.append(cold_start(wl.name, str(seed), setup_dir)[0])
        refs.append(cold_start("--reference")[0])

    def calibrate():
        t0 = time.perf_counter()
        kernel.append((t0 - start, reference()))

    start = time.perf_counter()
    calibrate()
    r = 1
    while time.perf_counter() < start + seconds or (r - 1) * wl.round < MIN_UNITS:
        # Set-up probes are spread over the run, so their median sees the
        # same mix of fast and slow host phases as the units do.
        due = start + len(probes) * seconds / SETUP_PROBES
        if len(probes) < SETUP_PROBES and time.perf_counter() >= due:
            probe()
        for u in range(r * wl.round, (r + 1) * wl.round):
            t0 = time.perf_counter()
            _, dt, outcome = run.unit(wl, seed, u)
            if dt is None:
                continue
            by_kind.setdefault(u % wl.round, []).append((t0 - start, dt))
            work_of[u % wl.round] = outcome.work
            if u <= MIN_UNITS:
                accurate.append(outcome)
        if time.perf_counter() - start >= kernel[-1][0] + REFERENCE_EVERY_S:
            calibrate()
        r += 1
    calibrate()
    while len(probes) < SETUP_PROBES:
        probe()
    memory_dir = os.path.join(workdir, "memory")
    peaks = [
        cold_start(wl.name, str(seed), memory_dir, str(wl.round))[1]
        for _ in range(MEMORY_PROBES)
    ]

    times = [dt for v in by_kind.values() for _, dt in v]
    raw = {k: [dt for _, dt in v] for k, v in by_kind.items()}
    scaled = [statistics.median(host_scaled(v, kernel)) for v in by_kind.values()]
    tail = tracer.nearest_rank(times, TAIL_PCT)
    kernel_s = [dt for _, dt in kernel]
    print(f"# set-up probes (s): {', '.join(f'{v:.4f}' for v in probes)}")
    print(f"# reference probes (s): {', '.join(f'{v:.4f}' for v in refs)}")
    print(f"# not gated: unscaled setup_s {statistics.median(probes):.6g} s")
    print(f"# fresh-process peaks (MiB): {', '.join(f'{v:.2f}' for v in peaks)}")
    print(
        "# not gated: peak of this process "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.6g} MiB"
    )
    print(
        f"# reference kernel: {len(kernel_s)} runs, min {min(kernel_s):.6g} s, "
        f"median {statistics.median(kernel_s):.6g} s"
    )
    work = sum(work_of[k] * len(v) for k, v in raw.items())
    print(f"# not gated: throughput {work / sum(times):.6g} 1/s")
    print(
        "# not gated: unscaled unit_s.min "
        f"{statistics.geometric_mean([min(v) for v in raw.values()]):.6g} s"
    )
    print(
        "# not gated: unscaled unit_s.p50 "
        f"{statistics.geometric_mean([statistics.median(v) for v in raw.values()]):.6g} s"
    )
    print(
        f"# not gated: unit_s.tail {tail:.6g} s, p{TAIL_PCT:g} of {len(times)} units "
        f"({sum(t > tail for t in times)} beyond it)"
    )
    print(f"# error_rate {run.failed}/{run.attempted}")
    ratios = link_ratios(accurate)
    return {
        "unit_s.p50": statistics.geometric_mean(scaled) * REFERENCE_KERNEL_S,
        "setup_s": statistics.median(probes) * REFERENCE_S / statistics.median(refs),
        "peak_rss_mb": statistics.median(peaks),
        "mse_over_crb.p50": statistics.median(ratios),
        "mse_over_crb.p90": tracer.nearest_rank(ratios, ACCURACY_TAIL_PCT),
    }


def _flops(tracer_, args, kwargs, result):
    rows, cols = args[0].entries.shape
    tracer_.counters["estimator.matched_filter.flops"] += 8 * rows * cols


def _estimate(tracer_, args, kwargs, result):
    tracer_.counters["estimator.joint_estimate.iterations"] += result.iterations
    tracer_.counters["estimator.nonconverged"] += not result.converged


def _full_filter(tracer_, args, kwargs, result):
    tracer_.counters["estimator.build_full_matched_filter.computed_bytes"] += (
        result.entries.nbytes
    )


def _emitted(tracer_, args, kwargs, result):
    tracer_.counters["harness.emit_results.bytes"] += sum(
        os.path.getsize(p) for p in result
    )


HOOKS = {
    "estimator.matched_filter_integer": _flops,
    "estimator.matched_filter_fractional": _flops,
    "estimator.joint_estimate": _estimate,
    "estimator.build_full_matched_filter": _full_filter,
    "harness.emit_results": _emitted,
}


def layer_metric(name, spans, layers, extra):
    """Value of one per-layer metric named in BENCHMARK.json.

    Names not in ``extra`` are ``<layer>.<stat>`` or ``<span>.<stat>`` with
    stat ``calls``, ``self_s``, ``p50_us`` or ``p99_us``; a span that never
    ran reads 0.
    """
    if name in extra:
        return extra[name]
    head, _, stat = name.rpartition(".")
    entry = layers.get(head) if head in LAYERS else spans.get(head)
    entry = entry or {"calls": 0, "self_s": 0.0, "durations": []}
    if stat in ("calls", "self_s"):
        return entry[stat]
    if stat in ("p50_us", "p99_us") and head not in LAYERS:
        pct = float(stat[1:3])
        return tracer.nearest_rank(entry["durations"], pct) * 1e6 if entry["calls"] else 0.0
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def per_layer(wl, run, seed, workdir, names):
    """Traced pass over a fixed unit set; returns the named per-layer values."""
    import numpy as np

    import chirpsounder
    from chirpsounder import channel, errors

    modules = {layer: importlib.import_module(f"chirpsounder.{layer}") for layer in LAYERS}
    namespaces = [chirpsounder, errors, *modules.values()]
    owners = namespaces + [channel.PulseShape, np.linalg]

    wl.prepare(seed, workdir)
    run.check(wl.determinism(seed))
    units = range(wl.round, (wl.trace_rounds + 1) * wl.round)

    tr = tracer.Tracer()

    @contextlib.contextmanager
    def traced():
        tr.install(
            modules,
            namespaces,
            methods=[("channel", channel.PulseShape, "__call__")],
            counted=[("estimator.linalg_calls", np.linalg, f) for f in LINALG_COUNTED],
            hooks=HOOKS,
        )
        try:
            yield
        finally:
            tr.uninstall()

    # Each unit runs untraced, then traced, so both sides of the overhead
    # see the same machine state.
    overhead = 0.0
    done = []
    for u in units:
        _, plain_s, _ = run.unit(wl, seed, u)
        done.append(run.unit(wl, seed, u, window=traced))
        if plain_s is not None and done[-1][1] is not None:
            overhead += done[-1][1] - plain_s
    run.check([f"wrapper left installed: {n}" for n in tracer.leftover_wrappers(owners)])

    spans = tr.summary()

    def calls(span):
        return spans.get(span, {}).get("calls", 0)

    inputs = [inp for inp, _, _ in done]
    run.check(
        [
            f"{name}.calls = {calls(name)}, expected {want}"
            for name, want in wl.expected_counts(inputs).items()
            if calls(name) != want
        ]
    )
    selfs = tracer.self_times(tr.parents, tr.starts, tr.ends)
    run.check(
        [
            f"span {name} has self time {own!r} outside [0, {end - start!r}]"
            for name, start, end, own in zip(tr.names, tr.starts, tr.ends, selfs)
            if not -1e-9 <= own <= end - start + 1e-9
        ][:3]
    )
    counters = tr.counters
    matched = sum(
        spans.get(f"estimator.matched_filter_{k}", {}).get("self_s", 0.0)
        for k in ("integer", "fractional")
    )
    estimates = calls("estimator.joint_estimate")
    extra = {
        name: counters[name]
        for name in (
            "estimator.linalg_calls",
            "estimator.nonconverged",
            "estimator.build_full_matched_filter.computed_bytes",
            "harness.emit_results.bytes",
        )
    }
    extra.update(
        {
            "channel.pulse_evals": calls("channel.PulseShape.__call__"),
            "estimator.matched_filter.computed_flop_per_s": (
                counters["estimator.matched_filter.flops"] / matched if matched else 0.0
            ),
            "estimator.joint_estimate.iterations_mean": (
                counters["estimator.joint_estimate.iterations"] / estimates
                if estimates
                else 0.0
            ),
            "estimator.sum_mse_over_sum_crb": pooled_ratio(
                [o for _, _, o in done if o is not None]
            ),
            "trace.overhead_s": overhead,
        }
    )
    print(f"# traced {len(units)} units, {len(tr.starts)} spans")
    layers = tracer.layer_totals(spans)
    return {name: layer_metric(name, spans, layers, extra) for name in names}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chirpsounder" / "__init__.py").is_file():
        print(f"error: no chirpsounder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chirpsounder

    if not Path(chirpsounder.__file__).resolve().is_relative_to(SRC):
        print(f"error: chirpsounder imported from {chirpsounder.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_out")
    run = Run()
    wl = workloads.get(args.workload)
    try:
        if args.trace:
            names = [m["name"] for m in declared]
            values = per_layer(wl, run, args.seed, workdir, names)
        else:
            values = end_to_end(wl, run, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for problem in run.problems[:10]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
