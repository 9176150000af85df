"""Tests for the benchmark's tracer, its aggregation and its metric map."""

import contextlib
import importlib
import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402


def _package():
    """Two fake layer modules; ``b`` imports ``a.leaf`` by name."""
    a = types.ModuleType("fake.a")
    b = types.ModuleType("fake.b")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def twice(x):\n    return leaf(leaf(x))\n"
        "def boom():\n    raise RuntimeError('boom')\n"
        "def _private():\n    return leaf(0)\n",
        a.__dict__,
    )
    for fn in ("leaf", "twice", "boom", "_private"):
        a.__dict__[fn].__module__ = "fake.a"
    b.leaf = a.leaf
    exec("def outer(x):\n    return leaf(x) * 2\n", b.__dict__)
    b.outer.__module__ = "fake.b"
    return a, b


def test_self_time_is_duration_minus_direct_children():
    a, b = _package()
    tr = tracer.Tracer(clock=itertools.count().__next__)
    with tr:
        tr.install({"a": a, "b": b}, [a, b])
        assert a.twice(1) == 3
    # clock ticks: twice [0, 5], leaf [1, 2], leaf [3, 4]
    assert list(zip(tr.names, tr.parents, tr.starts, tr.ends)) == [
        ("a.twice", -1, 0, 5),
        ("a.leaf", 0, 1, 2),
        ("a.leaf", 0, 3, 4),
    ]
    assert tracer.self_times(tr.parents, tr.starts, tr.ends) == [3, 1, 1]
    summary = tr.summary()
    assert summary["a.twice"]["calls"] == 1 and summary["a.twice"]["self_s"] == 3
    assert summary["a.leaf"]["calls"] == 2 and summary["a.leaf"]["self_s"] == 2
    assert tracer.layer_totals(summary) == {"a": {"calls": 3, "self_s": 5}}


def test_grandchildren_are_not_subtracted_twice():
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 8.0]
    assert tracer.self_times(parents, starts, ends) == [4.0, 3.0, 1.0, 2.0]


def test_imported_bindings_and_private_functions():
    a, b = _package()
    tr = tracer.Tracer()
    with tr:
        tr.install({"a": a, "b": b}, [a, b])
        assert b.outer(1) == 4
        assert a._private() == 1
    # b's own binding of a.leaf is wrapped; _private itself is not traced
    assert tr.names == ["b.outer", "a.leaf", "a.leaf"]
    assert tr.parents == [-1, 0, -1]


def test_span_closes_when_the_call_raises():
    a, b = _package()
    tr = tracer.Tracer()
    with tr:
        tr.install({"a": a}, [a])
        with pytest.raises(RuntimeError):
            a.boom()
        a.leaf(0)
    assert tr.names == ["a.boom", "a.leaf"]
    assert tr.parents == [-1, -1]
    assert tr.ends[0] >= tr.starts[0]


def test_hooks_counters_and_methods():
    a, b = _package()

    class Shape:
        def __call__(self, x):
            return a.leaf(x)

    seen = []
    tr = tracer.Tracer()
    with tr:
        tr.install(
            {"a": a},
            [a],
            methods=[("a", Shape, "__call__")],
            counted=[("a.counted", b, "outer")],
            hooks={"a.leaf": lambda t, args, kw, result: seen.append((args, result))},
        )
        assert Shape()(1) == 2
        b.outer(0)
    # b.outer is only counted, and b's own binding of leaf was not searched
    assert tr.names == ["a.Shape.__call__", "a.leaf"]
    assert seen == [((1,), 2)]
    assert tr.counters["a.counted"] == 1


def test_uninstall_restores_every_binding():
    a, b = _package()
    before = {m: dict(vars(m)) for m in (a, b)}
    tr = tracer.Tracer()
    tr.install({"a": a, "b": b}, [a, b])
    assert tracer.leftover_wrappers([a, b])
    tr.uninstall()
    assert tracer.leftover_wrappers([a, b]) == []
    for module, saved in before.items():
        assert all(vars(module)[k] is v for k, v in saved.items())


def test_wrappers_removed_from_the_real_package():
    import numpy as np

    import chirpsounder
    from chirpsounder import channel, errors

    layers = {
        name: importlib.import_module(f"chirpsounder.{name}")
        for name in ("config", "waveform", "channel", "estimator", "metrics", "harness", "cli")
    }
    owners = [chirpsounder, errors, *layers.values(), channel.PulseShape, np.linalg]
    original = chirpsounder.harness.run_mse_experiment
    tr = tracer.Tracer()
    with tr:
        tr.install(
            layers,
            [chirpsounder, errors, *layers.values()],
            methods=[("channel", channel.PulseShape, "__call__")],
            counted=[("estimator.linalg_calls", np.linalg, "lstsq")],
        )
        cfg = chirpsounder.preset("paper-sec5").replace(trials=2)
        chirpsounder.run_mse_experiment(cfg)
    assert tracer.leftover_wrappers(owners) == []
    assert chirpsounder.harness.run_mse_experiment is original
    assert chirpsounder.run_mse_experiment is original
    counts = tracer.layer_totals(tr.summary())
    assert counts["estimator"]["calls"] == 2 * 9 + 3  # matched filters + matrices
    assert counts["config"]["calls"] == 2  # preset -> from_dict


def test_only_the_unit_run_is_traced():
    import run as bench
    from workloads import Outcome

    a, b = _package()
    tr = tracer.Tracer()

    @contextlib.contextmanager
    def traced():
        tr.install({"a": a}, [a])
        try:
            yield
        finally:
            tr.uninstall()

    class Workload:
        def unit(self, seed, u):
            return a.leaf(u)

        def run(self, inp):
            return a.twice(inp)

        def check(self, inp, result):
            return Outcome(1, problems=[] if a.leaf(result) == inp + 3 else ["wrong"])

    run = bench.Run()
    inp, seconds, outcome = run.unit(Workload(), 0, 1, window=traced)
    assert (inp, outcome.problems, run.attempted, run.failed) == (2, [], 1, 0)
    assert seconds >= 0
    # building the input and checking the output call a.leaf untraced
    assert tr.names == ["a.twice", "a.leaf", "a.leaf"]
    assert tracer.leftover_wrappers([a, b]) == []


def test_tail_percentile_rule():
    assert tracer.min_samples(90.0) == 100
    assert tracer.min_samples(95.0) == 200
    assert tracer.min_samples(99.9) == 10000
    values = list(range(1, 201))
    tail = tracer.nearest_rank(values, 95.0)
    assert tail == 190 and sum(v > tail for v in values) == 10
    assert tracer.nearest_rank(values[:199], 95.0) == 190  # only 9 beyond
    assert tracer.nearest_rank([3.0, 1.0, 2.0], 50.0) == 2.0
    with pytest.raises(ValueError):
        tracer.nearest_rank([], 50.0)


def test_host_scaling_uses_the_nearest_reference():
    import run as bench

    refs = [(0.0, 2.0), (1.0, 4.0), (3.0, 8.0)]
    samples = [(-1.0, 2.0), (0.4, 2.0), (0.6, 4.0), (2.1, 16.0), (9.0, 8.0)]
    assert bench.host_scaled(samples, refs) == [1.0, 1.0, 1.0, 2.0, 1.0]


def test_layer_map_covers_the_declared_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert set(layer_map["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for name, entry in layer_map["metrics"].items():
        assert set(entry["moves"]) <= end_to_end, name
        assert set(entry["on"]) <= workloads, name
        assert set(entry.get("unchanged_on", [])) <= workloads, name
