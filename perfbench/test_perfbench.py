"""Tests of the benchmark's own machinery: spans, rebinding, statistics, metric names.

    python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from spans import Rebinder, Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(seconds):
        clock.now += seconds

    leaf_a = tracer.span("leaf_a", leaf)
    leaf_b = tracer.span("leaf_b", leaf)

    def outer():
        clock.now += 1.0
        leaf_a(2.0)
        clock.now += 0.5
        leaf_b(3.0)
        leaf_a(0.25)

    tracer.phase = "serve"
    tracer.span("outer", outer)()

    assert tracer.layer("serve", "outer").total == pytest.approx(6.75)
    assert tracer.layer("serve", "outer").self_time == pytest.approx(1.5)
    assert tracer.layer("serve", "leaf_a").calls == 2
    assert tracer.layer("serve", "leaf_a").self_time == pytest.approx(2.25)
    assert tracer.layer("serve", "leaf_b").self_time == pytest.approx(3.0)
    total_self = sum(s.self_time for s in tracer.stats.values())
    assert total_self == pytest.approx(tracer.layer("serve", "outer").total)
    parents = {name: parent for _, parent, name, *_ in tracer.spans}
    outer_id = next(i for i, _, name, *_ in tracer.spans if name == "outer")
    assert parents["outer"] == -1 and parents["leaf_b"] == outer_id


def test_span_records_time_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.layer("idle", "boom").total == pytest.approx(1.0)
    assert tracer._stack == []


@pytest.fixture
def fake_package():
    """fakepkg.a defines f and a class; fakepkg.b imports f by value and calls it."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    class Thing:
        @classmethod
        def build(cls, x):
            return x * 2

        def step(self, x):
            return x - 1

    a.f, a.Thing = f, Thing
    b.f = f
    b.call = lambda x: b.f(x)
    pkg.f = f
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b, pkg
    for name in mods:
        sys.modules.pop(name, None)


def test_rebinding_reaches_by_value_imports_and_restores(fake_package):
    a, b, pkg = fake_package
    original = a.f
    tracer = Tracer()
    with Rebinder("fakepkg") as rebind:
        where = rebind.function("fakepkg.a", "f", lambda fn: tracer.span("a.f", fn))
        assert sorted(where) == ["fakepkg.a.f", "fakepkg.b.f", "fakepkg.f"]
        assert b.call(1) == 2
        assert tracer.layer("idle", "a.f").calls == 1
    assert a.f is original and b.f is original and pkg.f is original


def test_methods_and_classmethods_are_wrapped(fake_package):
    a, _, _ = fake_package
    tracer = Tracer()
    with Rebinder("fakepkg") as rebind:
        rebind.method("fakepkg.a", "Thing", "build", lambda fn: tracer.span("build", fn))
        rebind.method("fakepkg.a", "Thing", "step", lambda fn: tracer.span("step", fn))
        assert a.Thing.build(3) == 6
        assert a.Thing().step(3) == 2
    assert tracer.layer("idle", "build").calls == 1
    assert tracer.layer("idle", "step").calls == 1
    assert isinstance(a.Thing.__dict__["build"], classmethod)


def test_counters_add_shape_measures_without_spans(fake_package):
    a, b, _ = fake_package
    tracer = Tracer()
    with Rebinder("fakepkg") as rebind:
        rebind.function("fakepkg.a", "f", lambda fn: tracer.counter(fn, lambda x: {"f.calls": 1, "f.x": x}))
        b.call(5)
        b.call(7)
    assert tracer.count("idle", "f.calls") == 2
    assert tracer.count("idle", "f.x") == 12
    assert tracer.spans == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail(np.arange(2000.0))[0] == 99.0
    q, _ = bench.tail(np.arange(200.0))
    assert q == pytest.approx(95.0)


def test_candidate_counts_are_balanced_for_every_seed():
    for seed in range(3):
        counts = bench._candidate_counts(np.random.default_rng(seed), (5, 20), 64)
        assert sorted(np.bincount(counts)[5:]) == [4] * 16


def test_j_profile_slope_and_buckets():
    js = np.repeat(np.arange(10, 51), 3)
    slope, p50s, bounds = bench.j_profile(js, 2.0 + 0.1 * js, (10, 50))
    assert slope == pytest.approx(0.1)
    assert bounds[0][0] == 10 and bounds[-1][1] == 50
    assert p50s == sorted(p50s)


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def test_the_installed_tracer_covers_by_value_call_sites():
    tracer = Tracer()
    train_mod = sys.modules["posrank.train"]
    original = train_mod.prepare_batch
    with Rebinder("posrank") as rebind:
        bench.install(tracer, rebind)
        assert train_mod.prepare_batch is not original
        assert sys.modules["posrank.model"].prepare_batch is not original
    assert train_mod.prepare_batch is original
