"""Tests of the benchmark's own logic: generators and span arithmetic.

Run from the checkout root with ``python3 -m pytest -q perfbench``.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rigidflock.graph import Graph  # noqa: E402
from rigidflock.rigidity import Framework, is_minimally_rigid  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(ROOT, 3) == gen(ROOT, 3)
    assert gen(ROOT, 3) != gen(ROOT, 4)


@pytest.mark.parametrize("n", [3, 4, 12, 60])
def test_henneberg_formation_is_minimally_rigid(n):
    pos, pairs = workloads.henneberg_formation(n, np.random.default_rng(n))
    assert pos.shape == (n, 2)
    assert len(pairs) == 2 * n - 3
    assert len(set(pairs)) == len(pairs)
    assert all(1 <= i < j <= n for i, j in pairs)
    assert is_minimally_rigid(Framework(Graph(n, pairs), pos))


def test_wide_formation_has_2n_minus_3_edges():
    data = workloads.wide_formation(ROOT, 0)
    n = data["agents"]
    assert n == workloads.WIDE_AGENTS
    assert len(data["edges"]) == 2 * n - 3
    assert len(data["target_positions_m"]) == n


def test_self_times_subtract_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("b", 1.5, 2.5, 1),
        S("b", 3.0, 3.5, 1),
        S("c", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.0, 0.5, 4.0])
    totals = tracing.layer_totals(spans)
    assert totals["b"] == pytest.approx({"total": 1.5, "self": 1.5, "calls": 2})
    # The self times of a tree add up to the root's duration.
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    S = tracing.Span
    spans = [S("root", 0.0, 4.0, -1), S("x", 1.0, 3.0, 0), S("y", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores():
    def inner():
        return 1

    mod = types.SimpleNamespace(inner=inner)
    mod.outer = lambda: mod.inner() + mod.inner()
    tracer = tracing.Tracer()
    assert tracer.patch(mod, "outer", "outer")
    assert tracer.patch(mod, "inner", "inner")
    assert not tracer.patch(mod, "absent", "absent")
    assert mod.outer() == 2
    tracer.restore()
    assert mod.inner is inner
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 0]


def test_tracer_patches_methods_and_counts():
    class Base:
        def sample(self):
            return "base"

    class Child(Base):
        pass

    tracer = tracing.Tracer()
    assert not tracer.patch(Child, "sample", "sample")
    assert tracer.patch(Base, "sample", "sample", count_only=True)
    assert Child().sample() == "base"
    assert tracer.counts["sample"] == 1
    tracer.restore()
    assert Base.__dict__["sample"].__name__ == "sample"
    assert not hasattr(Base.__dict__["sample"], "__wrapped__")
