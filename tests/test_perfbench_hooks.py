"""The traced benchmark can wrap every layer of the current sources."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rigidflock import cli, engine, kernels
from rigidflock.scenario import bundled_scenario_path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench_run(monkeypatch):
    """``perfbench/run.py`` as a module, leaving sys.path as it was."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_perfbench_install_wraps_every_layer(monkeypatch):
    # ``perfbench/run.py --trace 1`` exits 2 when a layer function it wraps
    # is gone; a renamed layer fails here instead.
    run = load_perfbench_run(monkeypatch)
    layers = [(run._resolve(owner), attr) for owner, attr, _ in run.SPANS]
    originals = [vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                 for owner, attr in layers]
    tracer = run.tracing.Tracer()
    try:
        run.install(tracer)
    except SystemExit:
        pytest.fail("perfbench's install() could not wrap a layer (see stderr)")
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(layers, originals))
    finally:
        tracer.restore()
    assert [vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            for owner, attr in layers] == originals


@pytest.mark.parametrize("name", ["pentagon_flock", "pentagon_intercept"])
def test_perfbench_eval_closure_reads_the_parsed_config(monkeypatch, name):
    # The traced benchmark's eval_us reads attributes of the parsed config
    # (``_edges``, ``_d2``, ``access_flags``, ...); one that went missing
    # fails here instead of only under ``--trace 1``.
    run = load_perfbench_run(monkeypatch)
    out = run.eval_closure(bundled_scenario_path(name))()
    assert all(np.all(np.isfinite(a)) for a in out)


@pytest.mark.parametrize("chunk_rows", [None, 10], ids=["one-chunk", "streamed"])
def test_simulate_calls_each_traced_writer_once(tmp_path, monkeypatch, chunk_rows):
    # install() checks only that these names exist; a CLI that stopped
    # calling them would leave the traced writer layers reading 0.
    if chunk_rows is not None:
        monkeypatch.setattr(engine, "_CHUNK_ROWS", chunk_rows)
    names = ["build_summary", "write_metrics_csv", "write_trajectory_csv"]
    calls = []
    for name in names:
        monkeypatch.setattr(cli, name, lambda *args, fn=getattr(cli, name), name=name:
                            calls.append(name) or fn(*args))
    assert cli.main(["simulate", str(bundled_scenario_path("pentagon_intercept")),
                     "--out", str(tmp_path / "o"), "--duration", "0.5"]) == 0
    assert sorted(calls) == names


@pytest.mark.parametrize("name", ["pentagon_flock", "pentagon_intercept"])
def test_simulate_calls_its_modes_rollout_name_once_per_chunk(tmp_path, monkeypatch,
                                                              name):
    # perfbench times the rollout through these two names, which both bind
    # kernels.rollout; a run that called kernels.rollout directly would
    # leave kernels.rollout_s reading 0.
    assert kernels.flock_rollout is kernels.intercept_rollout is kernels.rollout
    monkeypatch.setattr(engine, "_CHUNK_ROWS", 10)
    attrs = ["flock_rollout", "intercept_rollout"]
    calls = []
    for attr in attrs:
        monkeypatch.setattr(kernels, attr,
                            lambda *args, fn=getattr(kernels, attr), attr=attr, **kw:
                            calls.append(attr) or fn(*args, **kw))
    out = tmp_path / "o"
    assert cli.main(["simulate", str(bundled_scenario_path(name)),
                     "--out", str(out), "--duration", "0.5"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    chunks = max(1, math.ceil((summary["rows"] - 1) / 10))
    assert chunks > 1
    assert calls == [f"{summary['mode']}_rollout"] * chunks
