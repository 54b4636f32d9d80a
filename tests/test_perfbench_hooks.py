"""The traced benchmark can wrap every layer of the current sources."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_install_wraps_every_layer(monkeypatch):
    # ``perfbench/run.py --trace 1`` exits 2 when a layer function it wraps
    # is gone; a renamed layer fails here instead.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
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
