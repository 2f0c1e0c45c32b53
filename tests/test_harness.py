"""bench/tracer.py patches citeaudit's modules by attribute name. A name it
patches that src/ no longer has must fail here, and not only in a traced
benchmark run."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_target_and_restores_it():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()  # raises AttributeError on a name src/ lacks
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
