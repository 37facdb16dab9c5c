"""The refinement-study bench's tracer (``bench/spans.py``) patches mddg callables
in place; every callable it names must exist where it patches it."""

import importlib.util
import pathlib
import sys

import mddg

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_wrap_point_is_an_own_attribute(monkeypatch):
    # Tracer.install replaces owner.__dict__[attr]; moving or deleting a wrapped
    # callable would otherwise break only the traced bench run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    points = spans.wrap_points(mddg)
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in points if attr not in owner.__dict__]
    assert missing == []
