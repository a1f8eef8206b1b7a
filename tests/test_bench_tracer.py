"""The traced benchmark run wraps library functions and methods by name
(``perfbench/spans.py``); renaming or deleting one of them breaks that run,
so this checks that every wrapped name is still there."""

import importlib.util
from pathlib import Path

from votepower.model import Game, StructureSpec
from votepower.poly import RationalPoly

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_and_puts_them_back():
    spans = load_spans()
    originals = {
        (cls, attr): cls.__dict__[attr]
        for cls, attr in [
            (RationalPoly, "__mul__"), (RationalPoly, "__rmul__"), (RationalPoly, "__pow__"),
            (StructureSpec, "build"), (Game, "with_parameter"),
        ]
    }
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (cls, attr), original in originals.items():
            assert cls.__dict__[attr].__wrapped__ is original
        half = RationalPoly({0: "1/2", 1: "1/2"})
        assert half * half == RationalPoly({0: "1/4", 1: "1/2", 2: "1/4"})
        assert [span[spans.NAME] for span in tracer.spans] == ["poly.mul"]
    finally:
        tracer.uninstall()
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original
