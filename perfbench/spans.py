"""Outside-in tracing of the library's layers for the traced benchmark run.

``Tracer.install()`` wraps the library's public functions where their
callers look them up: module-level functions in every ``votepower`` module
that binds them (``sweep.py`` imports ``generalized_banzhaf`` by name, and
the package's ``votepower.sweep`` attribute is the ``sweep`` function, not
the submodule), and methods on their classes.  Each call records a span:
name, start, end, parent span and op id, kept in memory.  ``uninstall()``
puts the original functions back.

The library itself is not changed; ``layer_metrics`` derives the per-layer
metrics from the spans, with each span's self time taken as its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

# Span fields, in the order they are stored.
NAME, START, END, PARENT, OP, ATTRS, LOST = range(7)


def _poly_attrs(args, kwargs, out) -> dict | None:
    if out is NotImplemented:
        return None
    a, b = args
    terms = len(a.support()) * (len(b.support()) if hasattr(b, "support") else 1)
    dens = [c.denominator.bit_length() for _, c in out.items()]
    return {"terms": terms, "out_terms": len(dens), "degree": out.degree,
            "den_bits": max(dens, default=0)}


def _ipoly_attrs(args, kwargs, out) -> dict:
    quota = args[1] if len(args) > 1 else kwargs["quota"]
    strict = args[2] if len(args) > 2 else kwargs.get("strict", False)
    return {"thresholds": quota - (1 if strict else 0), "nonzero": len(out.support())}


def _tail_attrs(args, kwargs, out) -> dict:
    return {"kept": len(out.support())}


def _classic_attrs(args, kwargs, out) -> dict:
    return {"players": len(out.marginal_counts)}


class Tracer:
    """Records one span per call into a wrapped library function."""

    def __init__(self) -> None:
        # Each span is a list indexed by NAME..LOST.  LOST is time spent inside
        # the span on the tracer's own bookkeeping for child spans, which is
        # left out of the span's self time.
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, out)
                if parent >= 0:
                    spans[parent][LOST] += perf_counter() - span[END]
            return out

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own (used for whole ops)."""
        return self._wrap(name, fn)(*args)

    def _patch_function(self, module: str, attr: str, name: str, attrs=None) -> None:
        original = getattr(sys.modules[module], attr)
        traced = self._wrap(name, original, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "votepower" and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._undo.append((mod, attr, original))

    def _patch_method(self, cls, attr: str, name: str, attrs=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, attrs))
        self._undo.append((cls, attr, original))

    def install(self) -> Tracer:
        from votepower.model import Game, StructureSpec
        from votepower.poly import RationalPoly

        self._patch_method(RationalPoly, "__mul__", "poly.mul", _poly_attrs)
        self._patch_method(RationalPoly, "__rmul__", "poly.mul", _poly_attrs)
        self._patch_method(RationalPoly, "__pow__", "poly.pow")
        self._patch_method(StructureSpec, "build", "model.build")
        self._patch_method(Game, "with_parameter", "model.rebuild")
        self._patch_function("votepower.model", "load_game", "model.load")
        self._patch_function("votepower.power", "losing_tail", "power.tail", _tail_attrs)
        self._patch_function("votepower.power", "influence_polynomial", "power.ipoly",
                             _ipoly_attrs)
        self._patch_function("votepower.power", "influence", "power.influence")
        self._patch_function("votepower.power", "generalized_banzhaf", "power.gb")
        self._patch_function("votepower.power", "classic_banzhaf", "power.classic",
                             _classic_attrs)
        self._patch_function("votepower.sweep", "sweep", "sweep.sweep")
        self._patch_function("votepower.sweep", "sensitivity", "sweep.sensitivity")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's durations and tracer time."""
    own = [s[END] - s[START] - s[LOST] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _under(spans: list[list], prefix: str) -> list[bool]:
    """Whether each span has an ancestor whose name starts with ``prefix``."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents always precede their children
        p = s[PARENT]
        inside[i] = p >= 0 and (inside[p] or spans[p][NAME].startswith(prefix))
    return inside


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics, as named in BENCHMARK.json, from one traced run."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s, t in zip(spans, own):
        total[s[NAME]] = total.get(s[NAME], 0.0) + s[END] - s[START]
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def attr_sum(name: str, key: str) -> int:
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])

    def attr_max(name: str, key: str) -> int:
        return max((s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS]), default=0)

    # The last product under a losing tail is the joint product it truncates.
    joint = {}
    for s in spans:
        if s[NAME] == "poly.mul" and s[ATTRS] and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "power.tail":
            joint[s[PARENT]] = s[ATTRS]["out_terms"]
    joint_terms = sum(joint.values())

    in_sweep = _under(spans, "sweep.")
    points = sum(1 for s, u in zip(spans, in_sweep) if u and s[NAME] == "power.gb")
    sweep_muls = sum(1 for s, u in zip(spans, in_sweep) if u and s[NAME] == "poly.mul")
    thresholds = attr_sum("power.ipoly", "thresholds")

    return {
        "poly.mul_calls": calls.get("poly.mul", 0),
        "poly.mul_s": total.get("poly.mul", 0.0),
        "poly.mul_terms": attr_sum("poly.mul", "terms"),
        "poly.max_degree": attr_max("poly.mul", "degree"),
        "poly.max_den_bits": attr_max("poly.mul", "den_bits"),
        "power.tail_calls": calls.get("power.tail", 0),
        "power.tail_s": total.get("power.tail", 0.0),
        "power.tail_self_s": self_s.get("power.tail", 0.0),
        "power.tail_kept_ratio": attr_sum("power.tail", "kept") / joint_terms if joint_terms else 0.0,
        "power.ipoly_calls": calls.get("power.ipoly", 0),
        "power.ipoly_s": total.get("power.ipoly", 0.0),
        "power.ipoly_thresholds": thresholds,
        "power.ipoly_nonzero_ratio": attr_sum("power.ipoly", "nonzero") / thresholds if thresholds else 0.0,
        "power.influence_self_s": self_s.get("power.influence", 0.0),
        "power.normalize_s": self_s.get("power.gb", 0.0),
        "power.classic_calls": calls.get("power.classic", 0),
        "power.classic_s": total.get("power.classic", 0.0),
        "power.classic_coalitions": sum(2 ** s[ATTRS]["players"] for s in spans
                                        if s[NAME] == "power.classic" and s[ATTRS]),
        "model.load_s": total.get("model.load", 0.0),
        "model.build_calls": calls.get("model.build", 0),
        "model.build_s": total.get("model.build", 0.0),
        "model.rebuild_s": total.get("model.rebuild", 0.0),
        "sweep.points": points,
        "sweep.self_s": self_s.get("sweep.sweep", 0.0) + self_s.get("sweep.sensitivity", 0.0),
        "sweep.mul_per_point": sweep_muls / points if points else 0.0,
    }


# Layers whose self time ``layer_shares`` reports, by span-name prefix.
LAYERS = ("poly", "model", "power.tail", "power.ipoly", "power.influence", "power.gb",
          "power.classic", "sweep", "op")


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of traced op time spent in each layer's own code (set-up left out)."""
    own = self_times(spans)
    shares = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        if s[OP] is None:
            continue
        layer = next(l for l in LAYERS if s[NAME] == l or s[NAME].startswith(l + "."))
        shares[layer] += t
    ops = sum(s[END] - s[START] for s in spans if s[NAME] == "op")
    return {layer: t / ops for layer, t in shares.items()} if ops else shares
