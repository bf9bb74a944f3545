"""Span recorder for the traced benchmark run.

`install()` wraps the public functions and methods of every `pdivisors`
module in every namespace that binds them.  The package's modules import
each other with `from .x import f`, so a function such as `rank` is reached
through `pdivisors.polyhedra.rank` as well as `pdivisors.linalg.rank`; both
names get the same wrapper.  Spans are kept in memory as flat columns
(name, start, end, parent) and written out once, by `dump`.

A few boundaries also record what they computed: `dd_cone` its input size,
output size, largest bit length and whether its input was seen before in
this process; `is_proper` whether its divisor was seen before; `faces` how
many faces it returned.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from array import array

# Vector helpers called hundreds of thousands of times per op: wrapping them
# would multiply the run time, and they are not layer boundaries.
SKIP = frozenset(
    "linalg." + n
    for n in (
        "frac vec mat zero_vec vadd vsub vneg vscale vdot is_zero_vec "
        "mat_vec mat_mul transpose identity int_identity"
    ).split()
) | {"upgrade.vdotv", "polyhedra.mix_basis", "base.is_inf"}
# Private functions that are boundaries of the cli layer.
EXTRA = frozenset({"cli._report", "cli._load"})


def _bits(rays_lines) -> int:
    best = 0
    for v in rays_lines:
        for x in v:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Recorder:
    """In-memory spans plus the per-boundary probes."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack = [-1]
        self.dd_keys: set = set()
        self.dd = {"calls": 0, "repeats": 0, "rows_in": 0, "rays_out": 0, "max_bits": 0}
        self.proper_keys: set = set()
        self.proper = {"calls": 0, "repeats": 0}
        self.faces_out = 0
        self.import_s = 0.0

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def span(self, name: str, fn, probe=None):
        """A wrapper of fn that records one span per call."""
        nid = self.name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.failed.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if probe is not None:
                probe(self, args, out)
            return out

        traced.__wrapped_span__ = name
        return traced

    def table(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "failed": self.failed.tolist(),
            "probes": {
                "dd": self.dd,
                "is_proper": self.proper,
                "faces_out": self.faces_out,
                "import_s": self.import_s,
            },
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.table(), fh, separators=(",", ":"))


def _probe_dd(rec: Recorder, args, out):
    ineqs, eqs, n = args
    key = (tuple(map(tuple, ineqs)), tuple(map(tuple, eqs)), n)
    d = rec.dd
    d["calls"] += 1
    if key in rec.dd_keys:
        d["repeats"] += 1
    else:
        rec.dd_keys.add(key)
    d["rows_in"] += len(ineqs) + len(eqs)
    rays, lines = out
    d["rays_out"] += len(rays) + len(lines)
    d["max_bits"] = max(d["max_bits"], _bits(rays), _bits(lines))


def _probe_proper(rec: Recorder, args, out):
    rec.proper["calls"] += 1
    if args[0] in rec.proper_keys:
        rec.proper["repeats"] += 1
    else:
        rec.proper_keys.add(args[0])


def _probe_faces(rec: Recorder, args, out):
    rec.faces_out += len(out)


PROBES = {
    "polyhedra.dd_cone": _probe_dd,
    "pdivisor.PolyhedralDivisor.is_proper": _probe_proper,
    "polyhedra.Cone.faces": _probe_faces,
    "polyhedra.Polyhedron.faces": _probe_faces,
}


def _span_name(obj, qualname: str) -> str:
    return obj.__module__.rsplit(".", 1)[-1] + "." + qualname


def install(rec: Recorder) -> None:
    """Wrap every public boundary of the package."""
    import pdivisors

    modules = [pdivisors] + [
        importlib.import_module("pdivisors." + m.name)
        for m in pkgutil.iter_modules(pdivisors.__path__)
    ]
    wrapped: dict[int, object] = {}

    def wrapper_for(fn, name):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = rec.span(name, fn, PROBES.get(name))
        return wrapped[id(fn)]

    # methods first: classes are shared objects, so one patch reaches every
    # namespace
    for mod in modules[1:]:
        for cname, cls in vars(mod).items():
            if not inspect.isclass(cls) or cls.__module__ != mod.__name__ or cname.startswith("_"):
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                kind = type(raw)
                fn = raw.__func__ if kind in (classmethod, staticmethod) else raw
                if not inspect.isfunction(fn):
                    continue
                w = wrapper_for(fn, _span_name(cls, f"{cname}.{attr}"))
                setattr(cls, attr, kind(w) if kind in (classmethod, staticmethod) else w)
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or not fn.__module__.startswith("pdivisors"):
                continue
            if hasattr(fn, "__wrapped_span__"):
                continue
            name = _span_name(fn, fn.__name__)
            if name in SKIP or (fn.__name__.startswith("_") and name not in EXTRA):
                continue
            setattr(mod, attr, wrapper_for(fn, name))
