"""Per-layer metrics from the span tables of a traced run.

The layers are the modules of `src/pdivisors`; a span's layer is the first
part of its name.  Self time is a span's duration minus the time its child
spans cover.  `total_s` sums the outermost spans of a name only, so that a
recursive call is not counted twice.  The `cli.*` times are means per
process: per `pdiv` process on the `cli` workload, and the one traced worker
on the others.
"""

from __future__ import annotations

import json

LAYERS = (
    "linalg", "lattice", "polyhedra", "base", "pdivisor", "tvariety",
    "downgrade", "upgrade", "cox", "deform", "cli",
)

# metric stem -> the span names it covers (methods are named Class.method)
ALIASES = {
    "polyhedra.faces": ("polyhedra.Cone.faces", "polyhedra.Polyhedron.faces"),
    "pdivisor.is_proper": ("pdivisor.PolyhedralDivisor.is_proper",),
    "pdivisor.evaluation_chambers": ("pdivisor.PolyhedralDivisor.evaluation_chambers",),
    "tvariety.DivisorialFan.init": ("tvariety.DivisorialFan.__init__",),
    "cli.parse": ("cli.parse", "cli.parse_document"),
    "cli.report": ("cli._report",),
}
CALLS = (
    "linalg.rref", "linalg.primitive", "lattice.smith_split", "polyhedra.dd_cone",
    "base.global_sections", "base.positivity", "pdivisor.is_proper",
)
SELF = (
    "linalg.rref", "linalg.smith_normal_form", "polyhedra.dd_cone", "polyhedra.faces",
    "polyhedra.chamber_complex", "polyhedra.linearity_regions",
    "polyhedra.common_refinement", "polyhedra.map_fiber_slice", "base.global_sections",
)
TOTAL = (
    "pdivisor.is_proper", "pdivisor.evaluation_chambers", "pdivisor.toric_downgrade",
    "tvariety.box_and_psi", "tvariety.graded_sections", "downgrade.downgrade",
    "downgrade.fan_from", "upgrade.upgrade", "upgrade.correct_pic_z",
    "cox.cox_sequence", "cox.cox_correct", "deform.deformation_upgrade",
    "deform.check_admissible",
)
CONSTRUCTS = ("polyhedra.Cone.from_rays", "polyhedra.Cone.from_inequalities")
SECOND_ROUTE = ALIASES["polyhedra.faces"] + ("polyhedra.chamber_complex",)

# name -> unit of every per-layer metric the traced run reports
UNITS = {}
for _stem in CALLS:
    UNITS[_stem + ".calls"] = "count"
for _stem in SELF:
    UNITS[_stem + ".self_s"] = "s"
for _stem in TOTAL:
    UNITS[_stem + ".total_s"] = "s"
for _layer in LAYERS:
    UNITS[_layer + ".self_s"] = "s"
    UNITS[_layer + ".calls"] = "count"
    UNITS[_layer + ".fail"] = "count"
UNITS.update({
    "polyhedra.dd_cone.repeat_share": "ratio",
    "polyhedra.dd_cone.rows_in_mean": "rows",
    "polyhedra.dd_cone.rays_out_mean": "rays",
    "polyhedra.dd_cone.max_bits": "bits",
    "polyhedra.dd_per_construct": "dd/construct",
    "polyhedra.faces.dd_per_face": "dd/face",
    "pdivisor.is_proper.repeat_share": "ratio",
    "tvariety.DivisorialFan.init_s": "s",
    "downgrade.second_route_s": "s",
    "cli.import_s": "s",
    "cli.process_start_s": "s",
    "cli.parse_s": "s",
    "cli.report_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
})


def _spans(stem):
    return ALIASES.get(stem, (stem,))


class Accumulator:
    """Sums span tables, one per traced process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.fail: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.dd = {"calls": 0, "repeats": 0, "rows_in": 0, "rays_out": 0, "max_bits": 0}
        self.proper = {"calls": 0, "repeats": 0}
        self.faces_out = 0
        self.dd_in_construct = 0
        self.dd_in_faces = 0
        self.second_route_s = 0.0
        self.import_s: list[float] = []
        self.processes = 0

    def add_file(self, path) -> dict:
        with open(path, "r", encoding="utf-8") as fh:
            table = json.load(fh)
        self.add(table)
        return table["probes"]

    def add(self, t: dict) -> None:
        names, name, parent = t["names"], t["name"], t["parent"]
        start, end, failed = t["start"], t["end"], t["failed"]
        n = len(name)
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        per_self = [0.0] * len(names)
        per_calls = [0] * len(names)
        per_fail = [0] * len(names)
        for i in range(n):
            k = name[i]
            per_self[k] += dur[i] - child[i]
            per_calls[k] += 1
            per_fail[k] += failed[i]
        for k, nm in enumerate(names):
            self.calls[nm] = self.calls.get(nm, 0) + per_calls[k]
            self.fail[nm] = self.fail.get(nm, 0) + per_fail[k]
            self.self_s[nm] = self.self_s.get(nm, 0.0) + per_self[k]
            layer = nm.split(".", 1)[0]
            if layer in self.layer_self:
                self.layer_self[layer] += per_self[k]
        # outermost spans of the names whose total time is reported
        ids = {nm: k for k, nm in enumerate(names)}
        group = {ids[s]: stem for stem in TOTAL + ("cli.parse", "cli.report", "tvariety.DivisorialFan.init") for s in _spans(stem) if s in ids}
        dd = ids.get("polyhedra.dd_cone")
        dual_rep = ids.get("polyhedra.dual_rep")
        constructs = {ids[s] for s in CONSTRUCTS if s in ids}
        faces = {ids[s] for s in ALIASES["polyhedra.faces"] if s in ids}
        second = {ids[s] for s in SECOND_ROUTE if s in ids}
        down = ids.get("downgrade.downgrade")
        for i in range(n):
            k = name[i]
            if k in group:
                stem = group[k]
                p = parent[i]
                while p >= 0 and group.get(name[p]) != stem:
                    p = parent[p]
                if p < 0:
                    self.total_s[stem] = self.total_s.get(stem, 0.0) + dur[i]
            if k in second and down is not None and parent[i] >= 0 and name[parent[i]] == down:
                self.second_route_s += dur[i]
            if k == dd:
                p = parent[i]
                if p >= 0 and name[p] == dual_rep:
                    p = parent[p]
                if p >= 0 and name[p] in constructs:
                    self.dd_in_construct += 1
                p = parent[i]
                while p >= 0 and name[p] not in faces:
                    p = parent[p]
                if p >= 0:
                    self.dd_in_faces += 1
        probes = t["probes"]
        for key in self.dd:
            if key == "max_bits":
                self.dd[key] = max(self.dd[key], probes["dd"][key])
            else:
                self.dd[key] += probes["dd"][key]
        for key in self.proper:
            self.proper[key] += probes["is_proper"][key]
        self.faces_out += probes["faces_out"]
        self.import_s.append(probes["import_s"])
        self.processes += 1

    def metrics(self, traced_s, overhead_s, process_start_s) -> dict:
        """Every per-layer metric by name, as {name: value}.

        `traced_s` is the time the traced ops took; `overhead_s` how much
        longer they took than the same ops untraced, at the reference speed
        of speed.py.
        """

        def ratio(a, b):
            return a / b if b else 0.0

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        def calls(stem):
            return sum(self.calls.get(s, 0) for s in _spans(stem))

        out = {}
        for stem in CALLS:
            out[stem + ".calls"] = calls(stem)
        for stem in SELF:
            out[stem + ".self_s"] = sum(self.self_s.get(s, 0.0) for s in _spans(stem))
        for stem in TOTAL:
            out[stem + ".total_s"] = self.total_s.get(stem, 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = self.layer_self[layer]
            mine = [nm for nm in self.calls if nm.split(".", 1)[0] == layer]
            out[layer + ".calls"] = sum(self.calls[nm] for nm in mine)
            out[layer + ".fail"] = sum(self.fail[nm] for nm in mine)
        dd = self.dd
        constructs = sum(self.calls.get(s, 0) for s in CONSTRUCTS)
        procs = max(self.processes, 1)
        out.update({
            "polyhedra.dd_cone.repeat_share": ratio(dd["repeats"], dd["calls"]),
            "polyhedra.dd_cone.rows_in_mean": ratio(dd["rows_in"], dd["calls"]),
            "polyhedra.dd_cone.rays_out_mean": ratio(dd["rays_out"], dd["calls"]),
            "polyhedra.dd_cone.max_bits": dd["max_bits"],
            "polyhedra.dd_per_construct": ratio(self.dd_in_construct, constructs),
            "polyhedra.faces.dd_per_face": ratio(self.dd_in_faces, self.faces_out),
            "pdivisor.is_proper.repeat_share": ratio(self.proper["repeats"], self.proper["calls"]),
            "tvariety.DivisorialFan.init_s": self.total_s.get("tvariety.DivisorialFan.init", 0.0),
            "downgrade.second_route_s": self.second_route_s,
            "cli.import_s": mean(self.import_s),
            "cli.process_start_s": process_start_s,
            "cli.parse_s": self.total_s.get("cli.parse", 0.0) / procs,
            "cli.report_s": self.total_s.get("cli.report", 0.0) / procs,
            "trace.overhead_s": overhead_s,
            "trace.unattributed_s": traced_s - sum(self.layer_self.values()),
        })
        return out

    def boundaries(self) -> dict:
        """calls, fail and self time of every wrapped boundary."""
        return {
            nm: {"calls": self.calls[nm], "fail": self.fail[nm], "self_s": self.self_s[nm]}
            for nm in sorted(self.calls)
        }
