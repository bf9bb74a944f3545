"""One op of the `cli` workload: a `pdiv` subprocess on one pool document.

The op checks the exit code, the SHA-256 of the report against the digest
recorded in `cli_pool.json`, and the golden where the entry has one.  This
module imports nothing from `pdivisors`: each op gets a fresh interpreter,
so nothing computed in one op carries over to the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PDIV = "import sys; from pdivisors.cli import main; sys.exit(main(sys.argv[1:]))"
TIMEOUT_S = 120


def load_pool():
    with open(HERE / "cli_pool.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_golden(entry, out: bytes) -> bool:
    golden = entry.get("golden")
    if not golden:
        return True
    report = json.loads(out)
    if "divisor" in golden:
        return report["divisor"] == golden["divisor"]
    cones = sorted(sorted(c["rays"]) for c in report["base"]["max_cones"])
    return cones == golden["max_cones"]


class CliOp:
    """Runs pool entries as `pdiv` subprocesses, optionally under the tracer."""

    def __init__(self, src: Path, work: Path, traced: bool = False):
        self.work = work
        self.traced = traced
        self.env = {k: v for k, v in os.environ.items() if k != "PDIVISORS_PARALLELISM"}
        self.env["PYTHONPATH"] = str(src)
        self.paths: dict[str, Path] = {}
        self.span_files: list[str] = []
        self.process_walls: list[float] = []

    def stage(self, entry) -> Path:
        """Write the entry's document where pdiv can read it."""
        path = self.paths.get(entry["id"])
        if path is None:
            path = self.work / f"{entry['id']}.json"
            path.write_text(entry["doc"], encoding="utf-8")
            self.paths[entry["id"]] = path
        return path

    def __call__(self, entry, i) -> bool:
        argv = [entry["command"], str(self.stage(entry)), *entry["args"]]
        if self.traced:
            spans = self.work / f"spans-{i}.json"
            cmd = [sys.executable, str(HERE / "traced_pdiv.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-c", PDIV, *argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=TIMEOUT_S)
        wall = time.perf_counter() - t0
        if self.traced:
            self.span_files.append(str(spans))
            self.process_walls.append(wall)
        if proc.returncode != entry["exit"]:
            sys.stderr.write(f"{entry['id']}: exit {proc.returncode}, expected {entry['exit']}\n")
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
            return False
        if hashlib.sha256(proc.stdout).hexdigest() != entry["sha256"]:
            sys.stderr.write(f"{entry['id']}: report differs from the recorded digest\n")
            return False
        return check_golden(entry, proc.stdout)
