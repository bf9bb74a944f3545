"""Every `pdiv` report on the benchmark's cli pool is byte-identical to the
one recorded when the pool was built.

`perfbench/cli_pool.json` holds 37 documents over all 11 subcommands with
the exit code and the SHA-256 of the report of each.  The pool is read,
never written.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pdivisors import cli

POOL = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "cli_pool.json").read_text())


@pytest.mark.parametrize("entry", POOL, ids=[e["id"] for e in POOL])
def test_report_matches_recorded_digest(tmp_path, capsys, entry):
    path = tmp_path / f"{entry['id']}.json"
    path.write_text(entry["doc"], encoding="utf-8")
    code = cli.main([entry["command"], str(path), *entry["args"]])
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]

