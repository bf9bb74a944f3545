"""The dd_cone memo: bounded, never corrupted, and invisible in the results."""

from __future__ import annotations

import random
from pathlib import Path

from helpers import random_proper_rank2
from pdivisors import cli, polyhedra
from pdivisors.downgrade import DowngradeContext, downgrade
from pdivisors.lattice import Lattice, LatticeMap
from pdivisors.upgrade import upgrade

FIX = Path(__file__).parent / "fixtures"
memo = polyhedra._dd_cone_cached


def _round_trips(count, seed):
    """Downgrade and upgrade `count` random proper rank-2 divisors."""
    rng = random.Random(seed)
    ctx = DowngradeContext.from_projection(LatticeMap(Lattice(2), Lattice(1), [[1, 1]]))
    done = 0
    while done < count:
        d = random_proper_rank2(rng)
        if d is None:
            continue
        _, dbar = downgrade(d, ctx)
        upgrade(dbar)
        done += 1


def test_memo_matches_uncached_dd(monkeypatch):
    seen = {}

    def recording(n, ineqs, eqs):
        seen[(n, ineqs, eqs)] = None
        return memo(n, ineqs, eqs)

    monkeypatch.setattr(polyhedra, "_dd_cone_cached", recording)
    _round_trips(3, seed=7)
    monkeypatch.undo()
    assert memo.cache_info().hits > 0
    assert len(seen) > 100
    for n, ineqs, eqs in seen:
        rays, lines = polyhedra.dd_cone(ineqs, eqs, n)
        assert (tuple(rays), tuple(lines)) == memo.__wrapped__(n, ineqs, eqs)
    info = memo.cache_info()
    assert info.maxsize == polyhedra.DD_CACHE_SIZE
    assert info.currsize <= info.maxsize


def test_mutated_result_leaves_memo_intact():
    ineqs = [(1, 0, 0), (0, 1, 0), (1, 1, 1)]
    eqs = [(0, 0, 0)]
    rays, lines = polyhedra.dd_cone(ineqs, eqs, 3)
    expected = (list(rays), list(lines))
    rays.append((5, 5, 5))
    del rays[0]
    lines.append((1, 0, 0))
    assert polyhedra.dd_cone(ineqs, eqs, 3) == expected


def test_report_same_with_memo_cold_warm_or_off(tmp_path, monkeypatch):
    doc = str(FIX / "downgrade_difficulties.json")
    argv = ["toric-downgrade", doc, "--sublattice", '[["1","0","0","0"]]']

    def report(name):
        out = tmp_path / name
        assert cli.main(["--out", str(out)] + argv) == 0
        return out.read_bytes()

    memo.cache_clear()
    cold = report("cold.json")
    hits = memo.cache_info().hits
    warm = report("warm.json")
    assert memo.cache_info().hits > hits
    monkeypatch.setattr(polyhedra, "_dd_cone_cached", memo.__wrapped__)
    off = report("off.json")
    assert cold == warm == off
