"""The measured process: set up, signal READY, run checked ops, report.

    python3 perfbench/worker.py --workload W --inputs FILE --mode MODE --out FILE
        [--seconds T] [--limit N]

MODE is `setup` (exit right after READY), `timed` (run ops until T seconds
have passed or the inputs run out) or `traced` (run the first N ops under
the span recorder).  Both of the last two run the speed probe of `speed.py`
before the first op and after each op.  The parent times set-up from
spawning this process to reading READY: interpreter start, import, reading
the inputs and warm-up.
Ops run one at a time in a closed loop; each is checked before the next one
starts, and an op that raises or fails its check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import kind_of, probe


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args(argv)
    traced = args.mode == "traced"
    with open(args.inputs, "r", encoding="utf-8") as fh:
        inputs = json.load(fh)
    if args.workload == "cli":
        from cliop import CliOp, load_pool

        pool = {e["id"]: e for e in load_pool()}
        inputs = [pool[i] for i in inputs]
        src, docs = Path(os.environ["PYTHONPATH"]), Path(args.out).parent / "docs"
        docs.mkdir(exist_ok=True)
        op = CliOp(src, docs, traced)
        for entry in pool.values():
            op.stage(entry)
        # warm-up: one fresh pdiv process on the same entry for every seed
        if not CliOp(src, docs)(next(iter(pool.values())), -1):
            raise SystemExit("warm-up pdiv run failed its check")
        import_s = 0.0
    else:
        t0 = time.perf_counter()
        import pdivisors  # noqa: F401

        import_s = time.perf_counter() - t0
        imported_at = time.monotonic()
        import ops

        # warm-up: the op builds its fixed state (roundtrip: the downgrade contexts)
        op = ops.OPS[args.workload]()
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    if args.mode == "setup":
        return 0
    if traced and args.workload != "cli":
        from tracer import Recorder, install

        rec = Recorder()
        rec.import_s = import_s
        install(rec)
        op = rec.span("bench.op", op)
    todo = inputs if args.limit is None else inputs[: args.limit]
    # the speed probe runs before the first op and after every op (speed.py)
    timed = args.mode == "timed"
    kind = kind_of(args.workload)
    latencies, cpus, oks, probes = [], [], [], [probe(kind)]
    t_start = time.perf_counter()
    for i, doc in enumerate(todo):
        if timed and time.perf_counter() - t_start >= args.seconds:
            break
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            ok = op(doc, i)
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(time.perf_counter() - t0)
        cpus.append(_cpu() - cpu0)
        oks.append(bool(ok))
        if not ok:
            sys.stderr.write(f"op {i} failed its check\n")
        probes.append(probe(kind))
    wall = time.perf_counter() - t_start
    result = {
        "latencies": latencies,
        "cpus": cpus,
        "probes": probes,
        "ok": oks,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "import_s": import_s,
    }
    if traced:
        if args.workload == "cli":
            result["span_files"] = op.span_files
            result["process_walls"] = op.process_walls
        else:
            spans = Path(args.out).with_suffix(".spans.json")
            rec.dump(spans)
            result["span_files"] = [str(spans)]
            result["imported_at"] = imported_at
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
