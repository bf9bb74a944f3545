"""Steadiness check: repeat the benchmark over seeds and report the spread.

    python3 perfbench/steady.py --workloads roundtrip,geometry,cli \\
        --seeds 1-10 [--seconds T] [--trace 0|1] [--out FILE]

Runs `run.py` once per (workload, seed), one run at a time, and prints for
every (metric, workload) pair the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the distance
between the quartiles as a share of the median.  For end-to-end metrics it
also shows the bound from BENCHMARK.json and whether the spread is below a
third of it.  Exits 1 if a run fails or reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="roundtrip,geometry,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report, bad = {}, False
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-3000:])
                print(f"{workload} seed {seed}: run failed with code {proc.returncode}")
                bad = True
                continue
            last = json.loads(lines[-1])
            bad |= not last["correct"]
            runs.append(last)
            print(f"{workload} seed {seed}: attempted {last['attempted']} failed {last['failed']}", flush=True)
        if len(runs) < 2:
            continue
        report[workload] = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            report[workload][name] = s
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and args.trace == 0:
                verdict = f"bound {bound:.2f}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(
                f"{workload:10s} {name:40s} median {s['median']:12.5f} {s['unit']:6s} "
                f"q1 {s['q1']:12.5f} q3 {s['q3']:12.5f} spread {s['spread']:.4f}  {verdict}"
            )
    if args.out:
        summary = {"seconds": seconds, "seeds": args.seeds, "trace": args.trace, "results": report}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
