"""The pdivisors benchmark: seeded, checked workloads with a per-layer trace.

    python3 perfbench/run.py --workload roundtrip|geometry|cli --seed N \\
        --seconds T --trace 0|1

Run it from the repository root: it measures the library under `src/`.
Workloads (one process, one thread, a closed loop with a single client):

- `roundtrip`: downgrade a random proper rank-2 divisor over P^1 along one of
  three projections, compare graded pieces with the sections of the
  evaluation, upgrade back and compare with the image.
- `geometry`: fresh random polyhedra and cones in dimensions 3 and 4;
  conversions, Minkowski sum, intersection, duals, faces, image, fiber.
- `cli`: one `pdiv` subprocess per pool document (`cli_pool.json`), every
  subcommand, exit code and report digest checked.

Inputs come from `gen.py` in a process of their own.  With `--trace 0` the
run times set-up (median of several worker start-ups) and then runs ops for
T seconds in the measured worker, and prints the end-to-end metrics: every
time in them is put on the reference speed of `speed.py` by the speed probes
taken around it, and the raw times are printed alongside.  With
`--trace 1` it runs the same ops once untraced and once under the span
recorder (`tracer.py`) and prints the per-layer metrics (`layers.py`).
Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cliop import load_pool
from speed import REFERENCE_S, kind_of, probe, scales

HERE = Path(__file__).resolve().parent
WORKLOADS = ("roundtrip", "geometry", "cli")
# inputs generated per measured second: about 1.7 times the op rate at the
# reference speed of speed.py at the commit that defined the benchmark, so the
# clock, not the inputs, ends a run
INPUT_RATE = {"roundtrip": 7.0, "geometry": 4.0, "cli": 12.0}
SETUP_SAMPLES = 11
# a worker that hangs is killed after this many seconds instead of blocking the run
WORKER_TIMEOUT_S = 150
END_TO_END = {
    "throughput_ops": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "cpu_per_op_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Run:
    """One benchmark run: a work directory and the worker processes."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.inputs = self.work / "inputs.json"

    def make_inputs(self) -> None:
        count = math.ceil(self.seconds * INPUT_RATE[self.workload]) + 3
        if self.workload == "cli":
            # every round runs the whole pool, in an order drawn from the seed
            ids = [e["id"] for e in load_pool()]
            rng = random.Random(f"cli:{self.seed}")
            order = []
            while len(order) < count:
                rng.shuffle(ids)
                order += ids
            self.inputs.write_text(json.dumps(order), encoding="utf-8")
            return
        cmd = [
            sys.executable, str(HERE / "gen.py"), "--workload", self.workload,
            "--seed", str(self.seed), "--count", str(count), "--out", str(self.inputs),
        ]
        subprocess.run(cmd, env=self.env, cwd=self.root, check=True, timeout=WORKER_TIMEOUT_S)

    def spawn(self, mode: str, tag: str, **opts):
        """Start a worker; returns (set-up seconds, spawn time, result or None)."""
        out = self.work / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
            "--inputs", str(self.inputs), "--mode", mode, "--out", str(out),
        ]
        for key, value in opts.items():
            cmd += [f"--{key}", str(value)]
        spawned_at = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=self.root)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != b"READY\n" or code != 0:
            raise RuntimeError(f"worker ({mode}) exited with code {code}")
        result = None
        if mode != "setup":
            with open(out, "r", encoding="utf-8") as fh:
                result = json.load(fh)
        return setup_s, spawned_at, result

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def tail(latencies):
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    A run of fewer than 11 ops has no such percentile; it reports its maximum.
    """
    xs = sorted(latencies)
    j = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs)


def median_hd(xs):
    """Harrell-Davis estimate of the median: a Beta((n+1)/2, (n+1)/2)-weighted
    mean of the order statistics.

    Ops of a workload differ in cost, so their latencies cluster; the sample
    median jumps between clusters as the mix of a run shifts, this estimate
    moves smoothly.  Weights come from Simpson's rule on the beta density.
    """
    xs = sorted(xs)
    n = len(xs)
    if n < 3:
        return statistics.median(xs)
    a = (n + 1) / 2
    norm = math.lgamma(2 * a) - 2 * math.lgamma(a)

    def density(x):
        return math.exp(norm + (a - 1) * math.log(x * (1 - x))) if 0 < x < 1 else 0.0

    steps = 16
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ys = [density((i * steps + j) * h) for j in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def untraced(run: Run):
    # a set-up is a process start, so the fresh-process probe matches it
    raw_setups, setup_probes = [], [probe("fresh_process")]
    for k in range(SETUP_SAMPLES):
        raw_setups.append(run.spawn("setup", f"setup-{k}")[0])
        setup_probes.append(probe("fresh_process"))
    setups = [t * k for t, k in zip(raw_setups, scales(setup_probes, "fresh_process"))]
    _, _, res = run.spawn("timed", "timed", seconds=run.seconds)
    kind = kind_of(run.workload)
    scale = scales(res["probes"], kind)
    lat = [t * k for t, k in zip(res["latencies"], scale)]
    n = len(lat)
    failed = res["ok"].count(False)
    tail_s, pct = tail(lat)
    rss_kb = res["maxrss_kb"] + (res["children_maxrss_kb"] if run.workload == "cli" else 0)
    metrics = {
        "throughput_ops": (n - failed) / sum(lat),
        "latency_p50_ms": median_hd(lat) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "cpu_per_op_ms": sum(c * k for c, k in zip(res["cpus"], scale)) / n * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = res["latencies"]
    notes = [
        f"times are at the reference speed of speed.py: measured time x {REFERENCE_S[kind]} s / "
        f"{kind} probe time around it (set-up: x {REFERENCE_S['fresh_process']} s / fresh_process probe)",
        f"  raw (unscaled): throughput_ops {(n - failed) / sum(raw):.6f}  latency_p50_ms "
        f"{median_hd(raw) * 1000:.6f}  setup_s {statistics.median(raw_setups):.6f}",
        f"  {kind} probe: median {statistics.median(res['probes']):.6f} s over {len(res['probes'])} probes, "
        f"ops took {sum(raw) / res['wall_s']:.1%} of the {res['wall_s']:.1f} s timed phase",
        f"latency_p50_ms is the Harrell-Davis median of {n} samples; latency_tail_ms is p{pct:.1f}",
        f"setup_s is the median of {len(setups)} worker start-ups",
        f"fail_share = {failed / n:.4f} ratio ({failed} of {n} ops failed)",
    ]
    return metrics, END_TO_END, n, failed, notes


def traced(run: Run):
    from layers import UNITS, Accumulator

    _, _, plain = run.spawn("timed", "untraced", seconds=run.seconds / 2)
    m = len(plain["latencies"])
    _, spawned_at, res = run.spawn("traced", "traced", limit=m)
    acc = Accumulator()
    starts = []
    for path, wall in zip(res["span_files"], res.get("process_walls", [None] * m)):
        probes = acc.add_file(path)
        if wall is not None:
            starts.append(wall - probes["main_s"])
    if run.workload == "cli":
        process_start_s = statistics.mean(starts)
    else:
        process_start_s = res["imported_at"] - spawned_at
    kind = kind_of(run.workload)

    def scaled_s(r):
        return sum(t * k for t, k in zip(r["latencies"], scales(r["probes"], kind)))

    metrics = acc.metrics(sum(res["latencies"]), scaled_s(res) - scaled_s(plain), process_start_s)
    keep = run.root / ".bench_work" / f"trace-{run.workload}.json"
    keep.write_text(json.dumps({"metrics": metrics, "boundaries": acc.boundaries()}, indent=1), encoding="utf-8")
    failed = plain["ok"].count(False) + res["ok"].count(False)
    top = sorted(acc.boundaries().items(), key=lambda kv: -kv[1]["self_s"])[:8]
    notes = [f"{m} ops untraced, then the same {m} ops traced; per-boundary breakdown in {keep.name}"]
    notes += [f"  self {v['self_s']:8.3f} s  {v['calls']:8d} calls  {k}" for k, v in top]
    return metrics, UNITS, 2 * m, failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pdivisors" / "__init__.py").is_file():
        sys.stderr.write("run from the repository root: src/pdivisors is missing here\n")
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)
    try:
        run.make_inputs()
        metrics, units, attempted, failed, notes = (traced if args.trace else untraced)(run)
    finally:
        run.close()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    for line in notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
