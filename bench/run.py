"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload qiso-pi4 --seed 1 --seconds 40 --trace 0

Every iteration runs in a fresh interpreter (``worker.py``), because mdg
keeps its caches at module level.  The run repeats iterations until the
next one would end after ``--seconds``, and reports the median of each
metric over them.  ``--seed`` becomes the child's PYTHONHASHSEED: the
inputs are fixed lattices and graphs, and the seed changes only the
interpreter's string hashing and with it the order of hash-based sets.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` each iteration is a pair, one untraced and one traced,
and the metrics are the per-layer ones; ``trace.overhead_s`` is the
difference of the two medians.  Per-run results and the last traced
iteration's spans are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import selftest
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up samples taken on top of one per iteration; the first start of a
# run only compiles bytecode and warms the file cache, and is not counted
SETUP_SAMPLES = 4
# a worker still running this long after the run began is killed, so that
# a hung worker fails the run well within 180 s
RUN_LIMIT_S = 170


def spawn(workload, env, kill_at, *flags):
    """Run one worker; return (its set-up CPU seconds, its result or None).
    The worker is killed at ``kill_at`` on the perf_counter clock."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, *flags],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    killer = threading.Timer(max(0.0, kill_at - time.perf_counter()),
                             proc.kill)
    killer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.startswith("@ready "):
                setup = float(line[len("@ready "):])
            elif line.startswith("@result "):
                result = json.loads(line[len("@result "):])
        code = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None or (result is None
                                      and "--setup-only" not in flags):
        raise RuntimeError(f"worker for {workload} {' '.join(flags)} "
                           f"exited with code {code}")
    return setup, result


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mdg" / "__init__.py").is_file():
        print(f"no mdg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    selftest()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}.spans.json"
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONHASHSEED=str(args.seed % 2**32))

    began = time.perf_counter()
    deadline, kill_at = began + args.seconds, began + RUN_LIMIT_S
    spawn(args.workload, env, kill_at, "--setup-only")
    setups = [spawn(args.workload, env, kill_at, "--setup-only")[0]
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    while True:
        t = time.perf_counter()
        setup, res = spawn(args.workload, env, kill_at)
        setups.append(setup)
        plain.append(res)
        if args.trace:
            setup, res = spawn(args.workload, env, kill_at,
                               "--trace", str(spans_path))
            setups.append(setup)
            traced.append(res)
        now = time.perf_counter()
        print(f"{args.workload}: iteration {len(plain)} wall "
              f"{plain[-1]['wall_s']:.3f} s", file=sys.stderr)
        if now + (now - t) > deadline:
            break

    runs = plain + traced
    if args.trace:
        layers = [r["layers"] for r in traced]
        for key in layers[0]:
            if isinstance(layers[0][key], int) and \
                    len({la[key] for la in layers}) > 1:
                print(f"count {key} differs between iterations: "
                      f"{[la[key] for la in layers]}", file=sys.stderr)
        # counts repeat exactly, so their median stays a whole number
        values = {key: (statistics.median_low if isinstance(v, int)
                        else statistics.median)(la[key] for la in layers)
                  for key, v in layers[0].items()}
        values["trace.overhead_s"] = (median_of(traced, "wall_s")
                                      - median_of(plain, "wall_s"))
    else:
        values = {key: median_of(plain, key)
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_s": setups, "iterations": plain, "traced": traced,
              "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
