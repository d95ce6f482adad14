#!/usr/bin/env python3
"""Steadiness check: do two sets of benchmark runs agree within the bounds?

    python3 perfbench/steady.py

Each of two sets runs every workload of BENCHMARK.json once per seed
(seeds 1 .. 10) with its run_seconds and tracing off; the second set starts
when the first has ended.  For every end-to-end metric it prints the median
and the spread, the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, against the metric's
bound; for the second set, also by how much its median differs from the
first set's.  As in the benchmark's acceptance rule, spreads are checked
for every metric but setup_s (which is set up several times in a run and
reported as a median instead), and the difference between the sets for
all.  Exits 1 if any check fails.  Raw results go to
.perfbench_out/steady.json as each workload's set ends.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share
    (negative if it is better)."""
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         f"{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    raw = {}
    ok = True
    for s in range(SETS):
        for w in (entry["name"] for entry in bench["workloads"]):
            rows = [run_once(w, seed, bench["run_seconds"]) for seed in SEEDS]
            raw.setdefault(w, []).append(rows)
            (out / "steady.json").write_text(json.dumps(raw, indent=1) + "\n")
            print(f"set {s + 1} {w}")
            for m in metrics:
                name, bound = m["name"], m["bound"]
                values = [r[name] for r in rows]
                sp = spread(values)
                median = statistics.median(values)
                line = (f"  {name:12s} median {median:10.4f} {m['unit']:3s}"
                        f" spread {sp:6.3f} / bound {bound}")
                if name != "setup_s":
                    ok &= sp <= bound
                    line += "  ok" if sp <= bound else "  TOO WIDE"
                    if sp > bound / 3:
                        line += " (above a third of the bound)"
                if s:
                    first = [r[name] for r in raw[w][0]]
                    drift = worse_by(first, values, m["better"])
                    ok &= abs(drift) <= bound
                    line += (f"; vs set 1: {drift:+.3f}"
                             f" {'ok' if abs(drift) <= bound else 'APART'}")
                print(line, flush=True)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
