#!/usr/bin/env python3
"""Run one benchmark workload against the replhom sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed makes the workload's inputs; the program never sees it.  One run
measures the library import (in fresh interpreters), then repeats
set-up + pass a fixed number of times, where a pass runs every unit of the
workload once.  The number of passes is --seconds over the workload's
nominal pass time, rounded, at least one; it depends on --seconds alone,
never on how fast the code under test is, so every commit is measured with
the same estimator.  Times are CPU seconds of the process (see CLOCK),
best of the passes, as with timeit's repeat: a unit's time is its
shortest run, since on a shared host the longer ones measure interference
rather than the program, and cpu_s sums these over the pass.  setup_s is
the median set-up (at least three) plus the median import.  Every unit's
output is checked against the oracles and, where recorded, its digest.
The last line of stdout is one JSON object: with --trace 0 it holds the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics, taken from traced passes that alternate with as many untraced
ones.

`--record-digests` stores the output digests of one pass in digests.json
instead of checking them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 7

# Every time is CPU time of the measuring process.  The program runs on one
# thread (REPLHOM_THREADS unset) and waits on nothing, so on an idle machine
# its CPU time is its wall time; on a shared VM the CPU time leaves out the
# time the host takes the processor away (steal), which makes the wall time
# of the same code swing by 30% within minutes.
CLOCK = time.process_time

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.process_time(); import replhom; "
                 "print(time.process_time() - t)")


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    return p


def import_seconds() -> float:
    """Median time to import replhom in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                             check=True, capture_output=True, text=True,
                             timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def quantile(samples, q):
    """Inclusive quantile (q in 0..1) of a non-empty sample."""
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """A fixed number of set-up + pass iterations of one workload."""

    def __init__(self, workload, seconds, trace, expected_digests):
        self.workload = workload
        self.passes = max(1, round(seconds / workload.nominal_pass_s))
        self.trace = trace
        self.expected = expected_digests
        self.setup_s, self.pass_s, self.unit_s = [], [], {}
        self.traced_pass_s, self.layer = [], []
        self.attempted = self.failed = self.digests_checked = 0
        self.problems = []
        self.recorded = {}
        self.tracer = None

    def measure(self):
        for k in range(2 * self.passes if self.trace else self.passes):
            self._iteration(traced=self.trace and k % 2 == 1)
        while not self.trace and len(self.setup_s) < SETUP_SAMPLES:
            t0 = CLOCK()
            self.workload.setup()
            self.setup_s.append(CLOCK() - t0)
            gc.collect()

    def _iteration(self, traced):
        if traced:
            from tracing import Tracer
            self.tracer = Tracer()
            self.tracer.install()
        try:
            t0 = CLOCK()
            units = self.workload.setup()
            setup = CLOCK() - t0
            results, times = [], []
            t_pass = CLOCK()
            for unit in units:
                u0 = CLOCK()
                try:
                    results.append((True, unit.run()))
                except Exception as exc:  # a failed unit is counted, not fatal
                    results.append((False, f"{type(exc).__name__}: {exc}"))
                times.append(CLOCK() - u0)
            pass_s = CLOCK() - t_pass
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            self.traced_pass_s.append(pass_s)
            self.layer.append(self.tracer.layer_metrics())
        else:
            self.setup_s.append(setup)
            self.pass_s.append(pass_s)
            for i, t in enumerate(times):
                self.unit_s.setdefault(i, []).append(t)
        for unit, (ok, result) in zip(units, results):
            self._check(unit, ok, result)
        del units, results
        gc.collect()

    def _check(self, unit, ok, result):
        self.attempted += 1
        problems = []
        if not ok:
            problems = [result]
        else:
            try:
                text, problems = unit.check(result)
            except Exception as exc:  # malformed output fails the unit
                text, problems = "", [f"check raised {exc!r}"]
            if not problems:
                got = digest(text)
                self.recorded.setdefault(unit.key, got)
                want = self.expected.get(unit.key)
                if want is not None:
                    self.digests_checked += 1
                    if want != got:
                        problems = ["output digest differs from the "
                                    "recorded one"]
        if problems:
            self.failed += 1
            self.problems.append(f"{unit.key}: {'; '.join(problems)}")

    def end_to_end(self, import_s):
        units = [min(times) for times in self.unit_s.values()]
        return {
            "setup_s": import_s + statistics.median(self.setup_s),
            "cpu_s": sum(units),
            "unit_p50_s": statistics.median(units),
            "unit_p90_s": quantile(units, 0.9),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self):
        out = {key: statistics.median(m[key] for m in self.layer)
               for key in self.layer[0]}
        out["trace.overhead_ratio"] = (statistics.median(self.traced_pass_s)
                                       / statistics.median(self.pass_s))
        return out


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not (SRC / "replhom" / "__init__.py").is_file():
        print(f"no replhom sources under {SRC}", file=sys.stderr)
        return 2
    threads = os.environ.pop("REPLHOM_THREADS", None)
    import_s = import_seconds()
    sys.path.insert(0, str(SRC))
    import replhom
    if Path(replhom.__file__).resolve().parent != SRC / "replhom":
        print(f"imported replhom from {replhom.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = {} if args.record_digests else digests.get(args.workload, {})
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = Run(workload, args.seconds, bool(args.trace), expected)
        run.measure()
    finally:
        shutil.rmtree(workdir)

    if args.record_digests:
        digests[args.workload] = dict(sorted(
            {**digests.get(args.workload, {}), **run.recorded}.items()))
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                           + "\n")
    if args.trace:
        values = run.per_layer()
        wanted = bench["per_layer"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        run.tracer.table.write(
            out_dir / f"spans_{args.workload}_{args.seed}.json")
    else:
        values = run.end_to_end(import_s)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"environment: nproc={os.cpu_count()} "
          f"python={sys.version.split()[0]} REPLHOM_THREADS=unset"
          f"{'' if threads is None else f' (was {threads!r})'} "
          f"program --seed: not passed")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run.pass_s)} untraced and {len(run.traced_pass_s)} traced "
          f"passes of {len(run.unit_s)} units, "
          f"{run.digests_checked} digests checked")
    for problem in run.problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {run.failed / run.attempted:.6g} "
          f"({run.failed}/{run.attempted} units)")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
