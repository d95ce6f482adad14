"""The benchmark's workloads: set-up, timed units and their checks.

A workload turns its seeded inputs (see inputs.py) into a list of units at
each set-up.  A unit's `run` is the timed call into the program; its
`check` runs afterwards, untimed, and returns the unit's canonical output
(hashed for the digest check) and a list of problems found by the oracles.
A workload's `nominal_pass_s` is the time of one pass at the commit that
added the benchmark, on a 2-core x86-64 VM; it fixes how many passes a run
makes (see run.py).
Every set-up loads its quivers afresh, the way the command line does, so no
per-quiver cache survives from one pass to the next.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable

from replhom import cli
from replhom.arquiver import ARQuiver
from replhom.quiver import ReplicationSpec, load_quiver
from replhom.tilting import TiltingContext, sample_faithful_exceptional

import inputs
import oracles


@dataclass
class Unit:
    key: str                                   # names the unit's input
    run: Callable[[], object]
    check: Callable[[object], tuple[str, list]]


def _write_quiver(directory, doc):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "quiver.json")
    with open(path, "w") as fh:
        fh.write(inputs.quiver_text(doc))
    return path


def _cli(argv):
    """cli.main in-process, with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _failed_exit(result):
    code, _, err = result
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    return []


class ARQuiverWorkload:
    """`replhom ar-quiver` on a ladder of specs in seeded orientations."""

    name = "ar_quiver"
    nominal_pass_s = 9.0

    def __init__(self, seed, workdir):
        self.specs = inputs.dynkin_units(self.name, inputs.AR_QUIVER_SPECS,
                                         seed)
        self.workdir = workdir

    def setup(self):
        units = []
        for i, (key, kind, n, m, doc) in enumerate(self.specs):
            directory = os.path.join(self.workdir, f"{self.name}{i}")
            path = _write_quiver(directory, doc)
            out = os.path.join(directory, "out")
            argv = ["ar-quiver", "--quiver", path, "--m", str(m),
                    "--out", out]
            units.append(Unit(key, partial(_cli, argv),
                              partial(self._check, kind, n, m, out)))
        return units

    @staticmethod
    def _check(kind, n, m, out, result):
        problems = _failed_exit(result)
        if problems:
            return "", problems
        with open(os.path.join(out, "ar_quiver.dot")) as fh:
            dot = fh.read()
        with open(os.path.join(out, "ar_quiver.json")) as fh:
            table = fh.read()
        nodes = json.loads(table)["nodes"]
        found = (sum(e["projective"] for e in nodes),
                 sum(e["injective"] for e in nodes),
                 sum(e["projective_injective"] for e in nodes))
        if found != oracles.projective_counts(n, m):
            problems.append(f"(proj, inj, proj-inj) nodes {found}")
        domain = sum("cluster_label" in e for e in nodes)
        if domain != oracles.fundamental_domain_size(kind, n, m):
            problems.append(f"fundamental domain has {domain} nodes")
        if json.loads(result[1])["nodes"] != len(nodes):
            problems.append("stdout node count differs from the table")
        return dot + table, problems


class DynkinVerifyWorkload:
    """`replhom verify` (theorem suite and bijection) in seeded
    orientations."""

    name = "dynkin_verify"
    nominal_pass_s = 10.0

    def __init__(self, seed, workdir):
        self.specs = inputs.dynkin_units(self.name, inputs.VERIFY_SPECS, seed)
        self.workdir = workdir

    def setup(self):
        units = []
        for i, (key, kind, n, m, doc) in enumerate(self.specs):
            path = _write_quiver(
                os.path.join(self.workdir, f"{self.name}{i}"), doc)
            argv = ["verify", "--quiver", path, "--m", str(m)]
            units.append(Unit(key, partial(_cli, argv),
                              partial(self._check, kind, n, m)))
        return units

    @staticmethod
    def _check(kind, n, m, result):
        problems = _failed_exit(result)
        if problems:
            return "", problems
        report = json.loads(result[1])
        if report.get("all") != "pass":
            problems.append("verify did not report all=pass")
        count = oracles.fuss_catalan(kind, n, m)
        if report.get("tilting_count") != count:
            problems.append(f"tilting count {report.get('tilting_count')}, "
                            f"Fuss-Catalan {count}")
        size = oracles.fundamental_domain_size(kind, n, m)
        if report.get("fundamental_domain_size") != size:
            problems.append("fundamental domain size "
                            f"{report.get('fundamental_domain_size')}, "
                            f"expected {size}")
        return result[1], problems


def _dims(spec, X):
    """A module's dimension vector as TiltingContext.verdict writes it."""
    return {f"{v}_{l}": X.layers[l].dim[v] for l in range(spec.m + 1)
            for v in spec.base.vertices if X.layers[l].dim[v]}


class TiltCheckWorkload:
    """Closed loop, one client: tilt-check verdicts with complements against
    one D4 AR quiver built at set-up."""

    name = "tilt_check"
    nominal_pass_s = 21.0

    def __init__(self, seed, workdir):
        doc, self.draws, self.order_key = inputs.tilt_inputs(seed)
        self.path = _write_quiver(os.path.join(workdir, self.name), doc)
        self.orient = inputs.orientation(doc)

    def setup(self):
        m = inputs.TILT_SPEC[2]
        spec = ReplicationSpec(load_quiver(self.path), m)
        arq = ARQuiver(spec)
        ctx = TiltingContext(spec, arq=arq)
        pis = [node.idx for node in arq.nodes if node.is_proj_inj]
        pool = [node.idx for node in arq.nodes
                if not node.is_proj_inj and arq.pd(node.idx) <= m]
        units = []
        for idxs in inputs.tilt_candidates(pis, pool, self.draws,
                                           self.order_key):
            mods = [arq.nodes[i].module for i in idxs]
            ukey = f"{self.orient}|" + ",".join(f"n{i}" for i in idxs)
            units.append(Unit(ukey,
                              partial(ctx.verdict, mods, want_complement=True),
                              partial(self._check, ctx, arq, mods)))
        return units

    @staticmethod
    def _check(ctx, arq, mods, verdict):
        n, m = ctx.spec.base.n, ctx.spec.m
        problems = []
        rank = oracles.tilting_rank(n, m)
        if verdict["projective_injective_summands"] != n * m:
            problems.append("candidate lost a projective-injective summand")
        if verdict["exceptional"] and not verdict["faithful"]:
            problems.append("exceptional with all projective-injectives but "
                            "not faithful")
        if verdict["tilting"] and verdict["summands"] != rank:
            problems.append("tilting with the wrong number of summands")
        if "complement_error" in verdict:
            problems.append(verdict["complement_error"])
        if "complement" in verdict:
            total = verdict["summands"] + len(verdict["complement"])
            if total != rank:
                problems.append(f"candidate plus complement has {total} "
                                f"summands, expected {rank}")
            # The verdict gives each complement summand by its dimension
            # vector, which determines an indecomposable over this
            # representation-directed algebra: find it among the AR nodes.
            # With rank-many summands and all projective-injectives, an
            # exceptional module of pd <= m is tilting (the counting
            # criterion), which spares the approximation chain.
            comp = [[node.module for node in arq.nodes
                     if _dims(ctx.spec, node.module) == c["dims"]]
                    for c in verdict["complement"]]
            if any(len(found) != 1 for found in comp):
                problems.append("a complement summand matches no single "
                                "AR quiver node")
            else:
                full = ctx.basic(mods + [found[0] for found in comp])
                if not ctx.is_exceptional(full):
                    problems.append("candidate plus complement is not "
                                    "exceptional")
                if ctx.pd(full) > m:
                    problems.append("candidate plus complement has pd > m")
        return json.dumps(verdict, indent=2, sort_keys=True), problems


class KroneckerWorkload:
    """Complement construction on the Kronecker quiver, as in
    `replhom verify --kronecker-dim 8`, on a seeded subset of the samples."""

    name = "kronecker_complement"
    nominal_pass_s = 22.0

    def __init__(self, seed, workdir):
        self.path = _write_quiver(os.path.join(workdir, self.name),
                                  inputs.KRONECKER)
        self.subset = inputs.kronecker_subset(seed)

    def setup(self):
        spec = ReplicationSpec(load_quiver(self.path), inputs.KRONECKER_M)
        ctx = TiltingContext(spec)
        samples = sample_faithful_exceptional(ctx, inputs.KRONECKER_BOUND,
                                              inputs.KRONECKER_SAMPLES)
        if len(samples) != inputs.KRONECKER_SAMPLES:
            raise RuntimeError(f"only {len(samples)} Kronecker samples")
        return [Unit(f"K{inputs.KRONECKER_BOUND}#{i}",
                     partial(self._complete, ctx, samples[i]),
                     partial(self._check, spec))
                for i in self.subset]

    @staticmethod
    def _complete(ctx, cand):
        """The per-sample check of cli._verify_kronecker."""
        comp = ctx.bongartz_complement(cand)
        full = ctx.basic(cand + comp)
        return comp, full, ctx.is_tilting(full), ctx.pd(comp)

    @staticmethod
    def _check(spec, result):
        comp, full, tilting, pd = result
        problems = []
        if not tilting:
            problems.append("completed candidate is not tilting")
        if pd > spec.m:
            problems.append(f"complement has pd {pd} > m")
        rank = oracles.tilting_rank(spec.base.n, spec.m)
        if len(full) != rank:
            problems.append(f"completion has {len(full)} summands, "
                            f"expected {rank}")
        text = json.dumps({"complement": [X.to_dict() for X in comp],
                           "summands": len(full)}, sort_keys=True)
        return text, problems


WORKLOADS = {w.name: w for w in (ARQuiverWorkload, DynkinVerifyWorkload,
                                 TiltCheckWorkload, KroneckerWorkload)}
