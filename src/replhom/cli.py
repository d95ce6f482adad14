"""Batch command line front end.

Subcommands: ar-quiver (emit DOT + JSON node table), tilt-check (verdict for
a candidate module list), verify (run the theorem suites for one spec).
Exit codes: 0 success, 1 theorem violation, 2 input error.  All outputs are
byte-deterministic given the input file and version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import layered as L
from .errors import (ClosureIncomplete, NoComplementFound, NotSupported,
                     TheoremViolation, WindowViolation)
from .quiver import (QuiverError, ReplicationSpec, dynkin_type, fuss_catalan,
                     load_quiver)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

_VIOLATIONS = (TheoremViolation, ClosureIncomplete, WindowViolation,
               NoComplementFound)


def _parser():
    p = argparse.ArgumentParser(
        prog="replhom",
        description="Homological computations over m-replicated path "
                    "algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out=False):
        sp.add_argument("--quiver", required=True,
                        help="JSON quiver file: vertices + arrows")
        sp.add_argument("--m", type=int, required=True,
                        help="replication degree (>= 1)")
        if out:
            sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("ar-quiver",
                        help="build the AR quiver; write DOT and JSON")
    common(sp, out=True)
    sp.add_argument("--format", choices=["dot", "json", "both"],
                    default="both")

    sp = sub.add_parser("tilt-check",
                        help="verdict for a tilting candidate file")
    sp.add_argument("file", help="candidate JSON: {summands: [node ids]} or "
                                 "{modules: [layered module JSON]}")
    common(sp)
    sp.add_argument("--complement", action="store_true",
                    help="also construct and verify a complement")

    sp = sub.add_parser("verify", help="run the full theorem suite")
    common(sp)
    sp.add_argument("--kronecker-dim", type=int, default=None,
                    help="representation-infinite checks on the Kronecker "
                         "base, with this total dimension bound")
    return p


def _load_spec(args) -> ReplicationSpec:
    q = load_quiver(args.quiver)
    if args.m < 1:
        raise QuiverError("replication degree m must be >= 1")
    return ReplicationSpec(q, args.m)


def cmd_ar_quiver(args) -> int:
    from .arquiver import ARQuiver
    spec = _load_spec(args)
    arq = ARQuiver(spec)
    os.makedirs(args.out, exist_ok=True)
    written = []
    if args.format in ("dot", "both"):
        path = os.path.join(args.out, "ar_quiver.dot")
        with open(path, "w") as fh:
            fh.write(arq.to_dot())
        written.append(path)
    if args.format in ("json", "both"):
        path = os.path.join(args.out, "ar_quiver.json")
        with open(path, "w") as fh:
            fh.write(arq.table_json())
        written.append(path)
    print(json.dumps({"nodes": len(arq.nodes), "written": written},
                     sort_keys=True))
    return EXIT_OK


def _resolve_candidate(spec, arq, doc):
    if not isinstance(doc, dict):
        raise QuiverError("candidate file must hold a JSON object")
    if "summands" in doc:
        idents = doc["summands"]
        if not isinstance(idents, list) or not all(
                isinstance(ident, str) for ident in idents):
            raise QuiverError("'summands' must be a JSON list of node id "
                              "strings")
        by_id = {f"n{n.idx}": n for n in arq.nodes}
        mods = []
        for ident in idents:
            if ident not in by_id:
                raise QuiverError(f"unknown node id {ident!r}")
            mods.append(by_id[ident].module)
        return mods
    if "modules" in doc:
        # a shape or glue that does not fit, or a missing field, is the
        # file's fault: report it as such, not as an internal error
        try:
            return [L.LayeredModule.from_dict(spec, d)
                    for d in doc["modules"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise QuiverError(f"malformed candidate module: "
                              f"{type(exc).__name__}: {exc}") from exc
    raise QuiverError("candidate file needs a 'summands' or 'modules' key")


def cmd_tilt_check(args) -> int:
    from .arquiver import ARQuiver
    from .tilting import TiltingContext
    spec = _load_spec(args)
    try:
        with open(args.file) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise QuiverError(f"cannot read candidate file: {exc}") from exc
    arq = ARQuiver(spec)
    ctx = TiltingContext(spec, arq=arq)
    mods = _resolve_candidate(spec, arq, doc)
    verdict = ctx.verdict(mods, want_complement=args.complement)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return EXIT_OK


def _verify_dynkin(spec):
    from .arquiver import ARQuiver
    from .cluster import ClusterContext, verify_bijection
    from .tilting import TiltingContext
    report = {}
    arq = ARQuiver(spec)
    report["nodes"] = len(arq.nodes)

    def run(name, fn):
        fn()
        report[name] = "pass"

    run("pd_trichotomy", arq.check_trichotomy)
    run("global_dimension_bound", arq.check_global_dimension)
    run("cosyzygy_tau_commutation", arq.check_commutation)
    run("syzygy_duality", arq.check_syzygy_duality)

    labels = arq.fundamental_domain_labels()
    arq.m_left_part()
    expected = spec.m * len(arq.ind_a_nodes()) + spec.base.n
    if len(labels) != expected:
        raise TheoremViolation(
            f"fundamental domain has {len(labels)} members, expected "
            f"{expected}")
    report["fundamental_domain"] = "pass"
    report["fundamental_domain_size"] = expected

    tctx = TiltingContext(spec, arq=arq)
    cctx = ClusterContext(spec)
    bij = verify_bijection(spec, arq=arq, tctx=tctx, cctx=cctx)
    if bij["violations"]:
        raise TheoremViolation(f"tilting bijection failed: "
                               f"{bij['violations'][0]}")
    count = bij["module_side_count"]
    expected = fuss_catalan(dynkin_type(spec.base), spec.m)
    if count != expected:
        raise TheoremViolation(
            f"{count} tilting modules, but the Fuss-Catalan number is "
            f"{expected}")
    report["tilting_bijection"] = "pass"
    report["tilting_count"] = count
    return report


def _verify_kronecker(spec, bound):
    from .tilting import TiltingContext, sample_faithful_exceptional
    ctx = TiltingContext(spec)
    report = {"kronecker_bound": bound}
    samples = sample_faithful_exceptional(ctx, bound, 20)
    if len(samples) < 20:
        raise NotSupported(
            f"--kronecker-dim {bound} admits only {len(samples)} faithful "
            f"exceptional samples; the checks need 20")

    def check(cand):
        comp = ctx.bongartz_complement(cand)
        full = ctx.basic(cand + comp)
        if not ctx.is_tilting(full):
            raise TheoremViolation("completed candidate is not tilting")
        if ctx.pd(comp) > spec.m:
            raise TheoremViolation("complement exceeds pd bound")
        return len(comp)

    sizes = [check(cand) for cand in samples]
    report["samples"] = len(samples)
    report["complement_summand_counts"] = sorted(set(sizes))
    report["complement_construction"] = "pass"
    report["approximation_monomorphisms"] = "pass"
    return report


def cmd_verify(args) -> int:
    spec = _load_spec(args)
    if args.kronecker_dim is not None:
        if dynkin_type(spec.base) != "kronecker":
            raise NotSupported("--kronecker-dim needs the Kronecker quiver "
                               "as base")
        report = _verify_kronecker(spec, args.kronecker_dim)
    else:
        report = _verify_dynkin(spec)
    report["all"] = "pass"
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "ar-quiver":
            return cmd_ar_quiver(args)
        if args.command == "tilt-check":
            return cmd_tilt_check(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise QuiverError(f"unknown command {args.command}")
    except _VIOLATIONS as exc:
        detail = {"error": type(exc).__name__, "detail": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            detail["witness"] = repr(witness)
        print(json.dumps(detail, sort_keys=True), file=sys.stderr)
        return EXIT_VIOLATION
    except (QuiverError, NotSupported, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
