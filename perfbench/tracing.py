"""Out-of-source tracing for the benchmark's traced runs.

A Tracer wraps public entry points of each replhom layer, from outside the
library: span targets record (name, start, end, parent) in memory; counter
targets, used for the hottest calls, only count.  `reduce_spans` turns the
span table into per-layer self time, per-name call counts and inclusive
times; `layer_metrics` maps those onto the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

LAYERS = ("quiver", "linalg", "repa", "layered", "arquiver", "tilting",
          "cluster", "cli")

# Span targets per layer: module-level functions or "Class.method".
SPANS = {
    "quiver": ("load_quiver", "quiver_from_dict", "validate_hereditary",
               "dynkin_type", "Quiver.__init__", "Quiver.topological_order"),
    "linalg": ("QMatrix.rank", "QMatrix.kernel_basis",
               "QMatrix.solve_matrix", "QMatrix.column_space_basis",
               "QMatrix.inverse", "QMatrix.__mul__", "QMatrix.from_cols",
               "QMatrix.hstack", "QMatrix.vstack", "QMatrix.block_diag"),
    "repa": ("hom_basis", "nu_morphism", "nu_module", "is_iso_a",
             "decompose_a", "generic_decompose", "tau_a", "tau_inv_a",
             "ProjSum.__init__", "InjSum.__init__", "projective_cover_a",
             "injective_envelope_a", "minimal_presentation",
             "injective_copresentation", "enumerate_ind",
             "direct_sum_areps"),
    "layered": ("hom_basis_rep", "ext_dim", "resolution", "pd_rep",
                "tau_rep", "tau_inv_rep", "projective_cover_rep",
                "injective_envelope_rep", "syzygy", "cosyzygy",
                "is_iso_rep", "decompose_rep", "kernel_rep", "cokernel_rep",
                "image_rep", "radical_sub", "layered_direct_sum",
                "nu_lproj_morphism", "nu_inv_linj_morphism", "loewy_series",
                "LProjSum.__init__", "LInjSum.__init__"),
    "arquiver": ("ARQuiver.__init__", "ARQuiver.check_trichotomy",
                 "ARQuiver.check_global_dimension",
                 "ARQuiver.check_commutation",
                 "ARQuiver.check_syzygy_duality", "ARQuiver.to_dot",
                 "ARQuiver.table_json", "ARQuiver.fundamental_domain_labels",
                 "ARQuiver.m_left_part", "ARQuiver.ind_a_nodes"),
    "tilting": ("TiltingContext.__init__", "TiltingContext.basic",
                "TiltingContext.is_exceptional", "TiltingContext.is_faithful",
                "TiltingContext.is_tilting",
                "TiltingContext.minimal_left_approximation",
                "TiltingContext.approximation_chain",
                "TiltingContext.bongartz_complement",
                "TiltingContext.verdict", "sample_faithful_exceptional"),
    "cluster": ("ClusterContext.__init__", "ClusterContext.cluster_ext",
                "ClusterContext.compatibility_pairs",
                "ClusterContext.enumerate_tilting_objects",
                "verify_bijection"),
    "cli": ("main", "cmd_ar_quiver", "cmd_tilt_check", "cmd_verify"),
}

# Counter-only targets: calls too frequent for a span each.
COUNTERS = {
    "linalg.qmatrix_new": ("linalg", "QMatrix.__init__"),
    "repa.compose_calls": ("repa", "compose"),
}

ELIM = ("linalg:QMatrix.rank", "linalg:QMatrix.kernel_basis",
        "linalg:QMatrix.solve_matrix", "linalg:QMatrix.column_space_basis")

# Metrics that count calls of span names (summed over the names).
CALL_COUNTS = {
    "linalg.elim_calls": ELIM,
    "repa.hom_basis_calls": ("repa:hom_basis",),
    "repa.nu_calls": ("repa:nu_morphism", "repa:nu_module"),
    "repa.is_iso_calls": ("repa:is_iso_a",),
    "repa.projsum_builds": ("repa:ProjSum.__init__",),
    "layered.hom_basis_calls": ("layered:hom_basis_rep",),
    "layered.ext_dim_calls": ("layered:ext_dim",),
    "layered.resolution_calls": ("layered:resolution",),
    "layered.tau_calls": ("layered:tau_rep", "layered:tau_inv_rep"),
    "layered.cover_calls": ("layered:projective_cover_rep",
                            "layered:injective_envelope_rep"),
    "layered.is_iso_calls": ("layered:is_iso_rep",),
    "layered.decompose_calls": ("layered:decompose_rep",),
    "tilting.is_tilting_calls": ("tilting:TiltingContext.is_tilting",),
    "tilting.approx_calls":
        ("tilting:TiltingContext.minimal_left_approximation",),
    "cluster.ext_calls": ("cluster:ClusterContext.cluster_ext",),
}

# Metrics that sum the inclusive time of the outermost span of a group.
INCLUSIVE = {
    "layered.tau_s": ("layered:tau_rep", "layered:tau_inv_rep"),
    "layered.decompose_s": ("layered:decompose_rep",),
    "arquiver.build_s": ("arquiver:ARQuiver.__init__",),
    "arquiver.check_s": ("arquiver:ARQuiver.check_trichotomy",
                         "arquiver:ARQuiver.check_global_dimension",
                         "arquiver:ARQuiver.check_commutation",
                         "arquiver:ARQuiver.check_syzygy_duality"),
    "arquiver.emit_s": ("arquiver:ARQuiver.to_dot",
                        "arquiver:ARQuiver.table_json"),
    "tilting.approx_s":
        ("tilting:TiltingContext.minimal_left_approximation",),
    "tilting.complement_s": ("tilting:TiltingContext.bongartz_complement",),
    "cluster.enumerate_s":
        ("cluster:ClusterContext.enumerate_tilting_objects",),
}


class SpanTable:
    """Spans as parallel arrays; a span's parent is an index or -1."""

    def __init__(self):
        self.names = []            # name per name id
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")

    def __len__(self):
        return len(self.name_id)

    def write(self, path):
        """A JSON header at path, the four columns as raw native-endian
        arrays (int32, int32, float64, float64) at path + '.bin'."""
        columns = (self.name_id, self.parent, self.start, self.end)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": len(self),
                       "columns": [["name_id", "i4"], ["parent", "i4"],
                                   ["start", "f8"], ["end", "f8"]],
                       "byteorder": sys.byteorder}, fh)
        with open(f"{path}.bin", "wb") as fh:
            for col in columns:
                col.tofile(fh)


def reduce_spans(table: SpanTable, groups=None):
    """Reduce a span table whose parents precede their children.

    Returns (self_by_name, calls_by_name, inclusive_by_group): a span's self
    time is its duration minus the durations of its direct children, which
    never overlap in a single-threaded trace; a group's inclusive time sums
    the durations of its spans that have no ancestor in the same group, so
    recursion is not counted twice.
    """
    groups = groups or {}
    gnames = list(groups)
    bits = [0] * len(table.names)
    for g, key in enumerate(gnames):
        for k, name in enumerate(table.names):
            if name in groups[key]:
                bits[k] |= 1 << g
    n = len(table)
    child = [0.0] * n
    mask = [0] * n
    dur = [e - s for s, e in zip(table.start, table.end)]
    for i in range(n):
        p = table.parent[i]
        if p >= 0:
            child[p] += dur[i]
            mask[i] = mask[p] | bits[table.name_id[i]]
        else:
            mask[i] = bits[table.name_id[i]]
    self_by_name = [0.0] * len(table.names)
    calls_by_name = [0] * len(table.names)
    inclusive = [0.0] * len(gnames)
    for i in range(n):
        k = table.name_id[i]
        self_by_name[k] += dur[i] - child[i]
        calls_by_name[k] += 1
        own = bits[k]
        if own:
            p = table.parent[i]
            outer = own & ~(mask[p] if p >= 0 else 0)
            g = 0
            while outer:
                if outer & 1:
                    inclusive[g] += dur[i]
                outer >>= 1
                g += 1
    return (dict(zip(table.names, self_by_name)),
            dict(zip(table.names, calls_by_name)),
            dict(zip(gnames, inclusive)))


def _resolve(layer, target):
    """(owner, attribute, original) for 'func' or 'Class.method'."""
    mod = importlib.import_module(f"replhom.{layer}")
    if "." in target:
        cls_name, meth = target.split(".")
        cls = getattr(mod, cls_name)
        return cls, meth, cls.__dict__[meth]
    return mod, target, getattr(mod, target)


def _wrap(original, make):
    """make(function), keeping a static- or classmethod's descriptor."""
    if isinstance(original, (staticmethod, classmethod)):
        return type(original)(make(original.__func__))
    return make(original)


class Tracer:
    """Install wrappers around replhom entry points; collect spans and
    counters until uninstall."""

    def __init__(self):
        self.table = SpanTable()
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts.update(dict.fromkeys(
            ("linalg.elim_cells", "layered.hom_cache_hits",
             "layered.is_iso_true", "arquiver.nodes"), 0))
        self.projsum_keys = set()
        self._stack = [-1]
        self._patches = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn, name_id, before=None, after=None):
        t = self.table
        names, parents, starts, ends = t.name_id, t.parent, t.start, t.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks reading call arguments and results ----------------------------

    def _elim_cells(self, args):
        self.counts["linalg.elim_cells"] += args[0].rows * args[0].cols

    def _hom_cache(self, args):
        M, N = args[0], args[1]
        hit = getattr(M, "_cache", {}).get("hom", {}).get(id(N))
        if hit is not None and hit[0] is N:
            self.counts["layered.hom_cache_hits"] += 1

    def _iso_result(self, args, result):
        if result:
            self.counts["layered.is_iso_true"] += 1

    def _projsum_key(self, args):
        self.projsum_keys.add((id(args[1]), tuple(args[2])))

    def _arq_nodes(self, args, result):
        self.counts["arquiver.nodes"] += len(args[0].nodes)

    def _hooks(self, name):
        if name in ELIM:
            return self._elim_cells, None
        return {
            "layered:hom_basis_rep": (self._hom_cache, None),
            "layered:is_iso_rep": (None, self._iso_result),
            "repa:ProjSum.__init__": (self._projsum_key, None),
            "arquiver:ARQuiver.__init__": (None, self._arq_nodes),
        }.get(name, (None, None))

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, original, wrapper):
        """Rebind owner.attr, and every replhom module global bound to the
        same function (modules import functions by name)."""
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [(mod, key)
                     for name, mod in sorted(sys.modules.items())
                     if name.split(".")[0] == "replhom" and mod is not None
                     for key, val in vars(mod).items() if val is original]
        for tgt, key in sites:
            setattr(tgt, key, wrapper)
            self._patches.append((tgt, key, original))

    def install(self):
        for layer in LAYERS:
            for target in SPANS[layer]:
                name = f"{layer}:{target}"
                owner, attr, original = _resolve(layer, target)
                name_id = len(self.table.names)
                self.table.names.append(name)
                before, after = self._hooks(name)
                self._patch(owner, attr, original, _wrap(
                    original,
                    lambda fn: self._span(fn, name_id, before, after)))
        for key, (layer, target) in COUNTERS.items():
            owner, attr, original = _resolve(layer, target)
            self._patch(owner, attr, original, _wrap(
                original, lambda fn: self._counter(fn, key)))

    def uninstall(self):
        for tgt, key, original in reversed(self._patches):
            setattr(tgt, key, original)
        self._patches.clear()

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        self_by_name, calls, inclusive = reduce_spans(self.table, INCLUSIVE)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for name, secs in self_by_name.items():
            out[name.split(":")[0] + ".self_s"] += secs
        for metric, names in CALL_COUNTS.items():
            out[metric] = sum(calls.get(n, 0) for n in names)
        out.update(inclusive)
        c = self.counts
        out["linalg.elim_cells"] = c["linalg.elim_cells"]
        out["linalg.qmatrix_new"] = c["linalg.qmatrix_new"]
        out["repa.compose_calls"] = c["repa.compose_calls"]
        out["repa.projsum_distinct"] = len(self.projsum_keys)
        out["repa.projsum_reuse_ratio"] = _ratio(len(self.projsum_keys),
                                                 out["repa.projsum_builds"])
        out["layered.hom_cache_hit_ratio"] = _ratio(
            c["layered.hom_cache_hits"], out["layered.hom_basis_calls"])
        out["layered.is_iso_true_ratio"] = _ratio(
            c["layered.is_iso_true"], out["layered.is_iso_calls"])
        out["arquiver.nodes"] = c["arquiver.nodes"]
        return out



def _ratio(num, den):
    return num / den if den else 0.0
