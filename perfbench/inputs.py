"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed: the same seed gives
byte-identical quiver files, candidate draws and Kronecker subsets.  The
program under test only ever sees the generated files, node ids and sample
indices; it never receives the seed.
"""

from __future__ import annotations

import json
import random

# (kind, n, m) specs run by each Dynkin workload, one unit per spec.
AR_QUIVER_SPECS = (("E", 6, 1), ("A", 4, 2))
VERIFY_SPECS = (("A", 4, 1), ("A", 3, 2))
TILT_SPEC = ("D", 4, 2)
# Candidates: each pool node alone, then TILT_DRAWS[k] random sets of k pool
# nodes.  On this quiver every single-node candidate is exceptional and takes
# the slow complement path (0.2-1.5 s), about 60% of size 2, a few of sizes
# 3 and 4; the rest are fast (15-60 ms).  Taking every single node once, and
# fixed counts of the rest, keeps the slow share near 30% and its cost
# nearly the same for every seed, so p50 stays inside the fast mode and p90
# inside the slow one.
TILT_DRAWS = ((2, 12), (3, 50), (4, 50))
# The D4 orientations with two leaves pointing at the centre v2: isomorphic
# quivers, so every seed's AR quiver costs the same to query (orientations
# of other classes differ by up to 25% on this workload).
TILT_ORIENTATIONS = ("<<<", ">><", "><>")

# Kronecker quiver with m = 1; candidates come from the library's own
# sample_faithful_exceptional at this dimension bound.
KRONECKER = {"vertices": ["a", "b"],
             "arrows": [{"id": "x", "src": "a", "tgt": "b"},
                        {"id": "y", "src": "a", "tgt": "b"}]}
KRONECKER_M = 1
KRONECKER_BOUND = 8
KRONECKER_SAMPLES = 20
# Every seed runs the fixed samples and one sample of each pair; the two
# samples of a pair cost about the same, so every seed carries a comparable
# load (about 23 s on a 2-core x86-64 VM, 20 s of it in samples 8 or 18,
# where decompose_rep on large modules dominates).  Samples 6, 7 and 16
# (2-6 s each) are left out to keep one pass within run_seconds.
KRONECKER_FIXED = (9, 10, 11)
KRONECKER_PAIRS = ((8, 18), (5, 17), (2, 14), (0, 4), (13, 19), (1, 12),
                   (3, 15))


def rng_for(workload: str, seed: int) -> random.Random:
    """A generator private to (workload, seed); string seeding is stable
    across interpreter runs and independent of PYTHONHASHSEED."""
    return random.Random(f"{workload}:{seed}")


def dynkin_edges(kind: str, n: int):
    """Edges of the Dynkin diagram kind_n on vertices 1..n."""
    if kind == "A":
        return [(i, i + 1) for i in range(1, n)]
    if kind == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    if kind == "E":
        return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]
    raise ValueError(f"unknown Dynkin kind {kind}")


def oriented_quiver(kind: str, n: int, orient: str) -> dict:
    """CLI quiver JSON for kind_n; orient has one '>' (edge (a, b) with
    a < b points a -> b) or '<' per edge of dynkin_edges."""
    arrows = []
    for k, ((a, b), way) in enumerate(zip(dynkin_edges(kind, n), orient)):
        if way == "<":
            a, b = b, a
        arrows.append({"id": f"e{k}", "src": f"v{a}", "tgt": f"v{b}"})
    return {"vertices": [f"v{i}" for i in range(1, n + 1)], "arrows": arrows}


def dynkin_quiver(kind: str, n: int, rng: random.Random) -> dict:
    """CLI quiver JSON for kind_n with every edge oriented at random."""
    return oriented_quiver(kind, n, "".join(
        "<" if rng.random() < 0.5 else ">" for _ in range(n - 1)))


def quiver_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def orientation(doc: dict) -> str:
    """One '>' or '<' per arrow: pointing up or down the vertex numbering."""
    return "".join(">" if int(a["src"][1:]) < int(a["tgt"][1:]) else "<"
                   for a in doc["arrows"])


def dynkin_units(workload: str, specs, seed: int):
    """[(key, kind, n, m, quiver JSON)] for one Dynkin workload."""
    rng = rng_for(workload, seed)
    out = []
    for kind, n, m in specs:
        doc = dynkin_quiver(kind, n, rng)
        out.append((f"{kind}{n}m{m}{orientation(doc)}", kind, n, m, doc))
    return out


def tilt_inputs(seed: int):
    """The D4 quiver, one draw (size, key) per multi-node candidate, and the
    key of the request order (see tilt_candidates)."""
    rng = rng_for("tilt_check", seed)
    kind, n, m = TILT_SPEC
    doc = oriented_quiver(kind, n, rng.choice(TILT_ORIENTATIONS))
    draws = [(size, rng.getrandbits(64))
             for size, count in TILT_DRAWS for _ in range(count)]
    return doc, draws, rng.getrandbits(64)


def tilt_candidates(pi_ids, pool_ids, draws, order_key):
    """Node ids of every candidate, in request order: the projective-
    injectives plus either one pool node (each pool node once) or `size`
    distinct pool nodes drawn with random.Random(key); the pool is the
    non-projective-injective nodes of pd <= m."""
    pool = sorted(pool_ids)
    extra = [[p] for p in pool]
    extra += [sorted(random.Random(key).sample(pool, size))
              for size, key in draws]
    random.Random(order_key).shuffle(extra)
    return [sorted(pi_ids) + e for e in extra]


def kronecker_subset(seed: int):
    """Sample indices of the Kronecker workload, in run order."""
    rng = rng_for("kronecker_complement", seed)
    return sorted(KRONECKER_FIXED + tuple(rng.choice(p)
                                          for p in KRONECKER_PAIRS))
