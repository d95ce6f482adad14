"""The AR quiver of the m-replicated algebra A^(m) of a Dynkin quiver,
knitted from dimension vectors alone.

An oracle for `replhom.arquiver` that shares no code with it: this module
imports nothing from `replhom`.  A^(m) is representation-directed, so an
indecomposable is fixed by its dimension vector, a flat tuple ordered by
(layer, vertex).  With dim P_A(x)_y the number of paths x -> y and
dim I_A(x)_y the number of paths y -> x, the knitting starts from

* P(x, 0) = P_A(x) in layer 0, with rad P(x, 0) = the sum of the P(y, 0)
  over the arrows x -> y;
* P(x, i), i >= 1, = P_A(x) in layer i over I_A(x) in layer i - 1; its
  radical is indecomposable, with dimension vector dim P(x, i) - e(x, i);
* the injectives: the P(x, i) with i >= 1, and I_A(x) in layer m;

and steps mesh by mesh: the arrows out of X go to tau^{-1} E for each
non-injective E -> X and to each projective whose radical holds X, and
tau^{-1} X = (the sum of those targets) - X.
"""

from collections import Counter

_MAX_NODES = 100_000


def path_counts(vertices, arrows):
    """(x, y) -> the number of paths x -> y; arrows are (source, target)."""
    rows = {}

    def paths_from(x):
        if x not in rows:
            row = Counter({x: 1})
            for s, t in arrows:
                if s == x:
                    row.update(paths_from(t))
            rows[x] = row
        return rows[x]

    return {(x, y): paths_from(x)[y] for x in vertices for y in vertices}


def knit(vertices, arrows, m):
    """Knit the AR quiver of A^(m).

    Returns (dims, arrows, tau): the set of node dimension vectors, a
    Counter of arrows (source dims, target dims) -> multiplicity, and a
    dict from each non-projective node's dims to the dims of its tau."""
    vs, n = list(vertices), len(vertices)
    paths = path_counts(vs, arrows)

    p_a = {x: [paths[(x, y)] for y in vs] for x in vs}
    i_a = {x: [paths[(y, x)] for y in vs] for x in vs}

    def layered(*parts):
        vec = [0] * (n * (m + 1))
        for layer, dims in parts:
            vec[layer * n:(layer + 1) * n] = dims
        return tuple(vec)

    proj = {(x, 0): layered((0, p_a[x])) for x in vs}
    proj.update({(x, i): layered((i, p_a[x]), (i - 1, i_a[x]))
                 for i in range(1, m + 1) for x in vs})
    injective = {proj[(x, i)] for x in vs for i in range(1, m + 1)}
    injective |= {layered((m, i_a[x])) for x in vs}

    in_arrows = {}
    for (x, i), p in proj.items():
        if i == 0:
            in_arrows[p] = Counter(proj[(t, 0)] for s, t in arrows if s == x)
        else:
            rad = list(p)
            rad[i * n + vs.index(x)] -= 1
            in_arrows[p] = Counter([tuple(rad)])
    into_proj = {}
    for p, rad in in_arrows.items():
        for d, mult in rad.items():
            into_proj.setdefault(d, Counter())[p] += mult

    tau_inv, out_arrows, pending = {}, {}, list(in_arrows)
    while pending:
        ready = [X for X in pending
                 if all(E in out_arrows for E in in_arrows[X])]
        if not ready or len(in_arrows) > _MAX_NODES:
            raise ValueError("knitting stalled")
        for X in ready:
            pending.remove(X)
            out = Counter(into_proj.get(X, {}))
            for E, mult in in_arrows[X].items():
                if E not in injective:
                    out[tau_inv[E]] += mult
            out_arrows[X] = out
            if X in injective:
                continue
            Y = tuple(sum(mult * d[k] for d, mult in out.items()) - X[k]
                      for k in range(len(X)))
            if Y in in_arrows or min(Y) < 0 or not any(Y):
                raise ValueError(f"tau^-1 of {X} is not a new module: {Y}")
            tau_inv[X] = Y
            in_arrows[Y] = out
            pending.append(Y)

    quiver = Counter({(X, Y): mult for X, out in out_arrows.items()
                      for Y, mult in out.items()})
    return set(out_arrows), quiver, {Y: X for X, Y in tau_inv.items()}
