import inputs


def test_dynkin_units_deterministic():
    a = inputs.dynkin_units("ar_quiver", inputs.AR_QUIVER_SPECS, 7)
    b = inputs.dynkin_units("ar_quiver", inputs.AR_QUIVER_SPECS, 7)
    assert [inputs.quiver_text(u[4]) for u in a] == \
        [inputs.quiver_text(u[4]) for u in b]
    assert [u[0] for u in a] == [u[0] for u in b]


def test_seed_changes_orientation():
    keys = {tuple(u[0] for u in inputs.dynkin_units(
        "ar_quiver", inputs.AR_QUIVER_SPECS, seed)) for seed in range(4)}
    assert len(keys) > 1


def test_workloads_draw_independently():
    assert inputs.rng_for("ar_quiver", 3).random() != \
        inputs.rng_for("dynkin_verify", 3).random()


def test_quiver_shapes():
    rng = inputs.rng_for("t", 0)
    for kind, n in (("A", 5), ("D", 5), ("E", 6), ("E", 8)):
        doc = inputs.dynkin_quiver(kind, n, rng)
        assert len(doc["vertices"]) == n
        assert len(doc["arrows"]) == n - 1
        ends = sorted(tuple(sorted((a["src"], a["tgt"])))
                      for a in doc["arrows"])
        assert len(set(ends)) == n - 1


def test_tilt_inputs_deterministic_and_seeded():
    assert inputs.tilt_inputs(5) == inputs.tilt_inputs(5)
    assert inputs.tilt_inputs(5)[1:] != inputs.tilt_inputs(6)[1:]
    _, draws, _ = inputs.tilt_inputs(5)
    sizes = [size for size, _ in draws]
    assert [(k, sizes.count(k)) for k in (2, 3, 4)] == list(inputs.TILT_DRAWS)


def test_tilt_candidates():
    pis, pool = [0, 1], [9, 5, 3, 7, 4]
    _, draws, order = inputs.tilt_inputs(2)
    got = inputs.tilt_candidates(pis, pool, draws, order)
    assert got == inputs.tilt_candidates(pis, list(reversed(pool)), draws,
                                         order)
    assert len(got) == len(pool) + len(draws) >= 100
    assert all(c[:2] == [0, 1] and set(c[2:]) <= set(pool) for c in got)
    singles = sorted(c[2] for c in got if len(c) == 3)
    assert singles == sorted(pool)
    assert all(len(set(c)) == len(c) for c in got)


def test_kronecker_subset():
    assert inputs.kronecker_subset(1) == inputs.kronecker_subset(1)
    subsets = {tuple(sorted(inputs.kronecker_subset(s))) for s in range(5)}
    assert len(subsets) > 1
    for s in range(5):
        picked = inputs.kronecker_subset(s)
        assert len(picked) == len(set(picked))
        assert set(inputs.KRONECKER_FIXED) <= set(picked)
        for pair in inputs.KRONECKER_PAIRS:
            assert len(set(picked) & set(pair)) == 1
        assert all(0 <= i < inputs.KRONECKER_SAMPLES for i in picked)


def test_orientation_round_trip():
    for orient in ("<<<", ">><", "<><>>"):
        doc = inputs.oriented_quiver("E" if len(orient) == 5 else "D",
                                     len(orient) + 1, orient)
        assert inputs.orientation(doc) == orient


def test_tilt_quivers_are_isomorphic():
    # two leaves point at the centre v2, one away from it
    for seed in range(6):
        doc = inputs.tilt_inputs(seed)[0]
        into_centre = [a for a in doc["arrows"] if a["tgt"] == "v2"]
        assert len(into_centre) == 2 and len(doc["arrows"]) == 3
