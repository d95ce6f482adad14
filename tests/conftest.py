import pytest

from replhom.quiver import Quiver, ReplicationSpec


@pytest.fixture(scope="session")
def a2():
    """A_2 with its arrow pointing at the sink a."""
    return Quiver(["a", "b"], [("beta", "b", "a")])


@pytest.fixture(scope="session")
def a1():
    return Quiver(["a"], [])


@pytest.fixture(scope="session")
def a3():
    return Quiver(["a", "b", "c"], [("x", "b", "a"), ("y", "c", "b")])


@pytest.fixture(scope="session")
def a4():
    return Quiver(["1", "2", "3", "4"],
                  [("a", "2", "1"), ("b", "3", "2"), ("c", "4", "3")])


@pytest.fixture(scope="session")
def d4():
    return Quiver(["c", "u", "v", "w"],
                  [("a", "c", "u"), ("b", "c", "v"), ("d", "c", "w")])


@pytest.fixture(scope="session")
def e6():
    return Quiver(["1", "2", "3", "4", "5", "6"],
                  [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"),
                   ("d", "4", "5"), ("e", "6", "3")])


@pytest.fixture(scope="session")
def two_sinks():
    """The three-vertex source quiver b -> a, b -> c."""
    return Quiver(["a", "b", "c"], [("alpha", "b", "a"), ("beta", "b", "c")])


@pytest.fixture(scope="session")
def kronecker():
    return Quiver(["a", "b"], [("a1", "b", "a"), ("a2", "b", "a")])


@pytest.fixture(scope="session")
def spec_a2_m1(a2):
    return ReplicationSpec(a2, 1)


@pytest.fixture(scope="session")
def arq_a2_m1(spec_a2_m1):
    from replhom.arquiver import ARQuiver
    return ARQuiver(spec_a2_m1)


@pytest.fixture(scope="session")
def nodes_a2_m1(arq_a2_m1):
    """The nine indecomposables keyed by their Loewy label."""
    return {arq_a2_m1.node_label(n): n for n in arq_a2_m1.nodes}
