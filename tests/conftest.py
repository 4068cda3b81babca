import pytest

import hnnkit.cayley
from hnnkit.cayley import build_ball
from hnnkit.presets import preset


@pytest.fixture(scope="session")
def wise():
    return preset("wise")


@pytest.fixture(scope="session")
def g2():
    return preset("g2")


@pytest.fixture(scope="session")
def z2_abcd():
    return preset("z2_abcd")


@pytest.fixture(scope="session")
def z2_ab():
    return preset("z2_ab")


@pytest.fixture(scope="session")
def f2():
    return preset("f2")


@pytest.fixture
def no_balls(monkeypatch):
    """Make building any ball, through build_ball or BallIndex, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a ball was built")

    monkeypatch.setattr(hnnkit.cayley, "build_ball", refuse)
    monkeypatch.setattr(hnnkit.cayley.BallIndex, "__init__", refuse)


@pytest.fixture(scope="session")
def z2_abcd_ball9(z2_abcd):
    return build_ball(z2_abcd, 9)


@pytest.fixture(scope="session")
def z2_ab_ball9(z2_ab):
    return build_ball(z2_ab, 9)


@pytest.fixture(scope="session")
def f2_ball7(f2):
    return build_ball(f2, 7)


@pytest.fixture(scope="session")
def wise_ball7(wise):
    # the expensive one (about 1.5M elements); shared by ac/signature tests
    return build_ball(wise, 7)


@pytest.fixture(scope="session")
def g2_ball7(g2):
    return build_ball(g2, 7)


def links_of(ball, eid):
    """The predecessor links (p, letter) of an element, in stored order."""
    return [(ball.link_src[k], ball.link_letter[k])
            for k in range(ball.link_start[eid], ball.link_start[eid + 1])]


def naive_z2_abcd_ball(radius):
    """Independent BFS over Z^2 with generator vectors a,b,c,d; no hnnkit code."""
    gens = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (2, 2), (-2, -2)]
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    for d in range(radius):
        nxt = []
        for (x, y) in frontier:
            for (dx, dy) in gens:
                p = (x + dx, y + dy)
                if p not in dist:
                    dist[p] = d + 1
                    nxt.append(p)
        frontier = nxt
    return dist
