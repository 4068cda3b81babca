"""The stdlib Smith decomposition behind the abelian base coordinates."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hnnkit.base_groups import _matmul, _smith_decomp, _snf_images, _unimodular_inverse

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def relator_sets(draw):
    """(n_gens, relator vectors), entries -4..4; sometimes with a generator
    no relator mentions (a zero row of M), a zero relator (a zero column),
    or a full-rank diagonal block added, so the quotient is pure torsion."""
    n = draw(st.integers(1, 5))
    vecs = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        g = draw(st.integers(0, n - 1))
        for v in vecs:
            v[g] = 0
    if draw(st.booleans()):
        vecs[draw(st.integers(0, len(vecs) - 1))] = [0] * n
    if draw(st.booleans()):
        ks = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        vecs += [[k if j == i else 0 for j in range(n)] for i, k in enumerate(ks)]
    return n, [tuple(v) for v in vecs]


EDGE_CASES = [
    (3, [(0, 0, 0)]),                        # the zero matrix
    (2, [(2, 4)]),                           # a single relator
    (2, [(2, 0), (0, 3), (1, 1), (4, -2)]),  # more relators than generators
    (3, [(2, 0, 0), (0, 4, 0), (0, 0, 6)]),  # pure torsion, not yet divisible
    (3, [(0, 2, 0), (0, 0, 3)]),             # a zero row of M
    (2, [(0, 0), (3, -6)]),                  # a zero column of M
]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case)(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None)
@given(relator_sets())
@with_edge_cases
def test_decomposition_properties(case):
    n, vectors = case
    m = [list(col) for col in zip(*vectors)]
    diag, s, t = _smith_decomp([row[:] for row in m])
    d = _matmul(_matmul(s, m), t)
    assert len(diag) == min(len(m), len(m[0]))
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            assert x == (diag[i] if i == j else 0)
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        assert (b == 0) if a == 0 else (b % a == 0)
    s_inv = _unimodular_inverse(s)
    assert _matmul(s, s_inv) == [[int(i == j) for j in range(n)] for i in range(n)]

    free_rank, moduli, images, preimages, rows = _snf_images(n, vectors)
    dim = free_rank + len(moduli)
    assert len(rows) == dim
    for pos, r in enumerate(rows):
        coords = [sum(e * img[k] for e, img in zip(preimages[r], images)) for k in range(dim)]
        for j, mod in enumerate(moduli):
            coords[free_rank + j] %= mod
        assert coords == [int(k == pos) for k in range(dim)]


@pytest.mark.parametrize("s, inverse", [
    ([[0, 1], [1, 0]], [[0, 1], [1, 0]]),
    ([[0, 1, 0], [1, 0, 2], [0, 0, 1]], [[0, 1, -2], [1, 0, 0], [0, 0, 1]]),
    ([[5, 3], [3, 2]], [[2, -3], [-3, 5]]),
    ([[-1, 4, 2], [3, -11, -5], [2, -8, -3]], [[7, 4, -2], [1, 1, -1], [2, 0, 1]]),
], ids=["determinant -1", "zero pivot, rows swap", "several Euclid rounds",
        "negative pivots, determinant -1"])
def test_inverse_is_exact(s, inverse):
    assert _unimodular_inverse(s) == inverse
    n = len(s)
    assert _matmul(s, inverse) == [[int(i == j) for j in range(n)] for i in range(n)]


def test_inverse_rejects_a_matrix_that_is_not_unimodular():
    with pytest.raises(RuntimeError, match="not unimodular"):
        _unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(RuntimeError, match="not unimodular"):
        _unimodular_inverse([[1, 2], [2, 4]])  # singular: no pivot in the second column


def test_loading_presets_imports_no_sympy():
    # presets load first, so nothing but the spec path is imported yet: not
    # the ball builder, the engines, dataclasses or fractions
    code = (
        "import sys\n"
        "from hnnkit import preset\n"
        "from hnnkit.presets import PRESET_NAMES\n"
        "for name in PRESET_NAMES:\n"
        "    preset(name)\n"
        "print(*sorted(m for m in ('hnnkit.cayley', 'hnnkit.convexity', 'dataclasses',\n"
        "                          'fractions') if m in sys.modules))\n"
        "from hnnkit import cli\n"
        "rc = cli.main(['normalize', '--preset', 'wise', \"s'as\"])\n"
        "print('rc', rc, 'sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))  # hnnkit needs nothing else
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ""  # none of them
    assert lines[1] == "d"
    assert lines[-1] == "rc 0 False"  # sympy stays out of the process


def test_loading_presets_without_site_imports_no_resources_or_pathlib():
    # under -S no site hook imports anything at start-up, so what the load
    # itself imports shows: the preset files are read with open
    code = (
        "import sys\n"
        "from hnnkit import preset\n"
        "from hnnkit.presets import PRESET_NAMES\n"
        "for name in PRESET_NAMES:\n"
        "    preset(name)\n"
        "print(*sorted(m for m in ('importlib.resources', 'pathlib') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"  # neither of them
