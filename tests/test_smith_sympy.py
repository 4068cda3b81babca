"""The Smith decomposition against sympy's, which it follows step for step."""

import pytest
from hypothesis import given, settings

from hnnkit.base_groups import AbelianOracle, _snf_images
from hnnkit.hnn import HnnSpec
from hnnkit.presets import PRESET_NAMES, preset
from test_smith import relator_sets, with_edge_cases

pytest.importorskip("sympy")


def sympy_snf_images(n_gens, relator_vectors):
    """The coordinates as sympy's smith_normal_decomp gives them (the code
    hnnkit used before its own decomposition); the cross-check reference."""
    if not relator_vectors:
        images = []
        for i in range(n_gens):
            v = [0] * n_gens
            v[i] = 1
            images.append(tuple(v))
        preimages = {i: tuple(img) for i, img in enumerate(images)}
        return n_gens, (), images, preimages, list(range(n_gens))

    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    m = Matrix([list(v) for v in relator_vectors]).T  # columns = relators
    d, s, _t = smith_normal_decomp(m)
    diag = [int(d[i, i]) for i in range(min(d.rows, d.cols))]
    free_rows = []
    torsion_rows = []
    moduli = []
    for i in range(n_gens):
        di = diag[i] if i < len(diag) else 0
        di = abs(di)
        if di == 0:
            free_rows.append(i)
        elif di > 1:
            torsion_rows.append(i)
            moduli.append(di)
    rows = free_rows + torsion_rows
    images = []
    for g in range(n_gens):
        col = [int(s[r, g]) for r in rows]
        for j, mod in enumerate(moduli):
            idx = len(free_rows) + j
            col[idx] %= mod
        images.append(tuple(col))
    s_inv = s.inv()
    preimages = {r: tuple(int(s_inv[g, r]) for g in range(n_gens)) for r in rows}
    return len(free_rows), tuple(moduli), images, preimages, rows


def relator_vectors(base):
    n = len(base.alphabet.generators)
    vectors = []
    for r in base.relators:
        v = [0] * n
        for lid in r.ids:
            v[lid >> 1] += 1 if lid % 2 == 0 else -1
        vectors.append(tuple(v))
    return n, vectors


def test_every_abelian_preset_matches_sympy():
    names = []
    for name in PRESET_NAMES:
        base = preset(name)
        base = base.base if isinstance(base, HnnSpec) else base
        if not isinstance(base, AbelianOracle):
            continue
        n, vectors = relator_vectors(base)
        want = sympy_snf_images(n, vectors)
        assert _snf_images(n, vectors) == want
        assert (base.free_rank, base.moduli, base.images, base._preimages, base._rows) == want
        names.append(name)
    assert names == ["wise", "z2_abcd", "z2_ab"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(relator_sets())
@with_edge_cases
def test_random_relator_sets_match_sympy(case):
    n, vectors = case
    assert _snf_images(n, vectors) == sympy_snf_images(n, vectors)
