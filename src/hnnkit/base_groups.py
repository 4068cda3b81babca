"""Base-group oracles: element arithmetic, canonical keys and geodesic lengths.

Two oracle kinds are implemented, covering finitely generated abelian groups
(canonical coordinates from the Smith normal form of the relation lattice)
and free groups (canonical keys are freely reduced words).  Every oracle
exposes the same small surface used throughout the toolkit:

    identity_key() -> key
    apply_letter(key, lid)
    mult_key(k1, k2), inv_key(k)
    evaluate(word) -> key
    key_str(key), word_of_key(key)
    geodesic_length_exact(key), geodesic_word(key)

apply_letter_left(lid, key) is derived once, in BaseGroupOracle: the key of
the letter times the key.

Keys are hashable values; two words represent the same group element iff
their keys are equal.

Both oracles measure word length exactly, with no ball.  A free key is its
own shortlex least geodesic.  An abelian element's length is an integer
program: |v| = min sum |n_g| over the exponent vectors n with
sum n_g * x_g = v.  Split n = p - q with p, q >= 0 and give each torsion
coordinate j a free integer variable t_j for its modulus m_j (a column
m_j * e_j of cost 0).  The LP relaxation's optima are spanned by its basic
solutions: t and one solution n_S of the free-coordinate system for each
set S of free_rank generators whose free parts are independent.  By the
proximity theorem of Cook, Gerards, Schrijver and Tardos (Sensitivity
theorems in integer linear programming, Math. Programming 34, 1986),
every integer optimum lies within N * Delta of some LP optimum in every
coordinate, where N = 2 * n_gens + n_moduli is the number of variables
and Delta the largest absolute subdeterminant of the constraint matrix.
Any larger Delta keeps the bound, so Delta is taken as Hadamard's bound on
every subdeterminant, the product of the norms of the largest nonzero
columns (at most as many as the matrix has rows), with no determinant
computed.  So every integer optimum lies in that window around the
bounding box of the optimal basic solutions, and enumerating the coset of
the relator lattice inside it finds all of them.  Letters commute, so the
shortlex least geodesic is the sorted word of the optimum with the most of
the least letter, then of the next, and so on.  All of it is integer
arithmetic.
"""

from __future__ import annotations

from itertools import combinations
from math import isqrt, prod
from typing import Sequence

from .words import Alphabet, Word, reduce_ids


class BaseGroupOracle:
    """Shared plumbing; concrete oracles fill in the arithmetic."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def identity_key(self):
        raise NotImplementedError

    def apply_letter(self, key, lid: int):
        raise NotImplementedError

    def apply_letter_left(self, lid: int, key):
        return self.mult_key(self.apply_letter(self.identity_key(), lid), key)

    def mult_key(self, k1, k2):
        raise NotImplementedError

    def inv_key(self, key):
        raise NotImplementedError

    def evaluate(self, word: Word):
        if word.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet")
        key = self.identity_key()
        for lid in word.ids:
            key = self.apply_letter(key, lid)
        return key

    def key_str(self, key) -> str:
        raise NotImplementedError

    def word_of_key(self, key) -> Word:
        raise NotImplementedError

    def geodesic_length_exact(self, key) -> int:
        """The element's word length."""
        raise NotImplementedError

    def geodesic_word(self, key) -> Word:
        """The element's shortlex least geodesic word."""
        raise NotImplementedError

    def is_identity(self, key) -> bool:
        return key == self.identity_key()

    def key_table(self) -> OracleKeys:
        """The key table of a ball over this oracle: its keys as they are."""
        return OracleKeys(self)


class OracleKeys:
    """The trivial key table of a base oracle: its codes are the oracle's keys."""

    def __init__(self, oracle: BaseGroupOracle):
        self.oracle = oracle
        self.identity = oracle.identity_key()

    def row(self, key, intern: bool = True) -> list:
        """The keys of key * letter, for every letter in order; there is nothing to intern."""
        apply_letter = self.oracle.apply_letter
        return [apply_letter(key, lid) for lid in range(self.oracle.alphabet.n_letters)]

    def key(self, code):
        return code

    def encode(self, key):
        return key

    def new_codes(self) -> list:
        """A ball's code container, holding the identity: a list of keys."""
        return [self.identity]


def _eye(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _gcdex(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0.

    The Euclidean recurrence on |a|, |b| with the signs put back afterwards,
    so the coefficients (and hence the Smith transforms) are those of
    sympy's integer ``gcdex``.
    """
    if not a or not b:
        g = abs(a) or abs(b)
        return (a // g, b // g, g) if g else (0, 0, 0)
    sa, a = (-1, -a) if a < 0 else (1, a)
    sb, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * sa, y * sb, a


def _add_rows(m: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # rows i, j := a*row_i + b*row_j, c*row_i + d*row_j
    ri, rj = m[i], m[j]
    for k in range(len(ri)):
        e = ri[k]
        ri[k] = a * e + b * rj[k]
        rj[k] = c * e + d * rj[k]


def _add_columns(m: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int) -> None:
    # columns i, j := a*col_i + b*col_j, c*col_i + d*col_j
    for row in m:
        e = row[i]
        row[i] = a * e + b * row[j]
        row[j] = c * e + d * row[j]


def _smith_decomp(m: list[list[int]]) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith decomposition of a nonempty integer matrix, modified in place.

    Returns (invariants, S, T), S and T unimodular, with S*M*T the matrix
    whose diagonal is the invariants and whose other entries are 0.  The
    steps, and so S and T, are those of sympy 1.14's ``_smith_normal_decomp``
    over ZZ: pivot search, row then column clearing by ``_gcdex``, a
    nonnegative pivot, recursion on the lower-right block, the divisibility
    fix-up, and zero pivots rotated to the end.
    """
    rows, cols = len(m), len(m[0])
    s, t = _eye(rows), _eye(cols)

    # bring a nonzero entry of the first column, else of the first row, to m[0][0]
    if not m[0][0]:
        i = next((i for i in range(rows) if m[i][0]), None)
        if i is not None:
            m[0], m[i] = m[i], m[0]
            s[0], s[i] = s[i], s[0]
        else:
            j = next((j for j in range(cols) if m[0][j]), None)
            if j is not None:
                for mat in (m, t):
                    for row in mat:
                        row[0], row[j] = row[j], row[0]

    while any(m[0][1:]) or any(m[i][0] for i in range(1, rows)):
        pivot = m[0][0]
        for j in range(1, rows):
            if not m[j][0]:
                continue
            q, r = divmod(m[j][0], pivot)
            if not r:
                op = (1, 0, -q, 1)
            else:
                a, b, g = _gcdex(pivot, m[j][0])
                op = (a, b, m[j][0] // g, -(pivot // g))
                pivot = g
            _add_rows(m, 0, j, *op)
            _add_rows(s, 0, j, *op)
        pivot = m[0][0]
        for j in range(1, cols):
            if not m[0][j]:
                continue
            q, r = divmod(m[0][j], pivot)
            if not r:
                op = (1, 0, -q, 1)
            else:
                a, b, g = _gcdex(pivot, m[0][j])
                op = (a, b, m[0][j] // g, -(pivot // g))
                pivot = g
            _add_columns(m, 0, j, *op)
            _add_columns(t, 0, j, *op)

    if m[0][0] < 0:
        m[0][0] = -m[0][0]
        s[0] = [-x for x in s[0]]

    invs: list[int] = []
    if rows > 1 and cols > 1:
        invs, s_small, t_small = _smith_decomp([r[1:] for r in m[1:]])
        s = _matmul([[1] + [0] * (rows - 1)] + [[0] + r for r in s_small], s)
        t = _matmul(t, [[1] + [0] * (cols - 1)] + [[0] + r for r in t_small])

    if m[0][0]:
        result = [m[0][0]] + invs
        # m[0][0] need not divide the invariants of the lower-right block
        for i in range(len(result) - 1):
            a, b = result[i], result[i + 1]
            if not b or b % a == 0:
                break
            x, y, d = _gcdex(a, b)
            alpha, beta = a // d, b // d
            _add_rows(s, i, i + 1, 1, 0, x, 1)
            _add_columns(t, i, i + 1, 1, y, 0, 1)
            _add_rows(s, i, i + 1, 1, -alpha, 0, 1)
            _add_columns(t, i, i + 1, 1, 0, -beta, 1)
            _add_rows(s, i, i + 1, 0, 1, -1, 0)
            result[i], result[i + 1] = d, b * alpha
    else:
        s = s[1:] + s[:1]
        t = [r[1:] + r[:1] for r in t]
        result = invs + [0]
    return result, s, t


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _echelon(vectors: list[tuple[int, ...]], n: int) -> list[tuple[int, list[int]]]:
    """A basis of the lattice the vectors span, in row echelon form.

    (pivot column, row) pairs by increasing pivot column; a row is zero
    before its pivot, where it is positive.
    """
    rows = [list(v) for v in vectors]
    basis = []
    for c in range(n):
        live = [r for r in rows if r[c]]
        while len(live) > 1:  # Euclid on column c
            p = min(live, key=lambda r: abs(r[c]))
            for r in live:
                if r is not p:
                    q = r[c] // p[c]
                    for j in range(c, n):
                        r[j] -= q * p[j]
            live = [r for r in live if r[c]]
        if live:
            rows.remove(live[0])
            basis.append((c, live[0] if live[0][c] > 0 else [-x for x in live[0]]))
    return basis


def _unimodular_inverse(s: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix S.

    Read off S's own Smith decomposition S2*S*T2 = D: S is unimodular
    exactly when D is the identity, and then S^-1 = T2*S2.
    """
    diag, s2, t2 = _smith_decomp([row[:] for row in s])
    if diag != [1] * len(s):
        raise RuntimeError("Smith decomposition self-check failed: S is not unimodular")
    return _matmul(t2, s2)


def _snf_images(n_gens: int, relator_vectors: list[tuple[int, ...]]):
    """Quotient Z^n_gens by the lattice spanned by relator_vectors.

    Returns (free_rank, moduli, images, preimages, rows) where images[i] is
    the coordinate tuple of generator i, laid out as free coordinates
    followed by torsion coordinates (one per modulus), and preimages maps a
    coordinate row back to an exponent vector over the generators.

    The coordinates are the rows of S in the Smith decomposition S*M*T = D
    of the matrix M whose columns are the relator vectors, computed by
    ``_smith_decomp`` (sympy 1.14's ``_smith_normal_decomp`` step for step),
    so they are the coordinates sympy's ``smith_normal_decomp`` gives.
    """
    if not relator_vectors or not n_gens:
        images = []
        for i in range(n_gens):
            v = [0] * n_gens
            v[i] = 1
            images.append(tuple(v))
        preimages = {i: tuple(img) for i, img in enumerate(images)}
        return n_gens, (), images, preimages, list(range(n_gens))

    m = [list(col) for col in zip(*relator_vectors)]  # columns = relators
    diag, s, t = _smith_decomp([row[:] for row in m])
    d = _matmul(_matmul(s, m), t)
    if any(d[i][j] != (diag[i] if i == j else 0)
           for i in range(len(d)) for j in range(len(d[0]))):
        raise RuntimeError("Smith decomposition self-check failed: S*M*T != D")
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
        col = [s[r][g] for r in rows]
        for j, mod in enumerate(moduli):
            idx = len(free_rows) + j
            col[idx] %= mod
        images.append(tuple(col))
    s_inv = _unimodular_inverse(s)
    preimages = {r: tuple(s_inv[g][r] for g in range(n_gens)) for r in rows}
    return len(free_rows), tuple(moduli), images, preimages, rows


class AbelianOracle(BaseGroupOracle):
    """Finitely generated abelian group given by generators and relator words."""

    def __init__(self, alphabet: Alphabet, relators: Sequence[Word]):
        if alphabet.stable_generators:
            raise ValueError("base alphabet must not contain stable letters")
        self.alphabet = alphabet
        self.relators = tuple(relators)
        n = len(alphabet.generators)
        vectors = self._relator_vectors = []
        for r in self.relators:
            if r.alphabet != alphabet:
                raise ValueError("relator is over a different alphabet")
            v = [0] * n
            for lid in r.ids:
                v[lid >> 1] += 1 if lid % 2 == 0 else -1
            vectors.append(tuple(v))
        self.free_rank, self.moduli, images, self._preimages, self._rows = _snf_images(n, vectors)
        self.images = [tuple(img) for img in images]
        self._dim = self.free_rank + len(self.moduli)
        self._identity = (0,) * self._dim
        self._metric = None  # the norm's tables, on first use
        # per letter id, the delta added by one application
        self._deltas = []
        for g in range(n):
            self._deltas.append(self.images[g])
            self._deltas.append(tuple(-x for x in self.images[g]))
        for r in self.relators:
            if not self.is_identity(self.evaluate(r)):
                raise ValueError(f"relator {r} does not evaluate to the identity")

    def identity_key(self):
        return self._identity

    def _norm(self, coords: list[int]) -> tuple[int, ...]:
        fr = self.free_rank
        for j, mod in enumerate(self.moduli):
            coords[fr + j] %= mod
        return tuple(coords)

    def apply_letter(self, key, lid: int):
        d = self._deltas[lid]
        return self._norm([a + b for a, b in zip(key, d)])

    def mult_key(self, k1, k2):
        return self._norm([a + b for a, b in zip(k1, k2)])

    def inv_key(self, key):
        return self._norm([-a for a in key])

    def key_str(self, key) -> str:
        fr = self.free_rank
        s = ",".join(str(x) for x in key[:fr])
        if self.moduli:
            s += ";" + ",".join(str(x) for x in key[fr:])
        return s

    def _exponents(self, key) -> list[int]:
        """Some exponent vector over the generators whose element is key."""
        n = len(self.alphabet.generators)
        exps = [0] * n
        for pos, row in enumerate(self._rows):
            c = key[pos]
            pre = self._preimages[row]
            for g in range(n):
                exps[g] += c * pre[g]
        return exps

    def _word(self, exps: list[int]) -> Word:
        ids = []
        for g, e in enumerate(exps):
            ids.extend([2 * g if e > 0 else 2 * g + 1] * abs(e))
        return Word(self.alphabet, tuple(ids))

    def word_of_key(self, key) -> Word:
        """Some word of the element, not in general a geodesic (geodesic_word spells one)."""
        return self._word(self._exponents(key))

    def geodesic_length_exact(self, key) -> int:
        return sum(map(abs, self._geodesic_exponents(key)))

    def geodesic_word(self, key) -> Word:
        return self._word(self._geodesic_exponents(key))

    def _metric_tables(self):
        """The norm's tables, built on first use (see the module docstring).

        Per set S of free_rank generators with independent free parts: S,
        the matrix M_S of their free parts and its determinant.  Then the
        relator lattice in echelon form, and the proximity window N * Delta,
        with Delta Hadamard's bound.
        """
        n, fr = len(self.alphabet.generators), self.free_rank
        vertices = []
        for gens in combinations(range(n), fr):
            m = [[self.images[g][r] for g in gens] for r in range(fr)]
            det = _det(m)
            if det:
                vertices.append((gens, m, det))
        # Hadamard's bound on every subdeterminant: the product of the norms
        # of the largest columns, at most _dim of them, each norm at least 1
        columns = self.images + [tuple(mod * (r == fr + j) for r in range(self._dim))
                                 for j, mod in enumerate(self.moduli)]
        squares = sorted((sum(x * x for x in col) for col in columns), reverse=True)
        delta = max(1, isqrt(prod(q for q in squares[:self._dim] if q)))
        window = (2 * n + len(self.moduli)) * delta
        return vertices, _echelon(self._relator_vectors, n), window

    def _geodesic_exponents(self, key) -> list[int]:
        """The exponent vector of the element's shortlex least geodesic."""
        if self._metric is None:
            self._metric = self._metric_tables()
        vertices, lattice, window = self._metric
        n = len(self.alphabet.generators)
        v = key[:self.free_rank]
        # the optimal basic solutions of the LP relaxation, each as num / den
        # by Cramer's rule
        optima, best = [], None
        for gens, m, det in vertices:
            num = [_det([row[:k] + [x] + row[k + 1:] for row, x in zip(m, v)])
                   for k in range(len(gens))]
            if det < 0:
                num, den = [-x for x in num], -det
            else:
                den = det
            cost = sum(map(abs, num))
            if best is None or cost * best[1] < best[0] * den:
                optima, best = [], (cost, den)
            if cost * best[1] == best[0] * den:
                optima.append((dict(zip(gens, num)), den))
        # the window around the optima's bounding box in p_g and q_g, where
        # n_g = p_g - q_g; an integer optimum has p_g = 0 or q_g = 0
        lo, hi = [], []
        for g in range(n):
            vals = [(at.get(g, 0), den) for at, den in optima]
            p_hi = max(max(x, 0) // d for x, d in vals)  # floors of the largest
            q_hi = max(max(-x, 0) // d for x, d in vals)
            p_lo = min(-(min(-x, 0) // d) for x, d in vals)  # ceilings of the least
            q_lo = min(-(min(x, 0) // d) for x, d in vals)
            lo.append(p_lo - window if p_lo > window else -(q_hi + window))
            hi.append(window - q_lo if q_lo > window else p_hi + window)
        # the coset of the relator lattice in the window, depth first: lattice
        # coordinate i fixes the columns from its pivot to the next pivot, and
        # a branch whose fixed columns cost more than the best leaf is cut
        starts = [c for c, _ in lattice] + [n]
        best_rank, best_x = None, None

        def search(i: int, x: list[int], cost: int) -> None:
            nonlocal best_rank, best_x
            if i == len(lattice):
                rank = (cost, [-c for e in x for c in (max(e, 0), max(-e, 0))])
                if best_rank is None or rank < best_rank:
                    best_rank, best_x = rank, x
                return
            c, row = lattice[i]
            piv, end = row[c], starts[i + 1]
            for y in sorted(range(-((x[c] - lo[c]) // piv), (hi[c] - x[c]) // piv + 1),
                            key=lambda y: abs(x[c] + y * piv)):
                z = [a + y * b for a, b in zip(x, row)]
                if all(lo[j] <= z[j] <= hi[j] for j in range(c + 1, end)):
                    z_cost = cost + sum(abs(z[j]) for j in range(c, end))
                    if best_rank is None or z_cost <= best_rank[0]:
                        search(i + 1, z, z_cost)

        x0 = self._exponents(key)
        search(0, x0, sum(map(abs, x0[:starts[0]])))
        return best_x


class FreeOracle(BaseGroupOracle):
    """Free group; canonical keys are tuples of freely reduced letter ids."""

    def __init__(self, alphabet: Alphabet):
        if alphabet.stable_generators:
            raise ValueError("base alphabet must not contain stable letters")
        self.alphabet = alphabet
        self.relators = ()

    def identity_key(self):
        return ()

    def apply_letter(self, key, lid: int):
        if key and key[-1] == lid ^ 1:
            return key[:-1]
        return key + (lid,)

    def mult_key(self, k1, k2):
        i = len(k1)
        j = 0
        while i > 0 and j < len(k2) and k1[i - 1] == k2[j] ^ 1:
            i -= 1
            j += 1
        return k1[:i] + k2[j:]

    def inv_key(self, key):
        return tuple(lid ^ 1 for lid in reversed(key))

    def evaluate(self, word: Word):
        if word.alphabet != self.alphabet:
            raise ValueError("word is over a different alphabet")
        return reduce_ids(word.ids)

    def key_str(self, key) -> str:
        return "".join(self.alphabet.letter_str(lid) for lid in key)

    def word_of_key(self, key) -> Word:
        return Word(self.alphabet, key)

    def geodesic_length_exact(self, key) -> int:
        return len(key)

    def geodesic_word(self, key) -> Word:
        return Word(self.alphabet, key)


def abelian_from_presentation(generators: Sequence[str], relators: Sequence[Word | str]) -> AbelianOracle:
    """Build the abelian oracle for <generators | relators, all commutators>."""
    alphabet = Alphabet.make(list(generators))
    from .words import parse_word

    rel_words = [
        r if isinstance(r, Word) else parse_word(alphabet, r) for r in relators
    ]
    return AbelianOracle(alphabet, rel_words)


def free_oracle(generators: Sequence[str]) -> FreeOracle:
    return FreeOracle(Alphabet.make(list(generators)))


def base_geodesic_length(oracle: BaseGroupOracle, w: Word) -> int:
    """Word-metric length of the element of w in the base Cayley graph."""
    return oracle.geodesic_length_exact(oracle.evaluate(w))
